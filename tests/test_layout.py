"""The layout rule: no driver, no code.

Every public top-level ``def`` / ``class`` under ``src/repro`` must occur
(as a word) outside its own definition somewhere in ``src/``,
``benchmarks/`` or ``examples/`` — the solver, a paper-figure
reproduction or an example has to reach it. A re-export (an ``import``
in a package's ``__init__`` or an ``__all__`` entry) is not a driver,
and neither is a unit test: what only its own test imports is deleted,
or named below with the reason it stays.
"""

import ast
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

#: public names nothing drives, kept on purpose — test oracles and
#: decisions that belong to another open item. ``module:name`` -> why.
UNDRIVEN = {
    "loopopt/ir.py:interpret":
        "semantic oracle of the loop transforms: every transform is "
        "checked against interpreting the nest it rewrote",
    "chemistry/parser.py:parse_mechanism":
        "CHEMKIN reader; the contracts item (ROADMAP) owns fuzzing it or "
        "dropping it",
    "chemistry/zerod.py:ConstVolumeReactor":
        "constant-volume twin of the driven ConstPressureReactor, the "
        "reference of the constant-volume Strang closure tests",
    "core/config.py:knob_table_markdown":
        "renders docs/CONFIG.md; tests/test_knobs.py pins the committed "
        "table to it",
    "analysis/golden.py:load_golden":
        "reader of tests/goldens/*.json, the inverse of the driven "
        "write_golden",
    "telemetry/export.py:parse_monitor_text":
        "reader of the section-9 monitor files, the inverse of the driven "
        "MonitorWriter",
    "workflow/actor.py:FunctionActor":
        "the 1-in/1-out adapter the workflow-engine tests wire their "
        "pipelines from; deleting it would re-create it test-side",
    "parallel/programs.py:EchoProgram":
        "conformance-suite rank program: spawn workers import rank "
        "programs by reference, so they live in the package",
    "parallel/programs.py:FailingProgram": "as EchoProgram",
    "parallel/programs.py:ChainedFailingProgram": "as EchoProgram",
    "parallel/programs.py:SleeperProgram": "as EchoProgram",
    "parallel/programs.py:ReplyEarlyProgram": "as EchoProgram",
}


def _driver_words(path, own=None):
    """Source of ``path`` with what is not a driver blanked: ``__all__``,
    the imports of a package ``__init__`` and the lines ``own`` (a
    definition's ``(first, last)``); as the set of its words."""
    source = path.read_text(encoding="utf-8")
    spans = [own] if own else []
    for node in ast.parse(source).body:
        if (
            isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        ) or (
            path.name == "__init__.py"
            and isinstance(node, (ast.Import, ast.ImportFrom))
        ):
            spans.append((node.lineno, node.end_lineno))
    lines = source.splitlines()
    for first, last in spans:
        lines[first - 1 : last] = [""] * (last - first + 1)
    return set(re.findall(r"\w+", "\n".join(lines)))


def _undriven_names():
    words = {p: _driver_words(p) for d in ("src", "benchmarks", "examples")
             for p in sorted((REPO / d).rglob("*.py"))}
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if any(node.name in w for p, w in words.items() if p != path):
                continue
            if node.name not in _driver_words(
                    path, own=(node.lineno, node.end_lineno)):
                found.add(f"{path.relative_to(SRC).as_posix()}:{node.name}")
    return found


def test_every_public_name_has_a_driver():
    assert len(UNDRIVEN) <= 15
    assert all(UNDRIVEN.values())
    # both ways: nothing undriven outside the list, nothing stale in it
    assert _undriven_names() == set(UNDRIVEN)
