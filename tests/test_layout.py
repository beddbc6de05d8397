"""The layout rule: no driver, no code.

Every public top-level ``def`` / ``class`` under ``src/repro``, and every
public method of a public class (``module:Class.method``), must be named
outside its own definition somewhere in ``src/``, ``benchmarks/`` or
``examples/`` — the solver, a paper-figure reproduction or an example
has to reach it. Only code names it: an identifier (a name, an
attribute, a keyword argument, an imported name) or a string constant
equal to the name (a ``getattr`` or a registry key). A docstring or a
comment is not a driver, nor a string inside a type annotation
(``x: "Cls"``, ``def f(a: "Cls") -> "Cls"``), nor a definition of the
same name elsewhere, nor a re-export (an ``import`` in a package's
``__init__`` or an ``__all__`` entry), nor a unit test: what only its
own test reaches is deleted, or named below with the reason it stays.

The same holds for keyword parameters — parameters with a default, and
keyword-only ones — of public functions, public classes' ``__init__``
and public methods: code in those roots, outside the callable's own
body, passes the keyword by name (the callee is not resolved), calls the
callable's name with enough positional arguments to reach it, or
forwards ``*args`` / ``**kwargs`` into such a call. A keyword nothing
passes is a constant.

And for the values those keywords and knobs take: every choice and
alias of a :data:`~repro.core.config.KNOBS` row, every parsed knob as a
whole, every kind in ``BOUNDARY_KINDS`` and every key of the chemistry
balancer's planner table must be selected by code in those roots,
outside its defining table — passed as a call argument, assigned, or
listed in a literal — or by a CI workflow's environment setting of the
knob's variable (matrix entries included). A comparison operand, a
docstring, a comment or a test selects nothing; a knob's default counts
as selected. The boolean knobs' shared text parser ``_SWITCH`` is exempt
for the reason a parsed knob's accepted texts are. A value nothing
selects is deleted with every branch only it reached, or named below.
"""

import ast
import pathlib
import re

from repro.core.config import _SWITCH, BOUNDARY_KINDS, KNOBS
from repro.parallel.chemlb import _PLANNERS

REPO = pathlib.Path(__file__).resolve().parents[1]

#: public names nothing drives, kept on purpose — test oracles and
#: decisions that belong to another open item. ``module:name`` or
#: ``module:Class.method`` -> why.
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
    "transport/mixture.py:MixtureAveragedTransport.mixture_viscosity":
        "per-property textbook formula, with species_* and binary_diffusion "
        "the oracle the fused evaluate kernel is checked against",
    "transport/mixture.py:MixtureAveragedTransport.mixture_conductivity":
        "as mixture_viscosity",
    "transport/mixture.py:MixtureAveragedTransport.mixture_diffusivities":
        "as mixture_viscosity",
    "core/solver.py:S3DSolver.fused_profile":
        "the only reader of the rank_telemetry output, a merge of the "
        "snapshots the ranks return; the Figs 2-3 per-rank "
        "chemistry-time item (ROADMAP) builds on it",
    "io/filesystem.py:SimFileSystem.corrupt":
        "the at-rest media-corruption hook of the checkpoint and shard "
        "corruption tests, which ROADMAP keeps",
}


#: keyword parameters nothing passes, kept on purpose.
#: ``module:function(param)``, ``module:Class(param)`` (``__init__``) or
#: ``module:Class.method(param)`` -> why.
UNDRIVEN_KEYWORDS = {
    "core/grid.py:Grid(stretch)":
        "the section 6.2 / 7.2 transverse mesh stretching; folding the "
        "metric to a scalar would touch the derivative hot path",
    "transport/mixture.py:MixtureAveragedTransport(soret)":
        "section 2.4 thermal diffusion, pinned by the RHS oracle tests",
    "resilience/faults.py:FaultInjector.add(probability)":
        "the seeded random-fault lanes of the resilience and transport "
        "conformance suites; no benchmark injects faults at random yet",
}

#: values nothing selects, kept on purpose. ``KNOBS:knob=value``,
#: ``KNOBS:knob`` (a parsed knob), ``BOUNDARY_KINDS:kind`` or
#: ``_PLANNERS:key`` -> why.
UNDRIVEN_VALUES = {
    "KNOBS:heartbeat":
        "the multiprocessing liveness deadline: a safety setting, armed "
        "only by the recovery tests that hang a worker on purpose",
}

ROOTS = ("src", "benchmarks", "examples")


def _driver_tokens(source, package_init=False):
    """The names ``source`` drives, each with the lines it occurs on:
    identifiers and identifier-valued string constants, outside
    ``__all__`` and (for a package ``__init__``) its imports; a string
    constant inside a type annotation drives nothing."""
    tree = ast.parse(source)
    skipped = {
        id(node) for node in tree.body
        if (isinstance(node, ast.Assign)
            and any(getattr(t, "id", None) == "__all__" for t in node.targets))
        or (package_init and isinstance(node, (ast.Import, ast.ImportFrom)))
    }
    annotations = {
        id(sub) for node in ast.walk(tree)
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)) if ann is not None
        for sub in ast.walk(ann)
    }
    found, todo = {}, [tree]
    while todo:
        node = todo.pop()
        if id(node) in skipped:
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            word = node.id
        elif isinstance(node, ast.Attribute):
            word = node.attr
        elif isinstance(node, ast.keyword):
            word = node.arg
        elif isinstance(node, ast.alias):
            word = node.name.rpartition(".")[2]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in annotations):
            word = node.value
        else:
            continue
        if word:
            found.setdefault(word, []).append(getattr(node, "lineno", 0))
    return found


def _public_definitions(tree):
    """``(key, node)`` of every public top-level function or class and of
    every public method of a public class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, defs[:2])
                        and not member.name.startswith("_")):
                    yield f"{node.name}.{member.name}", member


def _undriven_names(repo=REPO):
    src = repo / "src" / "repro"
    tokens = {p: _driver_tokens(p.read_text(encoding="utf-8"),
                                p.name == "__init__.py")
              for d in ROOTS for p in sorted((repo / d).rglob("*.py"))}
    found = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for key, node in _public_definitions(tree):
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                any(line not in own or p != path for line in t.get(node.name, ()))
                for p, t in tokens.items()
            ):
                found.add(f"{path.relative_to(src).as_posix()}:{key}")
    return found


def _call_sites(source):
    """``(name, line, n_positional, keywords, star, double_star)`` of
    every call in ``source``; ``name`` is the called identifier (a bare
    name or an attribute), the callee unresolved."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        star = any(isinstance(a, ast.Starred) for a in node.args)
        sites.append((name, node.lineno, len(node.args) - star,
                      {k.arg for k in node.keywords if k.arg}, star,
                      any(k.arg is None for k in node.keywords)))
    return sites


def _public_callables(tree):
    """``(key, called_name, node, binds_self)`` of every public function,
    public class's ``__init__`` and public method of a public class."""
    for key, node in _public_definitions(tree):
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if getattr(member, "name", None) == "__init__":
                    yield key, key, member, True
        elif "." in key:
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in node.decorator_list)
            yield key, node.name, node, not static
        else:
            yield key, key, node, False


def _keyword_parameters(node, binds_self):
    """``(name, positional index or None)`` of ``node``'s parameters
    with a default and its keyword-only ones."""
    args = node.args
    positional = (args.posonlyargs + args.args)[1 if binds_self else 0:]
    first = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional[first:], first):
        yield arg.arg, index
    for arg in args.kwonlyargs:
        yield arg.arg, None


def _undriven_keywords(repo=REPO):
    src = repo / "src" / "repro"
    calls = {p: _call_sites(p.read_text(encoding="utf-8"))
             for d in ROOTS for p in sorted((repo / d).rglob("*.py"))}
    found = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for key, called, node, binds_self in _public_callables(tree):
            own = range(node.lineno, node.end_lineno + 1)
            for param, index in _keyword_parameters(node, binds_self):
                if not any(
                    param in kws or (name == called and (
                        double or (index is not None
                                   and (star or n_pos > index))))
                    for p, sites in calls.items()
                    for name, line, n_pos, kws, star, double in sites
                    if p != path or line not in own
                ):
                    found.add(f"{path.relative_to(src).as_posix()}:"
                              f"{key}({param})")
    return found


def test_every_public_name_has_a_driver():
    assert len(UNDRIVEN) <= 10
    assert all(UNDRIVEN.values())
    # both ways: nothing undriven outside the list, nothing stale in it
    assert _undriven_names() == set(UNDRIVEN)


def test_only_code_is_a_driver(tmp_path):
    """A name a docstring or a comment mentions is undriven; one an
    identifier or a ``getattr`` string names is driven, and so is a
    method called from another method of its class."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (tmp_path / "examples").mkdir()
    (pkg / "__init__.py").write_text(
        '"""Exports told_about."""\n'
        "from repro.mod import told_about, called\n"
        '__all__ = ["told_about", "commented", "called"]\n')
    (pkg / "mod.py").write_text(
        "def told_about():\n    pass\n\n"
        "def commented():\n    pass\n\n"
        "def called():\n    pass\n\n"
        "def looked_up():\n    pass\n\n"
        "class Box:\n"
        "    def helper(self):\n        pass\n\n"
        "    def orphan(self):\n        pass\n\n"
        "    def run(self):\n        return self.helper()\n")
    (tmp_path / "examples" / "demo.py").write_text(
        '"""Calls told_about() -- in prose only."""\n'
        "import repro.mod as m\n\n"
        "# commented() would go here\n"
        "m.called()\n"
        'getattr(m, "looked_up")()\n'
        "m.Box().run()\n")
    assert _undriven_names(tmp_path) == {
        "mod.py:told_about", "mod.py:commented", "mod.py:Box.orphan"}


def test_annotation_strings_are_not_drivers(tmp_path):
    """A class that only string annotations in another module name —
    of a variable, a parameter or a return — is undriven; one a
    ``getattr`` string names is driven."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (tmp_path / "examples").mkdir()
    (pkg / "mod.py").write_text(
        "class Annotated:\n    pass\n\n"
        "class LookedUp:\n    pass\n")
    (pkg / "user.py").write_text(
        "import repro.mod as m\n\n"
        "class _Handler:\n"
        '    owner: "Annotated" = None\n\n'
        '    def adopt(self, other: "Annotated") -> "Annotated":\n'
        "        return other\n\n"
        'getattr(m, "LookedUp")\n')
    assert _undriven_names(tmp_path) == {"mod.py:Annotated"}


def test_every_keyword_has_a_driver():
    assert len(UNDRIVEN_KEYWORDS) <= 8
    assert all(UNDRIVEN_KEYWORDS.values())
    assert _undriven_keywords() == set(UNDRIVEN_KEYWORDS)


def test_keywords_are_driven_by_name_position_or_forwarding(tmp_path):
    """A keyword passed by name, reached positionally or forwarded
    through ``**kwargs`` is driven; one passed only inside the
    callable's own body, or never, is not."""
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (tmp_path / "examples").mkdir()
    (pkg / "mod.py").write_text(
        "def f(a, by_position=1, by_name=2, unpassed=3, *, kw_only=4):\n"
        "    return f(a, unpassed=0, kw_only=0)\n\n"
        "class Box:\n"
        "    def __init__(self, size=1, colour=None):\n        pass\n\n"
        "    def grow(self, step=1):\n        pass\n")
    (tmp_path / "examples" / "demo.py").write_text(
        "import repro.mod as m\n\n"
        "def make(**kwargs):\n    return m.Box(**kwargs)\n\n"
        "m.f(0, 1, by_name=2)\n"
        "make(size=2).grow()\n")
    assert _undriven_keywords(tmp_path) == {
        "mod.py:f(unpassed)", "mod.py:f(kw_only)", "mod.py:Box.grow(step)"}


#: the defining tables, whose own entries select nothing
_TABLES = {"KNOBS", "_SWITCH", "BOUNDARY_KINDS", "_PLANNERS"}


def _selections(source):
    """``(values, names)`` that ``source`` selects: the typed constants
    it passes as call arguments, assigns, or lists in a literal —
    comparisons and the defining tables skipped — and the keywords and
    assignment targets it gives a constant other than ``None``."""
    values, names, todo = set(), set(), [ast.parse(source)]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Compare) or (
                isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) in _TABLES
                        for t in node.targets)):
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Call):
            picked = node.args + [k.value for k in node.keywords]
            given = [(k.arg, k.value) for k in node.keywords]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            picked = [node.value]
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            given = [(getattr(t, "id", None) or getattr(t, "attr", None),
                      node.value) for t in targets]
        elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            picked, given = node.elts, []
        elif isinstance(node, ast.Dict):
            picked, given = node.keys + node.values, []
        else:
            continue
        values.update((type(v.value), v.value) for v in picked
                      if isinstance(v, ast.Constant))
        names.update(name for name, v in given if isinstance(v, ast.Constant)
                     and v.value is not None)
    return values, names


def _ci_settings(repo):
    """``REPRO_*`` variable -> the lower-cased values CI workflows set
    it to, a ``${{ matrix.key }}`` reference expanded to the job's
    matrix entries."""
    found = {}
    for path in sorted((repo / ".github" / "workflows").glob("*.y*ml")):
        text = path.read_text(encoding="utf-8")
        for job in re.split(r"^  [\w-]+:\s*$", text, flags=re.MULTILINE):
            matrix = {key: re.findall(r"[\w.-]+", items) for key, items in
                      re.findall(r"^\s+([\w-]+):\s*\[(.*)\]", job,
                                 re.MULTILINE)}
            for var, value in re.findall(r"^\s+(REPRO_\w+):\s*(.+?)\s*$",
                                         job, re.MULTILINE):
                ref = re.fullmatch(r"\$\{\{\s*matrix\.([\w-]+)\s*\}\}",
                                   value)
                found.setdefault(var, set()).update(
                    matrix.get(ref.group(1), ()) if ref
                    else [value.strip("'\"")])
    return {var: {v.lower() for v in vals} for var, vals in found.items()}


def _audited_values(knobs, kinds, planners):
    """``(key, value, knob)`` of every value the rule audits; ``value``
    is ``None`` for a parsed knob, audited as a whole, and ``knob`` is
    ``None`` outside the knob table. A knob's default is left out."""
    for name, knob in knobs.items():
        if knob.parse is not None:
            yield f"KNOBS:{name}", None, knob
            continue
        spellings = list(knob.choices)
        if knob.aliases is not _SWITCH:
            spellings += list(knob.aliases)
        for value in spellings:
            if (type(value), value) != (type(knob.default), knob.default):
                yield f"KNOBS:{name}={value}", value, knob
    for kind in kinds:
        yield f"BOUNDARY_KINDS:{kind}", kind, None
    for key in planners:
        yield f"_PLANNERS:{key}", key, None


def _undriven_values(repo=REPO, knobs=KNOBS, kinds=BOUNDARY_KINDS,
                     planners=_PLANNERS):
    values, names = set(), set()
    for d in ROOTS:
        for path in sorted((repo / d).rglob("*.py")):
            got = _selections(path.read_text(encoding="utf-8"))
            values |= got[0]
            names |= got[1]
    ci = _ci_settings(repo)
    found = set()
    for key, value, knob in _audited_values(knobs, kinds, planners):
        set_by_ci = knob is not None and knob.env in ci
        if value is None:
            driven = knob.name in names or set_by_ci
        else:
            driven = (type(value), value) in values or (
                set_by_ci and str(value).lower() in ci[knob.env])
        if not driven:
            found.add(key)
    return found


def test_every_value_has_a_driver():
    assert len(UNDRIVEN_VALUES) <= 3
    assert all(UNDRIVEN_VALUES.values())
    assert _undriven_values() == set(UNDRIVEN_VALUES)


def test_values_are_driven_by_code_or_ci(tmp_path):
    """A value passed as a keyword in an example, listed in a literal,
    or set by a CI env matrix is driven; one only compared against in
    ``src/``, or named only in a docstring or in ``tests/``, is not —
    and neither is a parsed knob only a test sets."""
    from repro.core.config import Knob

    for d in ("src", "examples", "tests", ".github/workflows"):
        (tmp_path / d).mkdir(parents=True)
    (tmp_path / "src" / "mod.py").write_text(
        '"""Pass mode="documented" to get the documented mode."""\n'
        "def run(mode, kind):\n"
        '    if mode == "compared" or kind in ("kind_compared",):\n'
        "        return 1\n"
        '    return [kind, "kind_listed"]\n')
    (tmp_path / "examples" / "demo.py").write_text(
        "import mod\n\n"
        'mod.run(mode="by_keyword", kind="kind_passed")\n')
    (tmp_path / "tests" / "test_mod.py").write_text(
        "import mod\n\n"
        'mod.run(mode="tested", kind="kind_tested")\n'
        "deadline = 3.0\n")
    (tmp_path / ".github" / "workflows" / "ci.yml").write_text(
        "jobs:\n"
        "  lane:\n"
        "    strategy:\n"
        "      matrix:\n"
        '        m: ["in_matrix", "Also_Matrix"]\n'
        "    steps:\n"
        "      - run: pytest\n"
        "        env:\n"
        "          REPRO_MODE: ${{ matrix.m }}\n"
        "          REPRO_SEED: 7\n")
    knobs = {k.name: k for k in (
        Knob("mode", "REPRO_MODE", "default", "",
             choices=("default", "by_keyword", "in_matrix", "also_matrix",
                      "compared", "documented", "tested"),
             aliases={"alias_tested": "tested"}),
        Knob("seed", "REPRO_SEED", None, "", parse=int),
        Knob("deadline", "REPRO_DEADLINE", 0.0, "", parse=float),
    )}
    kinds = ("kind_passed", "kind_listed", "kind_compared", "kind_tested")
    assert _undriven_values(tmp_path, knobs, kinds, {}) == {
        "KNOBS:mode=compared", "KNOBS:mode=documented", "KNOBS:mode=tested",
        "KNOBS:mode=alias_tested", "KNOBS:deadline",
        "BOUNDARY_KINDS:kind_compared", "BOUNDARY_KINDS:kind_tested"}
