"""The run-time knob table (``repro.core.config.KNOBS``) and its one
``resolve()``: every check here is table-driven, so a new row is covered
the moment it is added — and the source scans at the bottom keep private
resolvers, stray ``os.environ`` reads and unlaned optional-package forks
from growing back."""

import dataclasses
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.core.config import (
    KNOBS,
    BoundarySpec,
    SolverConfig,
    knob_table_markdown,
    periodic_boundaries,
    resolve,
)
from repro.core.grid import Grid
from tests.helpers import set_default_telemetry, uniform_state

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "repro"

ALL = sorted(KNOBS)
ENUMERATED = [n for n in ALL if KNOBS[n].parse is None]
IN_CONFIG = [n for n in ALL if KNOBS[n].in_config]

#: parsed (numeric) knobs: two valid (explicit, env text, resolved)
#: settings and texts that must be rejected
PARSED = {
    "heartbeat": ((2.5, "2.5", 2.5), (1, "1e0", 1.0), ("abc", "-1", "nan")),
    "fault_seed": ((42, "42", 42), (7, "7", 7), ("x7", "1.5")),
}


def _settings(name):
    """Two distinct valid (explicit, env text, resolved) settings."""
    knob = KNOBS[name]
    if knob.parse is not None:
        return PARSED[name][:2]
    first, last = knob.choices[0], knob.choices[-1]
    return (first, str(first), first), (last, str(last), last)


def _bad_texts(name):
    return PARSED[name][2] if KNOBS[name].parse is not None else ("bogus",)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for knob in KNOBS.values():
        monkeypatch.delenv(knob.env, raising=False)


class TestTable:
    def test_every_parsed_knob_has_samples(self):
        assert sorted(PARSED) == [n for n in ALL if KNOBS[n].parse is not None]

    def test_config_fields_and_env_vars(self):
        fields = [f.name for f in dataclasses.fields(SolverConfig)]
        assert len(fields) == 13
        assert set(IN_CONFIG) <= set(fields)
        assert all(getattr(SolverConfig(), n) is None for n in IN_CONFIG)
        envs = [k.env for k in KNOBS.values()]
        assert len(set(envs)) == len(envs) == len(KNOBS) == 8
        assert all(e.startswith("REPRO_") for e in envs)

    def test_defaults_are_valid_settings(self):
        for name, knob in KNOBS.items():
            if knob.default is not None:
                assert resolve(name, knob.default) == knob.default

    def test_modules_reexport_the_table_choices(self):
        from repro.parallel import chemlb, comm

        assert chemlb.POLICIES is KNOBS["chem_load_balance"].choices
        assert comm.TRANSPORTS is KNOBS["transport"].choices

    def test_committed_docs_table_is_the_rendered_table(self):
        text = (REPO / "docs" / "CONFIG.md").read_text(encoding="utf-8")
        assert knob_table_markdown() in text
        for knob in KNOBS.values():
            assert knob.env in knob_table_markdown()


@pytest.mark.parametrize("name", ALL)
class TestResolve:
    def test_explicit_beats_env_beats_default(self, name, monkeypatch):
        knob = KNOBS[name]
        (exp_a, _, val_a), (_, env_b, val_b) = _settings(name)
        assert val_a != val_b
        assert resolve(name) == knob.default
        monkeypatch.setenv(knob.env, env_b)
        assert resolve(name) == val_b
        assert resolve(name, exp_a) == val_a

    def test_empty_env_means_default(self, name, monkeypatch):
        knob = KNOBS[name]
        for blank in ("", "   "):
            monkeypatch.setenv(knob.env, blank)
            assert resolve(name) == knob.default

    def test_unknown_values_raise_naming_knob_env_and_forms(
            self, name, monkeypatch):
        knob = KNOBS[name]
        expected = [name, knob.env]
        expected += ([repr(c) for c in knob.choices] if knob.parse is None
                     else [knob.accepts])
        for bad in _bad_texts(name):
            errors = []
            with pytest.raises(ValueError) as exc:
                resolve(name, bad)
            errors.append(str(exc.value))
            monkeypatch.setenv(knob.env, bad)
            with pytest.raises(ValueError) as exc:
                resolve(name)
            errors.append(str(exc.value))
            monkeypatch.delenv(knob.env)
            for message in errors:
                assert repr(bad) in message
                for piece in expected:
                    assert piece in message

    def test_unhashable_explicit_value_is_a_value_error(self, name):
        with pytest.raises(ValueError, match=name):
            resolve(name, ["not", "a", "setting"])


@pytest.mark.parametrize("name", ENUMERATED)
def test_whitespace_and_case_are_accepted_identically(name, monkeypatch):
    """Every spelling — choice or alias — resolves the same stripped,
    case-folded, explicit or from the environment."""
    knob = KNOBS[name]
    spellings = {str(c): c for c in knob.choices}
    spellings.update({a: c for a, c in knob.aliases.items()
                      if a and isinstance(a, str)})
    for text, canonical in spellings.items():
        for variant in (text, text.upper(), text.title(), f"  {text}\t"):
            assert resolve(name, variant) == canonical, variant
            monkeypatch.setenv(knob.env, variant)
            assert resolve(name) == canonical, variant
            monkeypatch.delenv(knob.env)


class TestMalformedEnvironmentFailsLoudly:
    """The values the private parsers used to swallow or disagree on."""

    @pytest.mark.parametrize("env,text", [
        ("REPRO_HEARTBEAT", "abc"),        # used to turn hang detection off
        ("REPRO_FAULT_SEED", "x7"),        # used to become seed 0
        ("REPRO_TELEMETRY", "enabled"),    # used to mean off
    ])
    def test_unparseable_value_raises_naming_variable_and_text(
            self, env, text, monkeypatch):
        name = next(n for n, k in KNOBS.items() if k.env == env)
        monkeypatch.setenv(env, text)
        with pytest.raises(ValueError) as exc:
            resolve(name)
        assert env in str(exc.value) and repr(text) in str(exc.value)
        assert KNOBS[name].forms() in str(exc.value)

    @pytest.mark.parametrize("env,text,value", [
        ("REPRO_CHEMISTRY_MODE", " strang ", "strang"),
        ("REPRO_PARALLEL_RECOVERY", " respawn", "respawn"),   # used to raise
        ("REPRO_PARALLEL_RECOVERY", "Respawn", "respawn"),
        ("REPRO_CHEM_LB", "Greedy", "greedy"),                # used to raise
        ("REPRO_TELEMETRY", "0", False),
        ("REPRO_TELEMETRY", "YES", True),
    ])
    def test_spellings_that_used_to_disagree(self, env, text, value,
                                             monkeypatch):
        name = next(n for n, k in KNOBS.items() if k.env == env)
        monkeypatch.setenv(env, text)
        assert resolve(name) == value

    def test_consumers_see_the_error(self, monkeypatch):
        from repro import telemetry
        from repro.parallel.shm import MultiprocessingTransport

        monkeypatch.setenv("REPRO_HEARTBEAT", "abc")
        with pytest.raises(ValueError, match="REPRO_HEARTBEAT"):
            MultiprocessingTransport(1)
        with pytest.raises(ValueError, match="heartbeat"):
            MultiprocessingTransport(1, heartbeat=-1.0)
        monkeypatch.setenv("REPRO_TELEMETRY", "enabled")
        set_default_telemetry(None)
        try:
            with pytest.raises(ValueError, match="REPRO_TELEMETRY"):
                telemetry.get_telemetry()
        finally:
            monkeypatch.delenv("REPRO_TELEMETRY")
            set_default_telemetry(None)

    @pytest.mark.parametrize("env,bad", [("REPRO_TRANSPORT", "mpi4py"),
                                         ("REPRO_PARALLEL_RECOVERY", "shrink")])
    def test_deleted_choices_list_the_two_that_remain(self, env, bad,
                                                      monkeypatch):
        name = next(n for n, k in KNOBS.items() if k.env == env)
        assert len(KNOBS[name].choices) == 2
        monkeypatch.setenv(env, bad)
        with pytest.raises(ValueError) as exc:
            resolve(name)
        for choice in KNOBS[name].choices:
            assert repr(choice) in str(exc.value)


class TestDeletedValues:
    """Values nothing selected are gone, and say so by name."""

    @pytest.mark.parametrize("name,value", [
        ("observability", "all"),
        ("observability", "yes"),
        ("observability", True),
        ("observability", ""),
    ])
    def test_deleted_value_raises_naming_it(self, name, value):
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            resolve(name, value)

    def test_soft_inflow_is_not_a_boundary_kind(self):
        with pytest.raises(ValueError, match="'nonreflecting_inflow'"):
            BoundarySpec("nonreflecting_inflow", velocity=(1.0,),
                         temperature=300.0, mass_fractions=(1.0,))

    def test_fixed_substeps_is_not_a_knob(self, h2_mech, monkeypatch):
        from repro.core.solver import S3DSolver
        from repro.core.state import State

        monkeypatch.setenv("REPRO_CHEM_FIXED_SUBSTEPS", "5")
        grid = Grid((8,), (1e-3,), periodic=(True,))
        n = h2_mech.n_species
        Y = np.full((n,) + grid.shape, 1.0 / n)
        T = np.full(grid.shape, 1100.0)
        state = State.from_primitive(h2_mech, grid,
                                     h2_mech.density(101325.0, T, Y),
                                     [0.0], T, Y)
        cfg = SolverConfig(boundaries=periodic_boundaries(1), dt=1e-9,
                           chemistry_mode="strang")
        assert S3DSolver(state, cfg)._chem.fixed_substeps is None
        assert "fixed_substeps" not in KNOBS


@pytest.mark.parametrize("name", IN_CONFIG)
class TestSolverConfigValidate:
    def test_rejects_a_bad_value_naming_the_knob(self, name):
        grid = Grid((16,), (1.0,), periodic=(True,))
        for bad in _bad_texts(name):
            cfg = SolverConfig(boundaries=periodic_boundaries(1),
                               **{name: bad})
            with pytest.raises(ValueError, match=name):
                cfg.validate(grid)

    def test_accepts_every_valid_setting(self, name):
        grid = Grid((16,), (1.0,), periodic=(True,))
        for explicit, _, _ in _settings(name):
            fields = {name: explicit}
            SolverConfig(boundaries=periodic_boundaries(1),
                         **fields).validate(grid)


class TestSchemeErrors:
    """Both solvers build their ERK scheme through the same checked
    constructor: a typed error that lists the choices."""

    def test_serial_solver(self, air_mech, air_y):
        from repro.core import S3DSolver

        grid = Grid((16,), (1.0,), periodic=(True,))
        state = uniform_state(air_mech, grid, p=101325.0, T=300.0, Y=air_y)
        cfg = SolverConfig(boundaries=periodic_boundaries(1), scheme="bogus")
        with pytest.raises(ValueError, match=r"unknown ERK scheme 'bogus'.*ck45"):
            S3DSolver(state, cfg, reacting=False)

    def test_parallel_solver(self, air_mech):
        from repro.parallel import CartesianDecomposition
        from repro.parallel.solver import ParallelPeriodicSolver

        grid = Grid((32,), (1.0,), periodic=(True,))
        decomp = CartesianDecomposition((32,), (2,), periodic=(True,))
        with pytest.raises(ValueError, match=r"unknown ERK scheme 'bogus'.*ck45"):
            ParallelPeriodicSolver(air_mech, grid, decomp, scheme="bogus")


class TestOneImplicitIntegrator:
    """One Strang integrator on one closure: the names a caller may
    still pass are accepted, any other raises naming it."""

    def test_config_field(self):
        grid = Grid((16,), (1.0,), periodic=(True,))
        bcs = periodic_boundaries(1)
        SolverConfig(boundaries=bcs, chemistry_method="rosw2").validate(grid)
        with pytest.raises(ValueError, match=r"chemistry_method 'bdf2'"):
            SolverConfig(boundaries=bcs, chemistry_method="bdf2").validate(grid)

    def test_integrator_and_jacobian(self, h2_mech):
        from repro.chemistry import ImplicitChemistry, SourceTermJacobian

        ImplicitChemistry(h2_mech, closure="constant-volume", method="rosw2")
        SourceTermJacobian(h2_mech, mode="constant-volume")
        with pytest.raises(ValueError, match="'bdf2'"):
            ImplicitChemistry(h2_mech, method="bdf2")
        with pytest.raises(ValueError, match="'constant-pressure'"):
            ImplicitChemistry(h2_mech, closure="constant-pressure")
        with pytest.raises(ValueError, match="'constant-pressure'"):
            SourceTermJacobian(h2_mech, mode="constant-pressure")


# ---------------------------------------------------------------------------
# source scans: what was deleted stays deleted
# ---------------------------------------------------------------------------
def _sources():
    return {p.relative_to(SRC).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted(SRC.rglob("*.py"))}


class TestSourceGuards:
    def test_environment_is_read_in_config_only(self):
        hits = [name for name, text in _sources().items()
                if re.search(r"\bos\.(environ|getenv)\b|\bfrom os import\b", text)]
        assert hits == ["core/config.py"]

    def test_every_repro_variable_in_the_source_is_a_table_row(self):
        found = set()
        for text in _sources().values():
            found.update(re.findall(r"\bREPRO_[A-Z][A-Z_]*[A-Z]\b", text))
        assert found == {k.env for k in KNOBS.values()}

    def test_no_module_imports_torch_or_mpi4py(self):
        pattern = re.compile(
            r"^\s*(import|from)\s+(torch|mpi4py)\b"
            r"|import_module\(\s*['\"](torch|mpi4py)", re.MULTILINE)
        hits = [name for name, text in _sources().items()
                if pattern.search(text)]
        assert hits == []
        assert not (SRC / "backend").exists()
        assert not (SRC / "parallel" / "mpi.py").exists()
        assert not (SRC / "util" / "timers.py").exists()

    def test_no_per_knob_resolver_survives(self):
        allowed = {"resolve_injector", "resolve_face_value"}
        pattern = re.compile(
            r"^\s*def\s+(resolve_\w+|validate_backend_name|seed_from_env"
            r"|_env_enabled)\b", re.MULTILINE)
        found = {m.group(1) for text in _sources().values()
                 for m in pattern.finditer(text)}
        assert found <= allowed

    @pytest.mark.parametrize("module", [
        "repro.core.config", "repro.telemetry", "repro.chemistry.implicit", "repro.parallel.comm",
        "repro.parallel.chemlb", "repro.parallel.shm",
        "repro.resilience.distributed", "repro.observability",
    ])
    def test_knob_consumers_import_first_in_a_fresh_interpreter(self, module):
        """``core/config.py`` sits under every layer; none of its
        consumers may depend on ``repro.core`` having been imported."""
        proc = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(SRC.parent), "PATH": ""},
        )
        assert proc.returncode == 0, proc.stderr
