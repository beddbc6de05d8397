"""Tests for the scaled DNS scenario builders (construction + short
advancement; the full physics checks live in the benchmarks)."""

import hashlib
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro import scenarios
from repro.scenarios import (
    bunsen_mixture,
    fuel_and_coflow,
    lifted_jet,
    premixed_flame_box,
)
from repro.analysis.golden import summarize_solver
from repro.chemistry import ch4_twostep
from repro.util.constants import P_ATM
from tests.helpers import mole_fractions


class TestStreams:
    def test_fuel_composition(self):
        from repro.chemistry import h2_li2004

        mech = h2_li2004()
        y_fuel, y_air = fuel_and_coflow(mech)
        assert y_fuel.sum() == pytest.approx(1.0)
        assert y_air.sum() == pytest.approx(1.0)
        X = mole_fractions(mech, y_fuel)
        assert X[mech.index("H2")] == pytest.approx(0.65, rel=1e-9)

    def test_bunsen_equivalence_ratio(self):
        mech = ch4_twostep()
        Y = bunsen_mixture(mech, phi=0.7)
        X = mole_fractions(mech, Y)
        # phi = 2 X_CH4 / X_O2 for CH4 + 2 O2
        phi = 2 * X[mech.index("CH4")] / X[mech.index("O2")]
        assert phi == pytest.approx(0.7, rel=1e-2)


class TestLiftedJet:
    @pytest.fixture(autouse=True)
    def _half_domain(self, monkeypatch):
        monkeypatch.setattr(scenarios, "JET_DOMAIN", (2e-3, 1.5e-3))

    def test_initial_state_sane(self):
        solver, info = lifted_jet(nx=32, ny=24)
        rho, vel, T, p, Y, _ = solver.state.primitives()
        assert T.min() > 350.0 and T.max() < 1350.0
        assert vel[0].max() > 30.0  # jet core
        np.testing.assert_allclose(Y.sum(axis=0), 1.0, atol=1e-12)

    def test_short_advance_stable(self):
        solver, info = lifted_jet(nx=32, ny=24)
        for _ in range(10):
            solver.step()
        _, _, T, p, _, _ = solver.state.primitives()
        assert np.isfinite(T).all()
        assert T.max() < 2000.0  # no spurious early ignition

    def test_inflow_holds(self):
        """The jet core at the inflow stays pinned; the transverse filter
        may smooth the shear layers slightly (bounded erosion)."""
        solver, info = lifted_jet(nx=32, ny=24, fluct=0.0)
        u_in = solver.state.primitives()[1][0][0].copy()
        for _ in range(10):
            solver.step()
        u_now = solver.state.primitives()[1][0][0]
        core = np.argmax(u_in)
        assert u_now[core] == pytest.approx(u_in[core], rel=1e-2)
        assert np.abs(u_now - u_in).max() < 0.15 * u_in.max()


class TestLiftedJetStateHashes:
    """sha256 of the conserved state after a few steps of the 36 x 24 jet:
    a refactor of the explicit or the Strang path must be invisible to
    the last bit. The explicit value is
    ``benchmarks/bench_implicit.py::GOLDEN_EXPLICIT_HASH`` (same run);
    like it, these depend on the platform's libm only through
    exp/log/pow. The three move together, once, in a PR whose title says
    so (docs/TESTING.md): ``python benchmarks/regen_goldens.py --pins``
    computes them, ``--pins --check`` compares them with the constants.
    Last moved in PR 23 (per-cell Newton on the folded NASA-7 polynomial;
    ``stable_dt``'s property evaluation is stage 1's)."""

    EXPLICIT_5_STEPS = "8b27330a3272f3dafd33948ac79dffd1ed62b6bb9ad86995951b906dd5c7468b"
    STRANG_3_STEPS = "e03224753fad21baa8cb8cd6386f1572e556c627de72246db4063a6ded9b8909"

    @staticmethod
    def _hash_after(steps, **kwargs):
        solver, _ = lifted_jet(nx=36, ny=24, seed=0, **kwargs)
        for _ in range(steps):
            solver.step()
        return hashlib.sha256(solver.state.u.tobytes()).hexdigest()

    @classmethod
    def explicit_hash(cls):
        return cls._hash_after(5)

    @classmethod
    def strang_hash(cls):
        return cls._hash_after(
            3, fluct=0.0, p=100.0 * P_ATM, chemistry_mode="strang"
        )

    def test_explicit_nscbc_jet(self):
        assert self.explicit_hash() == self.EXPLICIT_5_STEPS

    def test_stiff_strang_jet(self):
        assert self.strang_hash() == self.STRANG_3_STEPS


class TestObserversLeaveNoTrace:
    """Looking at a live solver changes no bit of any later step: the
    decoders observers use start from the Newton warm-start cache but do
    not refresh it (only RHS evaluations do)."""

    STRANG = dict(fluct=0.0, p=100.0 * P_ATM, chemistry_mode="strang")

    @staticmethod
    def _run(observe, **kwargs):
        solver, _ = lifted_jet(nx=36, ny=24, seed=0, **kwargs)
        for step in range(4):
            solver.step()
            if observe and step == 1:
                summarize_solver(solver, ("H2", "OH"))
                solver.state.primitives()
        return solver.state.u

    @pytest.mark.parametrize("kwargs", [{}, STRANG], ids=["explicit", "strang"])
    def test_observed_run_is_bitwise_the_undisturbed_run(self, kwargs):
        assert np.array_equal(self._run(True, **kwargs),
                              self._run(False, **kwargs))


class TestPremixedBox:
    @pytest.fixture(scope="class")
    def box(self):
        mech = ch4_twostep()
        y_b = np.zeros(mech.n_species)
        y_b[mech.index("CO2")] = 0.10
        y_b[mech.index("H2O")] = 0.09
        y_b[mech.index("N2")] = 0.81
        return premixed_flame_box(
            u_rms_over_sl=3.0, sl=3.3, delta_l=4.3e-4, t_burned=2230.0,
            y_burned=y_b, n=32, seed=0,
        )

    def test_two_fronts_present(self, box):
        solver, info = box
        _, _, T, _, _, _ = solver.state.primitives()
        mid = T[:, T.shape[1] // 2]
        edge = T[:, 0]
        assert mid.mean() < 900.0     # fresh band is cold
        assert edge.mean() > 2000.0   # products outside

    def test_velocity_rms_matches(self, box):
        solver, info = box
        _, vel, _, _, _, _ = solver.state.primitives()
        rms = np.sqrt(np.mean([np.mean((v - v.mean()) ** 2) for v in vel]))
        assert rms == pytest.approx(3.0 * 3.3, rel=0.05)

    def test_short_advance_stable(self, box):
        solver, info = box
        for _ in range(5):
            solver.step()
        _, _, T, _, _, _ = solver.state.primitives()
        assert np.isfinite(T).all()
        assert 600.0 < T.max() < 3200.0


#: (what runs in a fresh interpreter, what must not have been imported)
_IMPORT_DIETS = {
    # SciPy serves the 0-d reactors and the laminar-flame analysis;
    # importing it costs 0.45 s and 54 MB that no time step uses
    "time_step": (
        "import repro.scenarios as sc\n"
        "solver, _ = sc.lifted_jet(nx=24, ny=16)\n"
        "solver.step()\n",
        ("scipy",)),
    # urllib.request + http.server + ssl are 7.6 MB and ~30 ms that no
    # supervised run uses, so the supervisor, both rings and both
    # solvers must not drag them in through ``repro.observability``
    "supervised_run": (
        "import repro.scenarios as sc, repro.parallel.solver\n"
        "import repro.resilience.distributed, repro.resilience.checkpoint\n"
        "from repro.io import SimFileSystem, lustre\n"
        "solver, _ = sc.lifted_jet(nx=24, ny=16)\n"
        "solver.run_resilient(SimFileSystem(lustre()), 2)\n",
        ("http.server", "urllib.request", "ssl", "scipy")),
}


class TestSolverImportPath:
    @pytest.mark.parametrize("case", sorted(_IMPORT_DIETS))
    def test_a_time_step_never_imports_scipy(self, case):
        """What a run does not use stays off its import path, from
        ``import repro.scenarios`` through a solver build to the last
        step (fresh interpreter)."""
        body, banned = _IMPORT_DIETS[case]
        code = (
            "import sys\n" + body +
            f"loaded = sorted(m for m in sys.modules if any(\n"
            f"    m == b or m.startswith(b + '.') for b in {banned!r}))\n"
            "assert not loaded, loaded[:5]\n"
        )
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=300, env={"PYTHONPATH": str(src), "PATH": ""},
        )
        assert proc.returncode == 0, proc.stderr
