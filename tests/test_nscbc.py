"""The batched characteristic-boundary pass against the per-face pass it
replaced (``tests/nscbc_oracle.py``, frozen verbatim): bitwise on every
face layout the solver meets, and the work it no longer does."""

import numpy as np
import pytest

from repro.chemistry import h2_li2004
from repro.core.config import BoundarySpec
from repro.core.derivatives import DerivativeOperator
from repro.core.grid import Grid
from repro.core.rhs import CompressibleRHS
from repro.core.solver import S3DSolver
from repro.core.state import State
from repro.scenarios import lifted_jet
from repro.telemetry import Telemetry
from repro.transport import ConstantLewisTransport
from repro.util.constants import P_ATM
from tests import nscbc_oracle

pytestmark = pytest.mark.golden

MECH = h2_li2004()
OUT = "nonreflecting_outflow"


def _state(grid, seed=5):
    """Random primitives with flow both into and out of every face."""
    rng = np.random.default_rng(seed)
    S = grid.shape
    T = 900.0 + 600.0 * rng.random(S)
    rho = 0.3 + 0.3 * rng.random(S)
    vel = [40.0 * (rng.random(S) - 0.5) for _ in range(grid.ndim)]
    Y = rng.random((MECH.n_species,) + S) + 0.05
    Y /= Y.sum(axis=0)
    return State.from_primitive(MECH, grid, rho, vel, T, Y)


def _inflow(ny, *, velocity=None, temperature=None):
    y = np.linspace(0.0, 1.0, ny)
    Y = np.tile(np.linspace(0.02, 0.2, MECH.n_species)[:, None], (1, ny))
    Y /= Y.sum(axis=0)
    return BoundarySpec(
        "hard_inflow",
        velocity=velocity or [30.0 + 10.0 * y, 2.0 * y],
        temperature=temperature or 500.0 + 300.0 * y,
        mass_fractions=Y)


def _rhs(grid, boundaries, viscous=True):
    transport = ConstantLewisTransport(MECH) if viscous else None
    return CompressibleRHS(_state(grid), transport=transport, boundaries=boundaries)


def _box2d():
    return Grid((14, 11), (0.01, 0.008), periodic=(False, False))


def _jet():
    solver, _ = lifted_jet(nx=36, ny=24, seed=0)
    return solver.rhs


def _box3d():
    grid = Grid((11, 10, 9), (0.01, 0.009, 0.008), periodic=(False,) * 3)
    bcs = {(a, s): BoundarySpec(OUT, p_inf=P_ATM * (1.0 + 0.01 * a), sigma=0.2 + 0.1 * s)
           for a in range(3) for s in (0, 1)}
    return _rhs(grid, bcs)


def _inviscid():
    bcs = {(0, 0): BoundarySpec(OUT, p_inf=P_ATM), (0, 1): BoundarySpec(OUT, p_inf=P_ATM),
           (1, 0): BoundarySpec(OUT, p_inf=P_ATM, sigma=0.5)}
    return _rhs(_box2d(), bcs, viscous=False)


def _callable_inflow():
    bcs = {(0, 0): _inflow(11, velocity=lambda t: [np.full(11, 30.0 + 100.0 * t),
                                                   np.full(11, -t)]),
           (0, 1): BoundarySpec(OUT, p_inf=P_ATM),
           (1, 0): BoundarySpec(OUT, p_inf=P_ATM, sigma=0.5)}
    return _rhs(_box2d(), bcs)


def _callable_temperature():
    bcs = {(0, 0): _inflow(11, temperature=lambda t: np.full(11, 600.0 + 1e3 * t)),
           (1, 1): BoundarySpec(OUT, p_inf=P_ATM)}
    return _rhs(_box2d(), bcs)


def _outflow_before_inflow():
    # the face y = 0 is corrected before the inflow x = 0 pins their
    # shared corner from d(rho)/dt
    bcs = {(1, 0): BoundarySpec(OUT, p_inf=P_ATM, sigma=0.5), (0, 0): _inflow(11),
           (0, 1): BoundarySpec(OUT, p_inf=P_ATM), (1, 1): BoundarySpec(OUT, p_inf=P_ATM)}
    return _rhs(_box2d(), bcs)


CASES = {"jet": _jet, "box3d_six_faces": _box3d, "inviscid": _inviscid,
         "callable_velocity": _callable_inflow,
         "callable_temperature": _callable_temperature,
         "outflow_before_inflow": _outflow_before_inflow}


def _per_face(rhs, t, du):
    """The frozen per-face pass on the evaluation in progress."""
    ev, ndim = rhs._eval, rhs.ndim
    pc, grads, iy, ns = ev.pc, ev.grads, rhs._idx_y, MECH.n_species
    nscbc_oracle.apply_boundary_conditions(
        rhs, t, du, rho=pc.rho, vel=pc.vel, T=pc.T, p=pc.p, Y=pc.Y,
        grad_rho=[grads[b, -2] for b in range(ndim)],
        grad_p=[grads[b, -1] for b in range(ndim)],
        grad_vel=[[grads[b, a] for b in range(ndim)] for a in range(ndim)],
        grad_y=(np.moveaxis(grads[:, iy : iy + ns], 0, 1)
                if rhs.transport is not None else None))


@pytest.mark.parametrize("case", list(CASES))
def test_batched_pass_is_the_per_face_pass(case):
    rhs = CASES[case]()
    rng = np.random.default_rng(1)
    for t in (0.0, 0.02):
        rhs.begin(t, rhs.state.u)
        rhs.fluxes()
        du = rng.standard_normal(rhs.state.u.shape)
        want = du.copy()
        _per_face(rhs, t, want)
        rhs._nscbc.apply(t, du, rhs._eval.gstack, rhs._eval.grads,
                         rhs._eval.pc.h_i)
        assert np.array_equal(du, want)
        rhs.workspace.end_eval()


class TestWorkPerEvaluation:
    def test_one_thermo_pass_and_no_inflow_energy(self, monkeypatch):
        rhs = _jet()
        mech = rhs.mech
        face_passes, e_int = [], []

        def counted(name, fn):
            def wrapper(T, *args):
                if np.size(T) == rhs._nscbc.n:
                    face_passes.append(name)
                return fn(T, *args)
            return wrapper

        for name in ("cp_molar", "enthalpy_molar", "enthalpy_cp_molar"):
            monkeypatch.setattr(mech.thermo, name,
                                counted(name, getattr(mech.thermo, name)))
        monkeypatch.setattr(mech, "int_energy_mass",
                            lambda *a: e_int.append(1))
        rhs(0.0, rhs.state.u)
        # three characteristic faces, one NASA-7 cp pass (their h is the
        # field's); the constant inflow's energy was folded when the
        # faces were planned
        assert face_passes == ["cp_molar"]
        assert not e_int

    def test_inviscid_faces_add_no_sweep(self, monkeypatch):
        rhs = _inviscid()
        sweeps = []
        dispatch = DerivativeOperator._dispatch
        monkeypatch.setattr(DerivativeOperator, "_dispatch",
                            lambda *a: (sweeps.append(1), dispatch(*a))[1])
        rhs(0.0, rhs.state.u)
        # one gradient-stack and one flux-stack sweep per direction
        assert len(sweeps) == 2 * rhs.ndim

    def test_traced_jet_is_bitwise_the_untraced_jet(self):
        states, counts = [], {}
        for tel in (None, Telemetry()):
            solver, _ = lifted_jet(nx=36, ny=24, seed=0)
            s = S3DSolver(solver.state, solver.config, transport=solver.rhs.transport,
                          reacting=True, telemetry=tel)
            for _ in range(2):
                s.step()
            states.append(s.state.u)
            if tel is not None:
                spans = tel.snapshot()["spans"]
                counts = {k: spans[k]["count"] for k in ("NSCBC", "FLUX_ASSEMBLY")}
        assert np.array_equal(*states)
        # per evaluation (5 per ck45 step): one boundary pass, one flux
        # stack per direction
        assert counts == {"NSCBC": 10, "FLUX_ASSEMBLY": 20}
