"""Implicit stiff kinetics and Strang splitting: order and invariants.

Three layers of evidence that the implicit chemistry path is correct:

* **0-D order of accuracy** — the per-cell Rosenbrock-W integrator
  converges at second order against a tight
  :func:`scipy.integrate.solve_ivp` reference on post-front
  constant-volume ignition windows for H2/air and two-step methane.  The windows are chosen past
  the thin ignition front (where any one-step error-vs-dt study is
  meaningless) but before equilibrium (where every method is exact).
* **1-D Strang order** — the symmetric split
  ``chem(dt/2) -> transport(dt) -> chem(dt/2)`` on the full solver
  converges at second order in the *outer* dt on a reacting 1-D
  problem.  The study pins the substep count per half-step
  (:attr:`~repro.chemistry.implicit.ImplicitChemistry.fixed_substeps`)
  so the measured error scales with dt rather than through the adaptive
  controller's discrete accept/reject decisions, which impose a
  dt-independent error floor.
* **Invariants** (Hypothesis) — determinism, batch-shape/order bitwise
  independence, unit mass-fraction sums, and elemental conservation
  hold on randomized flame-like states.

Plus the split-vs-unsplit contract: below the explicit stability limit
the Strang solution must agree with the explicit-chemistry solution to
golden tolerance, and the serial/parallel + load-balancing equivalences
of the explicit path carry over to the Strang path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst
from scipy.integrate import solve_ivp

from repro.analysis.golden import burned_methane_state
from repro.chemistry import ImplicitChemistry, SourceTermJacobian, implicit
from repro.core import Grid, S3DSolver, SolverConfig, State
from repro.core.config import periodic_boundaries
from repro.core.solver import strang_reactor_inputs
from repro.scenarios import bunsen_mixture, lifted_jet
from repro.telemetry import Telemetry
from repro.transport import ConstantLewisTransport
from repro.util.constants import P_ATM

pytestmark = pytest.mark.implicit

#: acceptance window for a measured convergence order of a 2nd-order
#: method — wide enough for pre-asymptotic drift on the coarsest pair
ORDER_LO, ORDER_HI = 1.7, 2.7


# ----------------------------------------------------------------------
# 0-D order of accuracy vs a tight reference
# ----------------------------------------------------------------------

def _reference_window(mech, T0, ymap, t_skip, t_win):
    """Integrate past the ignition front, then build a tight reference.

    Returns ``(z_start, z_ref, rho)`` where ``z = [Y_1..Y_Ns, T]``: the
    state at ``t_skip`` and the state one window ``t_win`` later, both
    from LSODA at rtol 1e-11/1e-12 on the same constant-volume source
    term the implicit integrator uses (so the comparison isolates
    time-integration error), at the density of the 1 atm mixture.
    """
    ns = mech.n_species
    stj = SourceTermJacobian(mech)
    Y0 = mech.mass_fractions_from(ymap)
    Y0 = Y0 / Y0.sum()
    rho = np.array([mech.density(P_ATM, T0, Y0)])

    def f_ode(t, zf):
        z = zf.reshape(ns + 1, 1)
        return stj.source(z[ns], z[:ns], rho=rho).ravel()

    z0 = np.concatenate([Y0, [T0]])
    pre = solve_ivp(f_ode, (0.0, t_skip), z0, method="LSODA",
                    rtol=1e-11, atol=1e-14)
    assert pre.success
    zs = pre.y[:, -1]
    ref = solve_ivp(f_ode, (0.0, t_win), zs, method="LSODA",
                    rtol=1e-12, atol=1e-15)
    assert ref.success
    return zs, ref.y[:, -1], rho


def _zero_d_errors(mech, method, window, t_win, steps):
    """Fixed-step window errors in a scaled RMS norm, one per count."""
    ns = mech.n_species
    zs, zref, rho = window
    integ = ImplicitChemistry(mech, method=method)
    w = np.maximum(np.abs(zref), 1e-6)
    w[-1] = np.abs(zref[-1])
    errs = []
    for k in steps:
        integ.fixed_substeps = k
        T1, Y1, _ = integ.advance(zs[-1:].copy(), zs[:ns][:, None].copy(),
                                  t_win, rho)
        z1 = np.concatenate([Y1[:, 0], T1])
        errs.append(float(np.sqrt((((z1 - zref) / w) ** 2).mean())))
    return errs


def _orders(errs):
    return [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]


class TestZeroDOrder:
    """rosw2 is 2nd order on both mechanisms."""

    STEPS = [10, 20, 40, 80, 160]

    @pytest.fixture(scope="class")
    def h2_window(self, h2_mech):
        # 1200 K lean H2/air at constant volume: the front sits near
        # 4.5e-5 s, so start the window at 4.8e-5 s (post-front heat
        # release, ~2240 -> 2740 K)
        return _reference_window(
            h2_mech, 1200.0,
            {"H2": 0.028522, "O2": 0.226377, "N2": 0.745101},
            4.8e-5, 1e-5)

    @pytest.fixture(scope="class")
    def ch4_window(self, ch4_mech):
        # 1800 K two-step methane: much faster front; the window spans
        # the CO burnout shoulder (~2140 -> 2930 K)
        return _reference_window(
            ch4_mech, 1800.0,
            {"CH4": 0.055, "O2": 0.22, "N2": 0.725},
            2e-6, 1e-6)

    @pytest.mark.parametrize("method", ["rosw2"])
    def test_h2(self, h2_mech, h2_window, method):
        errs = _zero_d_errors(h2_mech, method, h2_window, 1e-5, self.STEPS)
        assert all(a > b for a, b in zip(errs, errs[1:]))
        orders = _orders(errs)
        assert all(ORDER_LO < o < ORDER_HI for o in orders), orders
        # asymptotic pair must be clean 2nd order
        assert 1.9 < orders[-1] < 2.1, orders

    @pytest.mark.parametrize("method", ["rosw2"])
    def test_ch4(self, ch4_mech, ch4_window, method):
        errs = _zero_d_errors(ch4_mech, method, ch4_window, 1e-6, self.STEPS)
        assert all(a > b for a, b in zip(errs, errs[1:]))
        orders = _orders(errs)
        assert all(ORDER_LO < o < ORDER_HI for o in orders), orders
        assert 1.8 < orders[-1] < 2.2, orders


# ----------------------------------------------------------------------
# 1-D Strang splitting: 2nd order in the outer dt
# ----------------------------------------------------------------------

def _hot_spot_solver(mech, chemistry_mode, fixed_substeps=None):
    """32-cell periodic 1-D H2/air domain with a Gaussian hot spot."""
    grid = Grid((32,), (2e-3,), periodic=(True,))
    x = grid.coords[0]
    T = 1000.0 + 400.0 * np.exp(-((x - 1e-3) ** 2) / (2 * (2.5e-4) ** 2))
    Y = mech.mass_fractions_from({"H2": 0.0285, "O2": 0.2264, "N2": 0.7451})
    Yf = Y[:, None] * np.ones((1, 32))
    rho = mech.density(P_ATM, T, Yf)
    state = State.from_primitive(mech, grid, rho, [0.5], T, Yf)
    cfg = SolverConfig(boundaries=periodic_boundaries(1), dt=1e-8,
                       filter_interval=0, scheme="ck45",
                       chemistry_mode=chemistry_mode)
    solver = S3DSolver(state, cfg, transport=ConstantLewisTransport(mech),
                       reacting=True)
    if fixed_substeps is not None:
        solver._chem.fixed_substeps = fixed_substeps
    return solver


def _run_strang(mech, dt, nsteps, fixed_substeps):
    solver = _hot_spot_solver(mech, "strang", fixed_substeps)
    for _ in range(nsteps):
        solver.step(dt)
    return solver.state.u


class TestStrangOrder1D:
    @pytest.mark.slow
    def test_second_order_in_outer_dt(self, h2_mech):
        # fixed substeps per half-step: the split error under study is
        # the O(dt^2) non-commutator term, not the inner solver's
        # adaptive-controller hysteresis (which has a dt-independent
        # floor that would flatten the convergence curve)
        dt0, n0 = 4e-8, 32
        u_ref = _run_strang(h2_mech, dt0 / 16, n0 * 16, fixed_substeps=4)
        scale = np.abs(u_ref).reshape(u_ref.shape[0], -1).max(axis=1)
        errs = []
        for refine in (1, 2, 4):
            u = _run_strang(h2_mech, dt0 / refine, n0 * refine,
                            fixed_substeps=4)
            diff = np.abs(u - u_ref).reshape(u.shape[0], -1).max(axis=1)
            errs.append(float((diff / np.maximum(scale, 1e-300)).max()))
        assert all(a > b for a, b in zip(errs, errs[1:]))
        orders = _orders(errs)
        assert all(1.8 < o < 2.4 for o in orders), (errs, orders)


class TestStrangMatchesExplicit:
    def test_golden_tolerance_below_stability_limit(self, h2_mech):
        # dt = 2e-8 is far below the chemical stability limit of this
        # mild initial state (max Gershgorin rate ~1.3e4 /s, so
        # dt_chem ~ 7e-5 s): both paths resolve the same dynamics and
        # must agree to a golden tolerance, not just qualitatively
        dt, nsteps = 2e-8, 10
        exp = _hot_spot_solver(h2_mech, "explicit")
        spl = _hot_spot_solver(h2_mech, "strang")
        for _ in range(nsteps):
            exp.step(dt)
            spl.step(dt)
        _, _, T_e, _, Y_e, _ = exp.state.primitives()
        _, _, T_s, _, Y_s, _ = spl.state.primitives()
        assert np.abs(T_s - T_e).max() < 1e-5  # Kelvin
        assert np.abs(Y_s - Y_e).max() < 1e-7


# ----------------------------------------------------------------------
# invariants on randomized flame-like states
# ----------------------------------------------------------------------

def _flame_states(mech, seed, n_cells):
    """Mild flame-like batch: major species plus trace radicals, with the
    density of each cell at 1 atm. Returns ``(T, Y, rho)``."""
    rng = np.random.default_rng(seed)
    ns = mech.n_species
    base = mech.mass_fractions_from({"H2": 0.0285, "O2": 0.2264,
                                     "N2": 0.7451})
    Y = base[:, None] * rng.uniform(0.8, 1.2, (ns, n_cells))
    Y += rng.uniform(0.0, 1e-6, (ns, n_cells))  # trace radicals
    Y /= Y.sum(axis=0)
    T = rng.uniform(700.0, 1600.0, n_cells)
    return T, Y, mech.density(P_ATM, T, Y)


_seeds = hst.integers(min_value=0, max_value=2**31 - 1)
_settings = settings(max_examples=8, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


class TestInvariants:
    @given(seed=_seeds)
    @_settings
    def test_deterministic(self, h2_mech, seed):
        T, Y, rho = _flame_states(h2_mech, seed, 12)
        integ = ImplicitChemistry(h2_mech)
        T1, Y1, _ = integ.advance(T.copy(), Y.copy(), 2e-8, rho)
        T2, Y2, _ = integ.advance(T.copy(), Y.copy(), 2e-8, rho)
        np.testing.assert_array_equal(T1, T2)
        np.testing.assert_array_equal(Y1, Y2)

    @given(seed=_seeds)
    @_settings
    def test_batch_order_independent(self, h2_mech, seed):
        # permuting the batch permutes the answer bitwise, and a
        # single-cell solve reproduces its batched counterpart bitwise:
        # no cross-cell coupling leaks through the batched linear algebra
        T, Y, rho = _flame_states(h2_mech, seed, 12)
        integ = ImplicitChemistry(h2_mech)
        T1, Y1, _ = integ.advance(T.copy(), Y.copy(), 2e-8, rho)
        perm = np.random.default_rng(seed + 1).permutation(12)
        T1p, Y1p, _ = integ.advance(T[perm].copy(), Y[:, perm].copy(),
                                    2e-8, rho[perm])
        np.testing.assert_array_equal(T1p, T1[perm])
        np.testing.assert_array_equal(Y1p, Y1[:, perm])
        c = int(perm[0])
        T1s, Y1s, _ = integ.advance(T[c:c + 1].copy(), Y[:, c:c + 1].copy(),
                                    2e-8, rho[c:c + 1])
        np.testing.assert_array_equal(T1s, T1[c:c + 1])
        np.testing.assert_array_equal(Y1s, Y1[:, c:c + 1])

    @given(seed=_seeds)
    @_settings
    def test_mass_fraction_sum_preserved(self, h2_mech, seed):
        T, Y, rho = _flame_states(h2_mech, seed, 16)
        _, Y1, _ = ImplicitChemistry(h2_mech).advance(T, Y, 2e-8, rho)
        assert np.abs(Y1.sum(axis=0) - 1.0).max() < 1e-12

    @given(seed=_seeds)
    @_settings
    def test_elements_conserved(self, h2_mech, seed):
        T, Y, rho = _flame_states(h2_mech, seed, 16)
        _, Y1, _ = ImplicitChemistry(h2_mech).advance(T, Y, 2e-8, rho)
        z0 = h2_mech.element_mass_fractions(Y)
        z1 = h2_mech.element_mass_fractions(Y1)
        assert np.abs(z1 - z0).max() < 1e-12


# ----------------------------------------------------------------------
# parallel Strang path: serial equivalence and load-balancer invariance
# ----------------------------------------------------------------------

@pytest.mark.chemlb
class TestParallelStrang:
    """Strang inherits the explicit path's parallel contracts."""

    NSTEPS = 3
    DT = 1e-7

    @pytest.fixture(scope="class")
    def setup_2d(self, h2_mech):
        mech = h2_mech
        grid = Grid((24, 24), (2e-3, 2e-3), periodic=(True, True))
        xx, yy = grid.meshgrid()
        T = 900.0 + 600.0 * np.exp(
            -((xx - 1e-3) ** 2 + (yy - 1e-3) ** 2) / (2 * (3e-4) ** 2))
        Y = mech.mass_fractions_from({"H2": 0.0285, "O2": 0.2264,
                                      "N2": 0.7451})
        Yf = Y[:, None, None] * np.ones((1, 24, 24))
        rho = mech.density(P_ATM, T, Yf)
        state = State.from_primitive(mech, grid, rho, [1.0, 0.5], T, Yf)
        return mech, grid, state, ConstantLewisTransport(mech)

    def _run_parallel(self, setup, policy):
        from repro.parallel import CartesianDecomposition, InProcessTransport
        from repro.parallel.solver import ParallelPeriodicSolver

        mech, grid, state, tr = setup
        world = InProcessTransport(4)
        decomp = CartesianDecomposition((24, 24), (2, 2),
                                        periodic=(True, True))
        par = ParallelPeriodicSolver(mech, grid, decomp, world,
                                     transport=tr, reacting=True,
                                     scheme="ck45", filter_alpha=0.2,
                                     chemistry_mode="strang",
                                     chem_load_balance=policy,
                                     chemlb_threshold=1.02)
        par.set_state(state.u)
        for _ in range(self.NSTEPS):
            par.step(self.DT)
        return par.gather_state(), par

    @pytest.fixture(scope="class")
    def parallel_off(self, setup_2d):
        return self._run_parallel(setup_2d, "off")

    def test_matches_serial(self, setup_2d, parallel_off):
        # the serial twin starts as the ranks do — from the conserved
        # array alone, no warm Newton cache — and then every bit agrees
        mech, grid, state, tr = setup_2d
        cfg = SolverConfig(boundaries=periodic_boundaries(2), dt=self.DT,
                           filter_interval=1, filter_alpha=0.2,
                           scheme="ck45", chemistry_mode="strang")
        serial = S3DSolver(State(mech, grid, state.u.copy()), cfg,
                           transport=tr, reacting=True)
        for _ in range(self.NSTEPS):
            serial.step()
        u_par, _ = parallel_off
        assert np.array_equal(u_par, serial.state.u)

    @pytest.mark.parametrize("policy", ["greedy", "pairwise-diffusion"])
    def test_load_balancing_is_bitwise_invisible(self, setup_2d,
                                                 parallel_off, policy):
        # shipping implicit solves to other ranks must not change a
        # single bit of the answer — only where the work runs
        u_off, _ = parallel_off
        u_lb, par = self._run_parallel(setup_2d, policy)
        np.testing.assert_array_equal(u_lb, u_off)
        # and work actually moved: the hot spot makes rank loads uneven
        assert par.chemlb.last_plan.cells_shipped > 0


# ----------------------------------------------------------------------
# frozen oracle: the batch loop that evaluates everything every round
# ----------------------------------------------------------------------
#
# `_oracle_*` below are the adaptive loop and the trial-step kernel as
# they stood before the f(z0) cache and the Jacobian-retention rule
# (PR 13): every round re-evaluates source(z0) on every live cell and
# every rejection refreshes the Jacobian. They are test-only and kept
# verbatim apart from counting the cells they evaluate; the production
# loop must reproduce their results bit for bit and do exactly the work
# they do minus what the two rules save.

def _oracle_rosw2_step(ic, z0, h, jac, rho):
    ns, n = ic.stj.ns, ic.stj.n
    M = (-(implicit._ROS_GAMMA) * h)[:, None, None] * jac
    M[:, np.arange(n), np.arange(n)] += 1.0
    lu, piv = implicit.batched_lu_factor(M)
    f0 = ic.stj.source(z0[ns], z0[:ns], rho=rho)
    k1 = implicit.batched_lu_solve(lu, piv, f0.T).T
    z_mid = z0 + h[None] * k1
    f1 = ic.stj.source(z_mid[ns], z_mid[:ns], rho=rho)
    k2 = implicit.batched_lu_solve(lu, piv, (f1 - 2.0 * k1).T).T
    z_new = z0 + (0.5 * h)[None] * (3.0 * k1 + k2)
    err = (0.5 * h)[None] * (k1 + k2)
    fail = ~np.isfinite(z_new).all(axis=0)
    return z_new, err, fail, 2 * z0.shape[1]


def _oracle_advance(ic, T, Y, dt, rho):
    """Returns ``(T1, Y1, work)`` with ``work`` the oracle's counts. Of
    the rejections, ``retainable`` had a Jacobian evaluated at the state
    the cell retries from."""
    rho = np.broadcast_to(np.asarray(rho, dtype=float), T.shape)
    z = np.concatenate([Y, T[None]], axis=0)
    ns, n = ic.stj.ns, ic.stj.n
    N = z.shape[1]
    t = np.zeros(N)
    h = np.full(N, dt)
    substeps = np.zeros(N, dtype=np.int64)
    jac = np.zeros((N, n, n))
    jac_age = np.full(N, ic.JAC_REUSE_LIMIT, dtype=np.int64)
    rejected = factorizations = reuses = 0
    source_cells = jacobian_cells = retainable = 0
    active = np.nonzero(t < dt * (1.0 - 1e-12))[0]
    while active.size:
        hA = np.minimum(h[active], dt - t[active])
        need = jac_age[active] >= ic.JAC_REUSE_LIMIT
        if need.any():
            idx = active[need]
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                jac[idx] = ic.stj.jacobian(z[ns, idx], z[:ns, idx],
                                           rho=rho[idx])
            jac_age[idx] = 0
            jacobian_cells += int(idx.size)
        reuses += int((~need).sum())
        factorizations += int(active.size)
        zA = z[:, active]
        wts = ic._weights(zA)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            z_new, err, fail, nsrc = _oracle_rosw2_step(
                ic, zA, hA, jac[active], rho[active]
            )
            source_cells += nsrc
            enorm = ic._error_norm(err, wts)
        bad = fail | ~np.isfinite(enorm) | ~np.isfinite(z_new).all(axis=0)
        ok = (enorm <= 1.0) & ~bad
        acc = active[ok]
        z[:, acc] = z_new[:, ok]
        t[acc] += hA[ok]
        substeps[acc] += 1
        retainable += int((jac_age[active[~ok]] == 0).sum())
        jac_age[acc] += 1
        rejected += int((~ok).sum())
        jac_age[active[~ok]] = ic.JAC_REUSE_LIMIT
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            fac = ic.SAFETY * enorm**-0.5
        fac = np.where(np.isfinite(fac), fac, 5.0)
        fac = np.clip(fac, 0.2, 5.0)
        fac = np.where(bad, 0.25, fac)
        h[active] = hA * fac
        active = np.nonzero(t < dt * (1.0 - 1e-12))[0]
    work = dict(substeps=substeps, rejected=rejected,
                factorizations=factorizations,
                jacobian_reuses=reuses, source_cells=source_cells,
                jacobian_cells=jacobian_cells, retainable=retainable)
    return z[ns], z[:ns], work


def _oracle_lu_factor(a):
    """The LU kernel that swaps at every elimination step, needed or not."""
    lu = np.array(a, dtype=float, copy=True)
    N, n, _ = lu.shape
    piv = np.empty((N, n), dtype=np.int64)
    rows = np.arange(N)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n):
            p = np.abs(lu[:, k:, k]).argmax(axis=1) + k
            piv[:, k] = p
            tmp = lu[rows, p, :].copy()
            lu[rows, p, :] = lu[rows, k, :]
            lu[rows, k, :] = tmp
            if k + 1 < n:
                lu[:, k + 1 :, k] /= lu[:, k, None, k]
                lu[:, k + 1 :, k + 1 :] -= (
                    lu[:, k + 1 :, k, None] * lu[:, k, None, k + 1 :]
                )
    return lu, piv


def _oracle_lu_solve(lu, piv, b):
    x = np.array(b, dtype=float, copy=True)
    N, n = x.shape
    rows = np.arange(N)
    for k in range(n):
        p = piv[:, k]
        tmp = x[rows, p].copy()
        x[rows, p] = x[rows, k]
        x[rows, k] = tmp
    for k in range(1, n):
        x[:, k] -= (lu[:, k, :k] * x[:, :k]).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n - 1, -1, -1):
            if k + 1 < n:
                x[:, k] -= (lu[:, k, k + 1 :] * x[:, k + 1 :]).sum(axis=1)
            x[:, k] /= lu[:, k, k]
    return x


class TestBatchedLU:
    """Skipping the no-op row swaps changes no factor and no solution."""

    @pytest.mark.parametrize("pivoting", ["none", "some", "all"])
    @pytest.mark.parametrize("N", [1, 7, 70])
    def test_bitwise_vs_always_swapping_kernel(self, rng, N, pivoting):
        n = 10
        A = rng.normal(size=(N, n, n))
        if pivoting == "none":  # diagonally dominant: p == k throughout
            A = np.eye(n)[None] - 0.02 * A
        elif pivoting == "some":  # only the odd matrices pivot
            A[::2] = np.eye(n)[None] - 0.02 * A[::2]
        b = rng.normal(size=(N, n))
        lu, piv = implicit.batched_lu_factor(A)
        want_lu, want_piv = _oracle_lu_factor(A)
        assert np.array_equal(piv, want_piv)
        assert np.array_equal(lu, want_lu)
        swapped = (piv != np.arange(n)).any()
        assert swapped == (pivoting != "none") or N == 1
        x = implicit.batched_lu_solve(lu, piv, b)
        assert np.array_equal(x, _oracle_lu_solve(want_lu, want_piv, b))
        np.testing.assert_allclose(x, np.linalg.solve(A, b[..., None])[..., 0],
                                   rtol=1e-8, atol=1e-10)


@pytest.fixture(scope="module")
def stiff_h2_cells():
    """Every cell of the 100 atm lifted jet, three Strang steps in."""
    solver, _ = lifted_jet(nx=36, ny=24, seed=0, fluct=0.0, p=100.0 * P_ATM,
                           chemistry_mode="strang")
    for _ in range(3):
        solver.step()
    st = solver.state
    rho, e, Y = strang_reactor_inputs(st.u, st.ndim, st.mech.n_species)
    return st.mech, rho, st.mech.temperature_from_energy(e, Y), Y, 6.0e-8


@pytest.fixture(scope="module")
def stiff_ch4_cells(ch4_mech):
    """A 100 atm lean CH4/air flame brush, fresh gas to products."""
    mech = ch4_mech
    t_b, y_b = burned_methane_state(mech)
    y_u = bunsen_mixture(mech, 0.7)
    c = np.linspace(0.0, 1.0, 48) ** 2
    Y = (1.0 - c)[None] * y_u[:, None] + c[None] * y_b[:, None]
    Y[mech.index("CO")] += 1e-3 * np.sin(np.arange(c.size)) ** 2
    Y /= Y.sum(axis=0)
    T = 900.0 + (t_b - 900.0) * c
    return mech, mech.density(100.0 * P_ATM, T, Y), T, Y, 2.0e-8


def _assert_same_integration(stats, T1, Y1, want_T1, want_Y1, want):
    assert np.array_equal(T1, want_T1)
    assert np.array_equal(Y1, want_Y1)
    assert np.array_equal(stats.substeps, want["substeps"])
    assert (stats.rejected, stats.factorizations) == (
        want["rejected"], want["factorizations"])


class TestFrozenOracle:
    """The production batch loop against the loop that redoes everything."""

    @pytest.fixture(params=["h2", "ch4"])
    def cells(self, request):
        return request.getfixturevalue(f"stiff_{request.param}_cells")

    @pytest.mark.parametrize("method", ["rosw2"])
    def test_bitwise_and_exact_work(self, cells, method):
        mech, rho, T, Y, dt = cells
        ic = ImplicitChemistry(mech, method=method)
        want_T1, want_Y1, want = _oracle_advance(ic, T.copy(), Y.copy(), dt, rho)
        T1, Y1, stats = ic.advance(T.copy(), Y.copy(), dt, rho=rho)
        _assert_same_integration(stats, T1, Y1, want_T1, want_Y1, want)
        assert want["rejected"] > 0 and want["retainable"] > 0  # both rules bite
        # every retry reuses f(z0), which each trial step needs
        assert stats.source_cells == want["source_cells"] - want["rejected"]
        assert stats.jacobian_cells == want["jacobian_cells"] - want["retainable"]
        assert stats.jacobian_reuses == want["jacobian_reuses"] + want["retainable"]

    @pytest.mark.parametrize("method", ["rosw2"])
    def test_single_cell_and_permuted(self, cells, method):
        mech, rho, T, Y, dt = cells
        ic = ImplicitChemistry(mech, method=method)
        want_T1, want_Y1, want = _oracle_advance(ic, T.copy(), Y.copy(), dt, rho)
        hardest = int(np.argmax(want["substeps"]))
        for idx in (np.array([hardest]),
                    np.random.default_rng(3).permutation(T.size)):
            T1, Y1, stats = ic.advance(T[idx].copy(), Y[:, idx].copy(), dt,
                                       rho=rho[idx])
            assert np.array_equal(T1, want_T1[idx])
            assert np.array_equal(Y1, want_Y1[:, idx])
            assert np.array_equal(stats.substeps, want["substeps"][idx])

    @given(data=hst.data())
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    def test_sub_batches(self, stiff_h2_cells, data):
        mech, rho, T, Y, dt = stiff_h2_cells
        idx = np.array(data.draw(hst.lists(
            hst.integers(0, T.size - 1), min_size=1, max_size=24, unique=True)))
        ic = ImplicitChemistry(mech)
        want_T1, want_Y1, want = _oracle_advance(
            ic, T[idx].copy(), Y[:, idx].copy(), dt, rho[idx])
        T1, Y1, stats = ic.advance(T[idx].copy(), Y[:, idx].copy(), dt,
                                   rho=rho[idx])
        _assert_same_integration(stats, T1, Y1, want_T1, want_Y1, want)

    def test_counters_reach_telemetry(self, stiff_h2_cells):
        mech, rho, T, Y, dt = stiff_h2_cells
        tel = Telemetry()
        ic = ImplicitChemistry(mech, telemetry=tel)
        _, _, stats = ic.advance(T[:96].copy(), Y[:, :96].copy(), dt,
                                 rho=rho[:96])
        counters = tel.snapshot()["metrics"]["counters"]
        assert counters["chem.implicit.source_cells"] == stats.source_cells
        assert counters["chem.implicit.jacobian_cells"] == stats.jacobian_cells
        assert stats.source_cells > 0 and stats.jacobian_cells > 0


class TestRoundLimits:
    def test_errors_name_the_live_cells(self, stiff_h2_cells):
        mech, rho, T, Y, dt = stiff_h2_cells
        class _OneRound(ImplicitChemistry):
            MAX_SUBSTEPS = 1

        ic = _OneRound(mech)
        with pytest.raises(RuntimeError, match=r"max_substeps=1 rounds; "
                           r"\d+ cells still live, smallest h = \S+ s"):
            ic.advance(T.copy(), Y.copy(), dt, rho=rho)
