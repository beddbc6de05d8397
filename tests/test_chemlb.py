"""Chemistry dynamic load balancing: invariants, bit-exactness, faults.

The load balancer's correctness contract has three layers, each tested
here:

1. **Planning invariants** (property-based): for any cost profile and
   policy, the cell assignment is a *partition* — every cell appears
   exactly once, either retained by its owner or in exactly one
   shipment — total load is conserved, and planning is deterministic.
2. **Bit-exactness**: production rates, implicit reactor results and
   solver conserved state are bitwise identical across
   ``off``/``greedy``/``pairwise-diffusion``. A shipment to a failed
   rank raises ``RankFailedError``; it is never evaluated silently in
   its place. Both kernels of the one ship -> serve -> collect pipeline
   run every balancer-level case.
3. **Effectiveness**: on a skewed flame-front profile the planner
   actually reduces the modeled max-rank load.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chemistry.implicit import ImplicitChemistry
from repro.core.config import SolverConfig, resolve
from repro.core.grid import Grid
from repro.core.state import State
from repro.parallel import CartesianDecomposition, InProcessTransport
from repro.parallel.chemlb import (
    POLICIES,
    CellCostModel,
    ChemistryLoadBalancer,
    plan_assignment,
    plan_moves_greedy,
    plan_moves_pairwise,
)
from repro.parallel.solver import ParallelPeriodicSolver
from repro.resilience.errors import RankFailedError
from repro.telemetry import Telemetry

pytestmark = pytest.mark.chemlb

BALANCED = ("greedy", "pairwise-diffusion")


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
def cost_profiles():
    """Per-rank cost arrays: 2-6 ranks, 1-40 cells each, costs in (0, 10]."""
    cost = st.floats(min_value=0.01, max_value=10.0,
                     allow_nan=False, allow_infinity=False)
    rank_costs = st.lists(cost, min_size=1, max_size=40)
    return st.lists(rank_costs, min_size=2, max_size=6)


# ---------------------------------------------------------------------------
# planning invariants (property-based)
# ---------------------------------------------------------------------------
class TestPlanInvariants:
    @settings(max_examples=150, deadline=None)
    @given(costs=cost_profiles(), policy=st.sampled_from(POLICIES),
           threshold=st.floats(min_value=1.0, max_value=2.0))
    def test_partition_is_permutation(self, costs, policy, threshold):
        plan = plan_assignment(costs, policy=policy, threshold=threshold)
        shipped = {r: [] for r in range(len(costs))}
        for sh in plan.shipments:
            assert 0 <= sh.src < len(costs)
            assert 0 <= sh.dst < len(costs)
            assert sh.src != sh.dst
            shipped[sh.src].append(sh.indices)
        for r, c in enumerate(costs):
            owned = np.concatenate([plan.retained[r]] + shipped[r]) \
                if shipped[r] else plan.retained[r]
            # every cell exactly once: sorted assignment == arange
            assert np.array_equal(np.sort(owned), np.arange(len(c))), (
                f"rank {r}: assignment {np.sort(owned)} is not a "
                f"permutation of arange({len(c)})"
            )

    @settings(max_examples=150, deadline=None)
    @given(costs=cost_profiles(), policy=st.sampled_from(POLICIES))
    def test_total_load_conserved(self, costs, policy):
        plan = plan_assignment(costs, policy=policy)
        assert plan.loads_after.sum() == pytest.approx(
            plan.loads_before.sum(), rel=1e-12
        )
        assert plan.loads_before.sum() == pytest.approx(
            sum(sum(c) for c in costs), rel=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(costs=cost_profiles(), policy=st.sampled_from(POLICIES),
           threshold=st.floats(min_value=1.0, max_value=2.0))
    def test_planning_is_deterministic(self, costs, policy, threshold):
        a = plan_assignment(costs, policy=policy, threshold=threshold)
        b = plan_assignment(costs, policy=policy, threshold=threshold)
        assert len(a.shipments) == len(b.shipments)
        for sa, sb in zip(a.shipments, b.shipments):
            assert (sa.src, sa.dst) == (sb.src, sb.dst)
            assert np.array_equal(sa.indices, sb.indices)
        for ra, rb in zip(a.retained, b.retained):
            assert np.array_equal(ra, rb)

    @settings(max_examples=60, deadline=None)
    @given(costs=cost_profiles())
    def test_off_ships_nothing(self, costs):
        plan = plan_assignment(costs, policy="off")
        assert plan.shipments == []
        assert all(
            np.array_equal(r, np.arange(len(c)))
            for r, c in zip(plan.retained, costs)
        )

    def test_greedy_reduces_skewed_imbalance(self):
        loads = np.array([100.0, 10.0, 10.0, 10.0])
        moves = plan_moves_greedy(loads, threshold=1.1)
        assert moves, "skewed profile must trigger transfers"
        cur = loads.copy()
        for src, dst, amount in moves:
            cur[src] -= amount
            cur[dst] += amount
        assert cur.max() / cur.mean() < loads.max() / loads.mean()

    def test_pairwise_moves_are_nearest_neighbour(self):
        loads = np.array([100.0, 10.0, 10.0, 10.0])
        moves = plan_moves_pairwise(loads, threshold=1.1)
        assert moves
        for src, dst, _ in moves:
            assert abs(src - dst) == 1


# ---------------------------------------------------------------------------
# policy resolution and config plumbing
# ---------------------------------------------------------------------------
class TestPolicyResolution:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHEM_LB", raising=False)
        assert resolve("chem_load_balance") == "off"

    def test_env_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHEM_LB", "greedy")
        assert resolve("chem_load_balance") == "greedy"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHEM_LB", "greedy")
        assert resolve("chem_load_balance", "pairwise-diffusion") == "pairwise-diffusion"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown chem_load_balance"):
            resolve("chem_load_balance", "round-robin")

    def test_solver_config_validates_policy(self, h2_mech):
        from repro.core.config import periodic_boundaries

        grid = Grid((16, 16), (1e-3, 1e-3), periodic=(True, True))
        cfg = SolverConfig(boundaries=periodic_boundaries(2),
                           chem_load_balance="greedy")
        cfg.validate(grid)  # valid policy passes
        bad = SolverConfig(boundaries=periodic_boundaries(2),
                           chem_load_balance="fastest")
        with pytest.raises(ValueError, match="unknown chem_load_balance"):
            bad.validate(grid)

    def test_cost_model_profile(self):
        # a cold cell costs 1, the hottest 1 + reactive_extra
        model = CellCostModel()
        costs = model.cell_costs(np.array([0.0, 1.0]))
        assert costs[0] == 1.0
        assert costs[1] == 1.0 + model.reactive_extra


# ---------------------------------------------------------------------------
# balancer-level bit-exactness
# ---------------------------------------------------------------------------
def _skewed_prims(mech, rng, ranks=4, cells=24):
    """Per-rank (rho, T, Y): one flame-front rank, the rest cold."""
    ns = mech.n_species
    prims = []
    for r in range(ranks):
        T = np.full(cells, 300.0)
        if r == 1:
            T = 1400.0 + 400.0 * rng.random(cells)
        rho = 0.4 + 0.1 * rng.random(cells)
        Y = np.zeros((ns, cells))
        Y[mech.index("H2")] = 0.028
        Y[mech.index("O2")] = 0.226
        if r == 1:
            Y[mech.index("H")] = 0.002
        Y[mech.index("N2")] = 1.0 - Y.sum(axis=0)
        prims.append((rho, T, Y))
    return prims


def _balanced(mech, kernel, policy, seed, telemetry=None, fail=None):
    """Second call of a balancer on the skewed profile (the first builds
    the cost history, then rank ``fail``, if any, dies): per-rank result
    arrays, and the balancer."""
    prims = _skewed_prims(mech, np.random.default_rng(seed))
    world = InProcessTransport(len(prims))
    lb = ChemistryLoadBalancer(mech, world, policy=policy,
                               telemetry=telemetry)
    if kernel == "rates":
        def call():
            return lb.production_rates(prims)
    else:
        # radical-free, so a hot cell takes a handful of implicit
        # substeps (not thousands) and a cold one takes one
        integrator = ImplicitChemistry(mech, closure="constant-volume")
        states = []
        for rho, T, Y in prims:
            Y = Y.copy()
            Y[mech.index("N2")] += Y[mech.index("H")]
            Y[mech.index("H")] = 0.0
            states.append((rho, mech.int_energy_mass(T, Y), Y))

        def call():
            return [np.vstack(r) for r in lb.advance_states(states, 1e-8,
                                                            integrator)]
    call()
    if fail is not None:
        world.fail_rank(fail)
    return call(), lb


def _assert_matches_off(mech, kernel, seed, policy):
    off, _ = _balanced(mech, kernel, "off", seed)
    bal, lb = _balanced(mech, kernel, policy, seed)
    assert lb.last_plan.cells_shipped > 0, "skewed case must ship cells"
    for a, b in zip(off, bal):
        assert np.array_equal(a, b) and a.dtype == b.dtype


def _assert_deterministic(mech, kernel, seed, policy):
    a, _ = _balanced(mech, kernel, policy, seed)
    b, _ = _balanced(mech, kernel, policy, seed)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


class TestBalancerBitExactness:
    """The shipping pipeline on the explicit kernel (production rates);
    :class:`TestStrangBalancerBitExactness` runs every case again on the
    implicit one."""

    KERNEL = "rates"

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS, policy=st.sampled_from(BALANCED))
    def test_balanced_matches_off_bitwise(self, h2_mech, seed, policy):
        _assert_matches_off(h2_mech, self.KERNEL, seed, policy)

    @settings(max_examples=8, deadline=None)
    @given(seed=SEEDS, policy=st.sampled_from(BALANCED))
    def test_determinism_across_runs(self, h2_mech, seed, policy):
        _assert_deterministic(h2_mech, self.KERNEL, seed, policy)

    def test_shipment_to_failed_rank_raises(self, h2_mech):
        """A message is delivered or its peer is dead: the hot rank's
        first batch goes to rank 0, which has failed, and the supervisor
        hears of it instead of the owner evaluating the batch itself."""
        with pytest.raises(RankFailedError, match="destination rank 0"):
            _balanced(h2_mech, self.KERNEL, "greedy", seed=7, fail=0)

    def test_telemetry_instruments(self, h2_mech):
        tel = Telemetry()
        _balanced(h2_mech, self.KERNEL, "greedy", seed=0, telemetry=tel)
        assert tel.metrics.counter("chemlb.cells_shipped").value > 0
        assert tel.metrics.counter("chemlb.batches").value > 0
        before = tel.metrics.gauge("chemlb.imbalance").value
        after = tel.metrics.gauge("chemlb.imbalance_after").value
        assert before > 1.0
        assert after < before
        assert "CHEMLB" in tel.tracer.stats

    def test_balancing_reduces_modeled_max_load(self, h2_mech):
        _, lb = _balanced(h2_mech, self.KERNEL, "greedy", seed=0)
        plan = lb.last_plan
        assert plan.loads_after.max() < plan.loads_before.max()


class TestStrangBalancerBitExactness(TestBalancerBitExactness):
    """The same pipeline on the implicit kernel (Strang half-steps): the
    reply is ``(T, Y, substeps)`` and the cost signal measured work.
    (Hypothesis wants one test function per class, hence the two
    re-declared property tests.)"""

    KERNEL = "strang"

    @settings(max_examples=10, deadline=None)
    @given(seed=SEEDS, policy=st.sampled_from(BALANCED))
    def test_balanced_matches_off_bitwise(self, h2_mech, seed, policy):
        _assert_matches_off(h2_mech, self.KERNEL, seed, policy)

    @settings(max_examples=8, deadline=None)
    @given(seed=SEEDS, policy=st.sampled_from(BALANCED))
    def test_determinism_across_runs(self, h2_mech, seed, policy):
        _assert_deterministic(h2_mech, self.KERNEL, seed, policy)


# ---------------------------------------------------------------------------
# solver-level bit-exactness: the headline acceptance criterion
# ---------------------------------------------------------------------------
def _flame_front_state(mech, n=24):
    """Skewed initial condition: a hot flame front in one quadrant."""
    grid = Grid((n, n), (0.01, 0.01), periodic=(True, True))
    ns = mech.n_species
    x = np.linspace(0.0, 1.0, n, endpoint=False)
    X, _ = np.meshgrid(x, x, indexing="ij")
    front = np.exp(-(((X - 0.25) / 0.08) ** 2))
    T = 400.0 + 1400.0 * front
    Y = np.zeros((ns, n, n))
    Y[mech.index("H2")] = 0.028
    Y[mech.index("O2")] = 0.226
    Y[mech.index("H")] = 0.001 * front
    Y[mech.index("N2")] = 1.0 - Y.sum(axis=0)
    rho = mech.density(np.full((n, n), 101325.0), T, Y)
    zeros = np.zeros((n, n))
    state = State.from_primitive(mech, grid, rho, [zeros, zeros], T, Y)
    return grid, state.u


def _run_parallel(mech, grid, u0, policy, steps=3):
    world = InProcessTransport(4)
    decomp = CartesianDecomposition(grid.shape, (2, 2),
                                    periodic=(True, True))
    solver = ParallelPeriodicSolver(mech, grid, decomp, world, reacting=True,
                                    chem_load_balance=policy)
    solver.set_state(u0)
    for _ in range(steps):
        solver.step(1e-8)
    return solver.gather_state(), solver


@pytest.mark.slow
class TestSolverBitExactness:
    def test_balanced_policies_match_off_bitwise(self, h2_mech):
        grid, u0 = _flame_front_state(h2_mech)
        u_off, _ = _run_parallel(h2_mech, grid, u0, "off")
        for policy in BALANCED:
            u_bal, solver = _run_parallel(h2_mech, grid, u0, policy)
            plan = solver.chemlb.last_plan
            assert plan is not None and plan.cells_shipped > 0
            assert np.array_equal(u_off, u_bal), (
                f"{policy}: conserved state differs from off"
            )

    def test_off_policy_has_no_balancer(self, h2_mech):
        grid, u0 = _flame_front_state(h2_mech)
        _, solver = _run_parallel(h2_mech, grid, u0, "off", steps=1)
        assert solver.chemlb is None


