"""Chemistry dynamic load balancing across ranks.

The paper's node-performance analysis (§3-§4, Fig 3) shows that the
most loaded rank gates weak scaling. With strict domain decomposition a
flame front concentrated in a few ranks' subdomains makes chemistry —
whose per-cell cost in production stiff-integrator codes rises steeply
inside the reaction zone — the gating kernel while cold ranks idle.
Dynamic redistribution of per-cell chemistry work is the standard fix
for reacting-flow solvers of this shape (Yang et al. 2023; Tekgül et
al. 2021); this module implements it over the simulated-MPI substrate.

Pieces
------
* :class:`CellCostModel` — maps a per-cell cost signal normalized to
  [0, 1] (the previous call's, relative to the hottest cell in the
  domain) to modeled per-cell costs: reaction-zone cells cost more
  than cold cells.
* :func:`plan_moves_greedy` / :func:`plan_moves_pairwise` — policies
  turning per-rank loads into (src, dst, amount) transfers.
* :func:`plan_assignment` — translates transfers into concrete cell
  batches: a partition of every rank's cells into retained cells and
  shipments (most expensive cells ship first). The partition is always
  a permutation of the original cell set — every cell is evaluated
  exactly once, on exactly one rank.
* :class:`ChemistryLoadBalancer` — executes a plan over
  :class:`~repro.parallel.comm.Transport` in one bulk-synchronous
  pipeline: over-threshold ranks *ship* cell batches ``(rho, x, Y)``
  as plain point-to-point messages, underloaded ranks *serve* them
  through a per-cell kernel and reply with its result rows, owners
  *collect* the replies. A message is delivered or its peer is dead:
  a shipment to or from a failed rank raises
  :class:`~repro.resilience.errors.RankFailedError` to the supervisor,
  as a halo exchange does.

The pipeline has two kernels. :meth:`~ChemistryLoadBalancer.production_rates`
serves the explicit path: ``x`` is the temperature, the kernel the
cell-list kinetics, the reply ``wdot``, and the cost signal the
stiffness *proxy* (each cell's max production-rate magnitude).
:meth:`~ChemistryLoadBalancer.advance_states` serves the Strang-split
path (:class:`~repro.chemistry.implicit.ImplicitChemistry` half-steps):
``x`` is the internal energy, the kernel the per-cell implicit
constant-volume integration, the reply ``(T, Y, substeps)``, and the
cost signal *measured* work — each cell's accepted implicit substep
count, carried back with every shipment so the owner's history stays
complete under any plan.

Bit-exactness
-------------
The kinetics evaluator computes per-cell values that are bitwise
independent of the array shape or batch size they are evaluated in
(:mod:`repro.chemistry.kinetics`), and the implicit integrator holds
the same contract for its per-cell solves
(:mod:`repro.chemistry.implicit`, backed by the fixed-order species
reductions of :mod:`repro.util.reduction`). Every policy therefore
produces bitwise identical production rates and reactor results — and
the solver that consumes them produces bitwise identical conserved
state — no matter how cells are shuffled between ranks.

Telemetry
---------
Gauges ``chemlb.imbalance`` (max/mean modeled load before balancing)
and ``chemlb.imbalance_after``; counters ``chemlb.cells_shipped``,
``chemlb.batches``; everything runs under a
``CHEMLB`` span. Per-rank chemistry seconds (work attributed to the
executing rank, not the owner) accumulate in
:attr:`ChemistryLoadBalancer.rank_seconds` — the observable
``benchmarks/bench_chemlb.py`` reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import KNOBS, resolve
from repro.telemetry import resolve as resolve_telemetry

#: recognised balancing policies
POLICIES = KNOBS["chem_load_balance"].choices

#: message-tag bases (clear of the halo exchanger's small axis tags)
TAG_SHIP = 700
TAG_RESULT = 50700

#: floor avoiding divide-by-zero on cold (zero-rate) fields
_TINY = 1e-300


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------
@dataclass
class CellCostModel:
    """Per-cell chemistry cost estimate.

    ``cost(cell) = 1 + reactive_extra * s`` with ``s`` in [0, 1] the
    normalized cost signal of the cell. Cold cells cost 1; the most
    reactive cell costs ``1 + reactive_extra`` — the cost profile of
    per-cell implicit chemistry integrators, which spend their
    iterations in the reaction zone. Balancing decisions depend only on
    this *relative* profile.
    """

    reactive_extra: float = 9.0

    def cell_costs(self, signal: np.ndarray) -> np.ndarray:
        """Costs for cells with normalized cost signal ``signal``."""
        return 1.0 + self.reactive_extra * np.asarray(signal, dtype=float)


# ---------------------------------------------------------------------------
# planning
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Shipment:
    """One batch of cells evaluated on ``dst`` on behalf of ``src``."""

    src: int
    dst: int
    indices: np.ndarray  # flat cell indices into src's owned block


@dataclass
class AssignmentPlan:
    """A full partition of every rank's cells into local + shipped work.

    For every rank ``r``, ``retained[r]`` plus the ``indices`` of all
    shipments with ``src == r`` is a permutation of
    ``arange(ncells[r])`` — the every-cell-exactly-once invariant the
    property tests assert.
    """

    retained: list
    shipments: list
    loads_before: np.ndarray
    loads_after: np.ndarray

    @property
    def cells_shipped(self) -> int:
        return int(sum(len(s.indices) for s in self.shipments))


def plan_moves_greedy(loads, threshold: float = 1.1) -> list:
    """Greedy repeated max->min transfers until no rank exceeds
    ``threshold`` x mean load. Returns ``[(src, dst, amount), ...]``.

    Deterministic: ties resolve to the lowest rank (argmax/argmin
    semantics), amounts are pure functions of the input loads.
    """
    cur = np.asarray(loads, dtype=float).copy()
    mean = cur.mean()
    if cur.size < 2 or mean <= 0.0:
        return []
    moves = []
    eps = 1e-12 * mean
    for _ in range(4 * cur.size):
        src = int(np.argmax(cur))
        dst = int(np.argmin(cur))
        if src == dst or cur[src] <= threshold * mean:
            break
        amount = min(cur[src] - mean, mean - cur[dst])
        if amount <= eps:
            break
        moves.append((src, dst, float(amount)))
        cur[src] -= amount
        cur[dst] += amount
    return moves


def plan_moves_pairwise(loads, threshold: float = 1.1) -> list:
    """Pairwise diffusion: neighbouring ranks (in rank order) exchange
    half their load difference, three sweeps — the nearest-neighbour-only
    variant matching the paper's communication topology. Opposite flows
    across a pair net out, so each adjacent pair yields at most one
    physical transfer. Returns ``[(src, dst, amount), ...]``.
    """
    cur = np.asarray(loads, dtype=float).copy()
    n = cur.size
    mean = cur.mean()
    if n < 2 or mean <= 0.0:
        return []
    trigger = (threshold - 1.0) * mean
    flow = np.zeros(n - 1)  # signed r -> r+1 transfer
    for _ in range(3):
        for r in range(n - 1):
            diff = cur[r] - cur[r + 1]
            if abs(diff) <= trigger:
                continue
            amount = 0.5 * diff
            flow[r] += amount
            cur[r] -= amount
            cur[r + 1] += amount
    eps = 1e-12 * mean
    moves = []
    for r in range(n - 1):
        if flow[r] > eps:
            moves.append((r, r + 1, float(flow[r])))
        elif flow[r] < -eps:
            moves.append((r + 1, r, float(-flow[r])))
    return moves


_PLANNERS = {
    "greedy": plan_moves_greedy,
    "pairwise-diffusion": plan_moves_pairwise,
}


def plan_assignment(costs_per_rank, policy: str = "greedy",
                    threshold: float = 1.1) -> AssignmentPlan:
    """Partition every rank's cells into retained cells and shipments.

    ``costs_per_rank`` is one 1-D cost array per rank. Transfers come
    from the policy's move planner; each source then donates its most
    expensive cells first (stable descending cost order, ties by cell
    index) until the moved cost reaches the planned amount. The result
    is a partition: every cell appears exactly once, either retained by
    its owner or in exactly one shipment.
    """
    policy = resolve("chem_load_balance", policy)
    costs = [np.asarray(c, dtype=float).ravel() for c in costs_per_rank]
    loads_before = np.array([c.sum() for c in costs])
    retained = [np.arange(c.size) for c in costs]
    if policy == "off" or len(costs) < 2:
        return AssignmentPlan(retained, [], loads_before, loads_before.copy())
    shipments = []
    loads_after = loads_before.copy()
    # group moves per source, preserving planner order
    by_src: dict = {}
    for src, dst, amount in _PLANNERS[policy](loads_before, threshold):
        by_src.setdefault(src, []).append((dst, amount))
    for src in sorted(by_src):
        c = costs[src]
        order = np.argsort(-c, kind="stable")  # expensive cells first
        pos = 0
        taken = np.zeros(c.size, dtype=bool)
        for dst, amount in by_src[src]:
            picked = []
            moved = 0.0
            while pos < order.size and moved < amount:
                i = order[pos]
                # never strip a source bare: keep at least one cell local
                if c.size - taken.sum() - len(picked) <= 1:
                    break
                picked.append(i)
                moved += c[i]
                pos += 1
            if not picked:
                continue
            idx = np.array(sorted(picked), dtype=int)
            taken[idx] = True
            shipments.append(Shipment(src, dst, idx))
            shipped_cost = c[idx].sum()
            loads_after[src] -= shipped_cost
            loads_after[dst] += shipped_cost
        retained[src] = np.flatnonzero(~taken)
    return AssignmentPlan(retained, shipments, loads_before, loads_after)


# ---------------------------------------------------------------------------
# the balancer
# ---------------------------------------------------------------------------
class ChemistryLoadBalancer:
    """Ships per-cell chemistry work between transport ranks.

    Parameters
    ----------
    mech:
        The chemistry :class:`~repro.chemistry.mechanism.Mechanism`
        (its ``n_species`` and the explicit kernel
        ``production_rates_cells``).
    world:
        The :class:`~repro.parallel.comm.Transport` world the batches
        and replies travel through.
    policy:
        The ``chem_load_balance`` knob (one of :data:`POLICIES`).
    cost_model:
        A :class:`CellCostModel` (or anything with its ``cell_costs``);
        default the unit model.
    threshold:
        Imbalance trigger — ranks above ``threshold`` x mean load donate.
    telemetry:
        Telemetry backend for the ``CHEMLB`` span and gauges/counters.

    Notes
    -----
    The first call has no cost history, so every policy degenerates to
    local evaluation; balancing starts on the second call, once the
    per-cell cost signal of the first is known.
    """

    def __init__(self, mech, world, policy=None, cost_model=None,
                 threshold: float = 1.1, telemetry=None):
        self.mech = mech
        self.policy = resolve("chem_load_balance", policy)
        self.cost_model = cost_model if cost_model is not None else CellCostModel()
        self.threshold = float(threshold)
        self.telemetry = resolve_telemetry(telemetry)
        self._g_imbalance = self.telemetry.gauge("chemlb.imbalance")
        self._g_imbalance_after = self.telemetry.gauge("chemlb.imbalance_after")
        self._c_cells = self.telemetry.counter("chemlb.cells_shipped")
        self._c_batches = self.telemetry.counter("chemlb.batches")
        if world.size < 1:
            raise ValueError("world must have at least one rank")
        self.world = world
        self.rank_seconds = np.zeros(world.size)
        #: per-rank per-cell cost signal of the previous call
        self._history: list | None = None
        self._scale = 0.0
        self.last_plan: AssignmentPlan | None = None

    def reset_timing(self) -> None:
        self.rank_seconds[:] = 0.0

    # -- the two kernels -------------------------------------------------
    def production_rates(self, prims: list) -> list:
        """Balanced mass production rates for all ranks.

        ``prims`` holds one ``(rho, T, Y)`` tuple per rank (grid-shaped,
        ``Y`` with leading species axis). Returns one ``(Ns,) + S_r``
        array per rank, bitwise identical for every policy.
        """
        ns = self.mech.n_species
        wdot = self._balance(prims, self.mech.production_rates_cells, ns,
                             lambda w: np.abs(w).max(axis=0))
        return [w.reshape((ns,) + np.shape(rho))
                for w, (rho, _, _) in zip(wdot, prims)]

    def advance_states(self, states: list, dt: float, integrator) -> list:
        """Balanced per-cell implicit chemistry advance for all ranks.

        ``states`` holds one flat ``(rho, e_int, Y)`` tuple per rank
        (cells on the last axis, ``Y`` with leading species axis) — the
        Strang half-step inputs produced by
        :func:`repro.core.state.strang_reactor_inputs`. Every cell's
        reactor is advanced by ``dt`` through
        ``integrator.advance_energy`` (an
        :class:`~repro.chemistry.implicit.ImplicitChemistry` with the
        constant-volume closure) on exactly one rank, and the results
        return to the owner. Returns one ``(T1, Y1)`` pair per rank —
        bitwise identical for every policy, because the implicit
        integrator's per-cell results are independent of the batch they
        are evaluated in. The next plan is costed by each cell's
        accepted substep count, measured wherever the cell ran.
        """
        def advance(rho, e, Y):
            T1, Y1, stats = integrator.advance_energy(rho, e, Y, dt)
            return np.vstack((T1, Y1, stats.substeps))

        out = self._balance(states, advance, self.mech.n_species + 2,
                            lambda rows: rows[-1])
        return [(rows[0], rows[1:-1]) for rows in out]

    # -- ship -> serve -> collect ----------------------------------------
    def _balance(self, states, kernel, nrows: int, signal) -> list:
        """Evaluate ``kernel(rho, x, Y) -> (nrows, n)`` on every cell of
        every rank under this call's plan; returns one ``(nrows, n_r)``
        array per rank and keeps ``signal(rows)`` (per-cell) as the cost
        history the next plan is made from."""
        ns = self.mech.n_species
        with self.telemetry.span("CHEMLB"):
            flat = [
                (
                    np.ascontiguousarray(np.asarray(rho, dtype=float).ravel()),
                    np.ascontiguousarray(np.asarray(x, dtype=float).ravel()),
                    np.ascontiguousarray(
                        np.asarray(Y, dtype=float).reshape(ns, -1)
                    ),
                )
                for rho, x, Y in states
            ]
            plan = self._plan([rho.size for rho, _, _ in flat])
            out = [np.empty((nrows, rho.size)) for rho, _, _ in flat]
            # bulk-synchronous phases: ship, serve, local work, collect
            for seq, sh in enumerate(plan.shipments):
                self._ship(seq, sh, flat)
            for seq, sh in enumerate(plan.shipments):
                self._serve(seq, sh, kernel, nrows)
            for rank, (rho, x, Y) in enumerate(flat):
                keep = plan.retained[rank]
                out[rank][:, keep] = self._run(
                    rank, kernel, nrows, rho[keep], x[keep], Y[:, keep])
            for seq, sh in enumerate(plan.shipments):
                self._collect(seq, sh, out)
            self._history = [signal(rows) for rows in out]
            self._scale = max(
                (float(s.max()) for s in self._history if s.size), default=0.0
            )
            return out

    def _plan(self, ncells: list) -> AssignmentPlan:
        """This call's plan, costed from the previous call's signal
        normalized against the hottest cell (all cold without one)."""
        if self._history is None or [s.size for s in self._history] != ncells:
            signal = [np.zeros(n) for n in ncells]
        else:
            scale = max(self._scale, _TINY)
            signal = [s / scale for s in self._history]
        plan = plan_assignment([self.cost_model.cell_costs(s) for s in signal],
                               policy=self.policy, threshold=self.threshold)
        self.last_plan = plan
        mean = max(plan.loads_before.mean(), _TINY)
        self._g_imbalance.set(float(plan.loads_before.max() / mean))
        self._g_imbalance_after.set(float(plan.loads_after.max() / mean))
        return plan

    def _run(self, rank: int, kernel, nrows: int, rho, x, Y) -> np.ndarray:
        """Evaluate one cell batch, attributing wall time to ``rank``."""
        if rho.size == 0:
            return np.empty((nrows, 0))
        t0 = time.perf_counter()
        rows = kernel(rho, x, Y)
        self.rank_seconds[rank] += time.perf_counter() - t0
        return rows

    def _ship(self, seq: int, sh: Shipment, flat) -> None:
        """Source side: send one batch, rows ``(rho, x, Y...)``."""
        rho, x, Y = flat[sh.src]
        idx = sh.indices
        batch = np.vstack((rho[idx], x[idx], Y[:, idx]))
        self.world.comm(sh.src).Send(batch, dest=sh.dst, tag=TAG_SHIP + seq)
        self._c_batches.inc()
        self._c_cells.inc(idx.size)

    def _serve(self, seq: int, sh: Shipment, kernel, nrows: int) -> None:
        """Helper side: evaluate an incoming batch and reply."""
        comm = self.world.comm(sh.dst)
        batch = comm.Recv(source=sh.src, tag=TAG_SHIP + seq)
        rows = self._run(sh.dst, kernel, nrows, batch[0], batch[1], batch[2:])
        comm.Send(rows, dest=sh.src, tag=TAG_RESULT + seq)

    def _collect(self, seq: int, sh: Shipment, out) -> None:
        """Source side: place the reply's rows in the owner's result."""
        out[sh.src][:, sh.indices] = self.world.comm(sh.src).Recv(
            source=sh.dst, tag=TAG_RESULT + seq)
