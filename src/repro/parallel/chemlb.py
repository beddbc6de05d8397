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
* :class:`CellCostModel` — per-cell cost estimates seeded from the
  telemetry ``REACTION_RATES`` timer and a per-cell stiffness proxy
  (normalized max production-rate magnitude from the previous
  evaluation): reaction-zone cells cost more than cold cells.
* :func:`plan_moves_greedy` / :func:`plan_moves_pairwise` — policies
  turning per-rank loads into (src, dst, amount) transfers.
* :func:`plan_assignment` — translates transfers into concrete cell
  batches: a partition of every rank's cells into retained cells and
  shipments (most expensive cells ship first). The partition is always
  a permutation of the original cell set — every cell is evaluated
  exactly once, on exactly one rank.
* :class:`ChemistryLoadBalancer` — executes a plan over
  :class:`~repro.parallel.comm.Transport`: over-threshold ranks pack cell
  batches (rho, T, Y) with a CRC header, ship them to underloaded
  ranks, helpers evaluate them through the shape-independent cell-list
  kinetics entry point and ship results back; lost/corrupt/delayed
  batches (the PR 2 injector taxonomy, site ``chemlb.ship``/
  ``chemlb.reply`` plus anything the ``mpi.send`` site does to the
  transport underneath) fall back to local evaluation.

Two entry points share that machinery. ``production_rates`` serves the
explicit path: helpers evaluate reaction rates, and the cost signal is
the stiffness *proxy* (normalized max production-rate magnitude).
``advance_states`` serves the Strang-split path
(:class:`~repro.chemistry.implicit.ImplicitChemistry` half-steps):
helpers run the per-cell implicit constant-volume integration, and the
cost signal is *measured* work — each cell's accepted implicit substep
count from the previous half-step, carried back with every shipment so
the owner's history stays complete under any plan.

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
state — no matter how cells are shuffled between ranks, and the local
fault fallback is exact as well.

Telemetry
---------
Gauges ``chemlb.imbalance`` (max/mean modeled load before balancing)
and ``chemlb.imbalance_after``; counters ``chemlb.cells_shipped``,
``chemlb.batches``, ``chemlb.fallbacks``; everything runs under a
``CHEMLB`` span. Per-rank chemistry seconds (work attributed to the
executing rank, not the owner) accumulate in
:attr:`ChemistryLoadBalancer.rank_seconds` — the observable
``benchmarks/bench_chemlb.py`` reports.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import KNOBS, resolve
from repro.resilience.errors import MessageNotFoundError, RankFailedError
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

    ``cost(cell) = base_cost * (1 + reactive_extra * s)`` with ``s`` in
    [0, 1] the normalized stiffness proxy (max production-rate magnitude
    of the cell, relative to the hottest cell in the domain). Cold cells
    cost ``base_cost``; the most reactive cell costs
    ``base_cost * (1 + reactive_extra)`` — the cost profile of per-cell
    implicit chemistry integrators, which spend their iterations in the
    reaction zone.

    ``base_cost`` only sets the unit; balancing decisions depend on the
    *relative* profile, so the default of 1.0 is fine when no measured
    timer is available.
    """

    base_cost: float = 1.0
    reactive_extra: float = 9.0

    @classmethod
    def from_telemetry(cls, telemetry, cells_per_rank: int = 1,
                       reactive_extra: float = 9.0) -> "CellCostModel":
        """Seed ``base_cost`` from the ``REACTION_RATES`` exclusive timer.

        Uses seconds-per-call divided by ``cells_per_rank`` when the
        tracer has observed reaction evaluations; otherwise keeps the
        unit default. The stiffness weighting (``reactive_extra``) stays
        a model parameter — the flat-profile NumPy kinetics here cannot
        measure it, production stiff integrators can.
        """
        tel = resolve_telemetry(telemetry)
        base = 1.0
        excl = tel.tracer.exclusive_times().get("REACTION_RATES", 0.0)
        calls = tel.tracer.call_counts().get("REACTION_RATES", 0)
        if excl > 0.0 and calls > 0 and cells_per_rank > 0:
            base = excl / calls / cells_per_rank
        return cls(base_cost=base, reactive_extra=reactive_extra)

    def cell_costs(self, stiffness: np.ndarray) -> np.ndarray:
        """Costs for cells with normalized stiffness ``stiffness``."""
        s = np.asarray(stiffness, dtype=float)
        return self.base_cost * (1.0 + self.reactive_extra * s)


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


def plan_moves_pairwise(loads, threshold: float = 1.1, sweeps: int = 3) -> list:
    """Pairwise diffusion: neighbouring ranks (in rank order) repeatedly
    exchange half their load difference — the nearest-neighbour-only
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
    for _ in range(max(1, int(sweeps))):
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
                    threshold: float = 1.1, sweeps: int = 3) -> AssignmentPlan:
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
    moves = _PLANNERS[policy](loads_before, threshold=threshold) if policy != "pairwise-diffusion" \
        else plan_moves_pairwise(loads_before, threshold=threshold, sweeps=sweeps)
    shipments = []
    loads_after = loads_before.copy()
    # group moves per source, preserving planner order
    by_src: dict = {}
    for src, dst, amount in moves:
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
    """Ships per-cell reaction evaluations between transport ranks.

    Parameters
    ----------
    mech:
        The chemistry :class:`~repro.chemistry.mechanism.Mechanism`.
    world:
        The :class:`~repro.parallel.comm.Transport` world; its fault
        injector governs shipping faults (sites ``chemlb.ship`` and
        ``chemlb.reply``, plus whatever ``mpi.send`` does underneath).
    policy:
        The ``chem_load_balance`` knob (one of :data:`POLICIES`).
    cost_model:
        A :class:`CellCostModel`; default unit model.
    threshold:
        Imbalance trigger — ranks above ``threshold`` x mean load donate.
    work_model:
        Optional stiffness-cost emulation: a callable mapping the
        normalized per-cell stiffness array of a batch to integer
        per-cell evaluation counts (>= 1). Cells with count ``m`` are
        re-evaluated ``m - 1`` extra times with the results discarded,
        so measured per-rank chemistry seconds acquire the
        reaction-zone-heavy profile of production stiff integrators
        while every returned value stays bitwise identical. Used by the
        chemlb benchmark; None (default) evaluates each batch once.
    telemetry:
        Telemetry backend for the ``CHEMLB`` span and gauges/counters.

    Notes
    -----
    The first evaluation has no stiffness history, so every policy
    degenerates to local evaluation; balancing starts on the second
    evaluation once per-cell production-rate magnitudes are known.
    """

    def __init__(self, mech, world, policy=None, cost_model=None,
                 threshold: float = 1.1, sweeps: int = 3, work_model=None,
                 telemetry=None):
        self.mech = mech
        self.world = world
        self.policy = resolve("chem_load_balance", policy)
        self.cost_model = cost_model if cost_model is not None else CellCostModel()
        self.threshold = float(threshold)
        self.sweeps = int(sweeps)
        self.work_model = work_model
        self.telemetry = resolve_telemetry(telemetry)
        self._g_imbalance = self.telemetry.gauge("chemlb.imbalance")
        self._g_imbalance_after = self.telemetry.gauge("chemlb.imbalance_after")
        self._c_cells = self.telemetry.counter("chemlb.cells_shipped")
        self._c_batches = self.telemetry.counter("chemlb.batches")
        self._c_fallbacks = self.telemetry.counter("chemlb.fallbacks")
        #: per-cell |wdot|_max history per rank (the stiffness proxy)
        self._stiffness: list | None = None
        self._stiff_scale = 0.0
        #: per-cell measured implicit substep counts per rank (the
        #: Strang-path cost signal; see :meth:`advance_states`)
        self._work: list | None = None
        self._work_scale = 0.0
        self._eval_seq = 0
        self.rank_seconds = np.zeros(world.size)
        self.last_plan: AssignmentPlan | None = None

    # -- bookkeeping -----------------------------------------------------
    def reset_timing(self) -> None:
        self.rank_seconds[:] = 0.0

    def reset_history(self) -> None:
        self._stiffness = None
        self._stiff_scale = 0.0
        self._work = None
        self._work_scale = 0.0

    def rebind(self, world) -> None:
        """Re-attach to a new transport world (the shrink recovery
        path): the cost model is re-seeded for the new rank count —
        per-rank timings are resized and zeroed, the stiffness history
        and the last plan are dropped — while the policy, threshold,
        and per-cell cost model carry over. Every policy stays bitwise
        identical to ``off``, so re-planning from a cold model after a
        shrink cannot perturb the solution."""
        if world.size < 1:
            raise ValueError("world must have at least one rank")
        self.world = world
        self.rank_seconds = np.zeros(world.size)
        self.reset_history()
        self.last_plan = None
        self._eval_seq = 0

    def _normalized_stiffness(self, ncells: list) -> list:
        if self._stiffness is None or [len(s) for s in self._stiffness] != ncells:
            return [np.zeros(n) for n in ncells]
        scale = max(self._stiff_scale, _TINY)
        return [s / scale for s in self._stiffness]

    def _normalized_work(self, ncells: list) -> list:
        """Measured per-cell substep counts, normalized to [0, 1]."""
        if self._work is None or [len(s) for s in self._work] != ncells:
            return [np.zeros(n) for n in ncells]
        scale = max(self._work_scale, _TINY)
        return [s / scale for s in self._work]

    # -- evaluation ------------------------------------------------------
    def _evaluate(self, rank: int, rho, T, Y):
        """Evaluate one cell batch, attributing wall time to ``rank``."""
        tracelog = getattr(self.telemetry, "tracelog", None)
        sid = (tracelog.begin_span("CHEMISTRY_CELLS", rank)
               if tracelog is not None else None)
        t0 = time.perf_counter()
        wdot = self.mech.production_rates_cells(rho, T, Y)
        if self.work_model is not None and T.size:
            # stiffness-cost emulation: re-evaluate reactive cells,
            # discarding results (bitwise-neutral, time-proportional)
            s = np.abs(wdot).max(axis=0) / max(self._stiff_scale, _TINY)
            reps = np.maximum(np.asarray(self.work_model(np.minimum(s, 1.0)),
                                         dtype=int), 1)
            for k in range(2, int(reps.max()) + 1):
                subset = np.flatnonzero(reps >= k)
                if subset.size:
                    self.mech.production_rates_cells(
                        rho[subset], T[subset], Y[:, subset]
                    )
        self.rank_seconds[rank] += time.perf_counter() - t0
        if sid is not None:
            tracelog.end_span(sid, cells=int(T.size))
        return wdot

    # -- shipping --------------------------------------------------------
    def _pack(self, body: np.ndarray, n: int) -> np.ndarray:
        crc = float(zlib.crc32(body.tobytes()))
        return np.concatenate(([crc, float(n), float(self._eval_seq)], body))

    def _unpack(self, packet: np.ndarray, per_cell: int):
        """(n, body) if the packet verifies, else None."""
        if packet.ndim != 1 or packet.size < 3:
            return None
        crc, n, seq = packet[0], int(packet[1]), int(packet[2])
        body = packet[3:]
        if seq != self._eval_seq or n < 0 or body.size != n * per_cell:
            return None
        if float(zlib.crc32(body.tobytes())) != crc:
            return None
        return n, body

    def _ship(self, seq: int, sh: Shipment, flat) -> bool:
        """Source side: pack and send one batch; False if not sent."""
        rho, T, Y = flat[sh.src]
        idx = sh.indices
        body = np.concatenate([rho[idx], T[idx], Y[:, idx].ravel()])
        packet = self._pack(body, idx.size)
        faults = self.world.faults
        if faults.enabled:
            spec = faults.decide("chemlb.ship")
            if spec is not None:
                if spec.mode == "drop":
                    return False
                if spec.mode == "corrupt":
                    raw = faults.corrupt_bytes(packet[3:].tobytes())
                    packet = np.concatenate(
                        (packet[:3], np.frombuffer(raw, dtype=float))
                    )
        try:
            self.world.comm(sh.src).Send(packet, dest=sh.dst, tag=TAG_SHIP + seq)
        except RankFailedError:
            return False
        self._c_batches.inc()
        self._c_cells.inc(idx.size)
        return True

    def _serve(self, seq: int, sh: Shipment) -> None:
        """Helper side: evaluate an incoming batch and return results."""
        ns = self.mech.n_species
        comm = self.world.comm(sh.dst)
        try:
            while comm.probe(source=sh.src, tag=TAG_SHIP + seq):
                packet = comm.Recv(source=sh.src, tag=TAG_SHIP + seq)
                got = self._unpack(packet, per_cell=2 + ns)
                if got is None:
                    continue  # corrupt or stale: drain and keep looking
                n, body = got
                rho, T = body[:n], body[n : 2 * n]
                Y = body[2 * n :].reshape(ns, n)
                wdot = self._evaluate(sh.dst, rho, T, Y)
                reply = self._pack(wdot.ravel(), n)
                faults = self.world.faults
                if faults.enabled:
                    spec = faults.decide("chemlb.reply")
                    if spec is not None:
                        if spec.mode == "drop":
                            return
                        if spec.mode == "corrupt":
                            raw = faults.corrupt_bytes(reply[3:].tobytes())
                            reply = np.concatenate(
                                (reply[:3], np.frombuffer(raw, dtype=float))
                            )
                comm.Send(reply, dest=sh.src, tag=TAG_RESULT + seq)
                return
        except (MessageNotFoundError, RankFailedError):
            return

    def _collect(self, seq: int, sh: Shipment, flat, wdot_flat) -> None:
        """Source side: receive results or fall back to local evaluation."""
        ns = self.mech.n_species
        idx = sh.indices
        comm = self.world.comm(sh.src)
        try:
            while comm.probe(source=sh.dst, tag=TAG_RESULT + seq):
                reply = comm.Recv(source=sh.dst, tag=TAG_RESULT + seq)
                got = self._unpack(reply, per_cell=ns)
                if got is None:
                    continue  # corrupt or stale: drain and keep looking
                n, body = got
                wdot_flat[sh.src][:, idx] = body.reshape(ns, n)
                return
        except (MessageNotFoundError, RankFailedError):
            pass
        # batch or reply lost/corrupt/delayed: evaluate locally —
        # bitwise identical by kinetics shape independence
        rho, T, Y = flat[sh.src]
        wdot_flat[sh.src][:, idx] = self._evaluate(
            sh.src, rho[idx], T[idx], Y[:, idx]
        )
        self._c_fallbacks.inc()

    # -- the main entry point -------------------------------------------
    def production_rates(self, prims: list) -> list:
        """Balanced mass production rates for all ranks.

        ``prims`` holds one ``(rho, T, Y)`` tuple per rank (grid-shaped,
        ``Y`` with leading species axis). Returns one ``(Ns,) + S_r``
        array per rank, bitwise identical for every policy.
        """
        ns = self.mech.n_species
        with self.telemetry.span("CHEMLB"):
            self._eval_seq += 1
            shapes = [np.asarray(rho).shape for rho, _, _ in prims]
            flat = [
                (
                    np.ascontiguousarray(np.asarray(rho, dtype=float).ravel()),
                    np.ascontiguousarray(np.asarray(T, dtype=float).ravel()),
                    np.ascontiguousarray(
                        np.asarray(Y, dtype=float).reshape(ns, -1)
                    ),
                )
                for rho, T, Y in prims
            ]
            ncells = [t[1].size for t in flat]
            stiff = self._normalized_stiffness(ncells)
            costs = [self.cost_model.cell_costs(s) for s in stiff]
            plan = plan_assignment(
                costs, policy=self.policy, threshold=self.threshold,
                sweeps=self.sweeps,
            )
            self.last_plan = plan
            mean = max(plan.loads_before.mean(), _TINY)
            self._g_imbalance.set(float(plan.loads_before.max() / mean))
            self._g_imbalance_after.set(float(plan.loads_after.max() / mean))
            wdot_flat = [np.empty((ns, n)) for n in ncells]
            # bulk-synchronous phases: ship, serve, local work, collect
            for seq, sh in enumerate(plan.shipments):
                self._ship(seq, sh, flat)
            for seq, sh in enumerate(plan.shipments):
                self._serve(seq, sh)
            for rank, (rho, T, Y) in enumerate(flat):
                keep = plan.retained[rank]
                wdot_flat[rank][:, keep] = self._evaluate(
                    rank, rho[keep], T[keep], Y[:, keep]
                )
            for seq, sh in enumerate(plan.shipments):
                self._collect(seq, sh, flat, wdot_flat)
            # refresh the stiffness proxy for the next evaluation
            self._stiffness = [
                np.abs(w).max(axis=0) if w.size else np.zeros(w.shape[1])
                for w in wdot_flat
            ]
            self._stiff_scale = max(
                (float(s.max()) for s in self._stiffness if s.size), default=0.0
            )
            return [
                w.reshape((ns,) + shape)
                for w, shape in zip(wdot_flat, shapes)
            ]

    # -- Strang-split implicit chemistry --------------------------------
    def _advance_eval(self, rank: int, rho, e, Y, dt: float, integrator):
        """Advance one reactor batch, attributing wall time to ``rank``.

        Returns ``(T1, Y1, substeps)`` with the integrator's measured
        per-cell accepted substep counts as float — the cost signal fed
        back into the next plan.
        """
        if rho.size == 0:
            ns = self.mech.n_species
            return np.empty(0), np.empty((ns, 0)), np.empty(0)
        tracelog = getattr(self.telemetry, "tracelog", None)
        sid = (tracelog.begin_span("CHEMISTRY_CELLS", rank)
               if tracelog is not None else None)
        t0 = time.perf_counter()
        T1, Y1, stats = integrator.advance_energy(rho, e, Y, dt)
        self.rank_seconds[rank] += time.perf_counter() - t0
        if sid is not None:
            tracelog.end_span(sid, cells=int(rho.size))
        return T1, Y1, stats.substeps.astype(float)

    def _serve_states(self, seq: int, sh: Shipment, dt: float, integrator) -> None:
        """Helper side: advance an incoming reactor batch, return results."""
        ns = self.mech.n_species
        comm = self.world.comm(sh.dst)
        try:
            while comm.probe(source=sh.src, tag=TAG_SHIP + seq):
                packet = comm.Recv(source=sh.src, tag=TAG_SHIP + seq)
                got = self._unpack(packet, per_cell=2 + ns)
                if got is None:
                    continue  # corrupt or stale: drain and keep looking
                n, body = got
                rho, e = body[:n], body[n : 2 * n]
                Y = body[2 * n :].reshape(ns, n)
                T1, Y1, sub = self._advance_eval(sh.dst, rho, e, Y, dt, integrator)
                reply = self._pack(
                    np.concatenate([T1, Y1.ravel(), sub]), n
                )
                faults = self.world.faults
                if faults.enabled:
                    spec = faults.decide("chemlb.reply")
                    if spec is not None:
                        if spec.mode == "drop":
                            return
                        if spec.mode == "corrupt":
                            raw = faults.corrupt_bytes(reply[3:].tobytes())
                            reply = np.concatenate(
                                (reply[:3], np.frombuffer(raw, dtype=float))
                            )
                comm.Send(reply, dest=sh.src, tag=TAG_RESULT + seq)
                return
        except (MessageNotFoundError, RankFailedError):
            return

    def _collect_states(self, seq: int, sh: Shipment, dt: float, integrator,
                        flat, T_out, Y_out, sub_out) -> None:
        """Source side: receive reactor results or fall back locally."""
        ns = self.mech.n_species
        idx = sh.indices
        comm = self.world.comm(sh.src)
        try:
            while comm.probe(source=sh.dst, tag=TAG_RESULT + seq):
                reply = comm.Recv(source=sh.dst, tag=TAG_RESULT + seq)
                got = self._unpack(reply, per_cell=2 + ns)
                if got is None:
                    continue  # corrupt or stale: drain and keep looking
                n, body = got
                T_out[sh.src][idx] = body[:n]
                Y_out[sh.src][:, idx] = body[n : n + ns * n].reshape(ns, n)
                sub_out[sh.src][idx] = body[n + ns * n :]
                return
        except (MessageNotFoundError, RankFailedError):
            pass
        # batch or reply lost/corrupt/delayed: advance locally — bitwise
        # identical by the integrator's batch-shape independence
        rho, e, Y = flat[sh.src]
        T1, Y1, sub = self._advance_eval(
            sh.src, rho[idx], e[idx], Y[:, idx], dt, integrator
        )
        T_out[sh.src][idx] = T1
        Y_out[sh.src][:, idx] = Y1
        sub_out[sh.src][idx] = sub
        self._c_fallbacks.inc()

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
        are evaluated in.

        Unlike :meth:`production_rates`, the cost signal here is
        *measured* work: each cell's accepted implicit substep count
        from the previous half-step (normalized against the hottest
        cell) feeds :meth:`CellCostModel.cell_costs`. Shipments carry
        the helper-measured substep counts back with the results, so the
        owner's work history stays complete under any plan. The first
        call has no history, so every policy starts with local
        evaluation — exactly the cold-start behaviour of the explicit
        path's stiffness proxy.
        """
        ns = self.mech.n_species
        with self.telemetry.span("CHEMLB"):
            self._eval_seq += 1
            flat = [
                (
                    np.ascontiguousarray(np.asarray(rho, dtype=float).ravel()),
                    np.ascontiguousarray(np.asarray(e, dtype=float).ravel()),
                    np.ascontiguousarray(
                        np.asarray(Y, dtype=float).reshape(ns, -1)
                    ),
                )
                for rho, e, Y in states
            ]
            ncells = [t[0].size for t in flat]
            work = self._normalized_work(ncells)
            costs = [self.cost_model.cell_costs(w) for w in work]
            plan = plan_assignment(
                costs, policy=self.policy, threshold=self.threshold,
                sweeps=self.sweeps,
            )
            self.last_plan = plan
            mean = max(plan.loads_before.mean(), _TINY)
            self._g_imbalance.set(float(plan.loads_before.max() / mean))
            self._g_imbalance_after.set(float(plan.loads_after.max() / mean))
            T_out = [np.empty(n) for n in ncells]
            Y_out = [np.empty((ns, n)) for n in ncells]
            sub_out = [np.zeros(n) for n in ncells]
            # bulk-synchronous phases: ship, serve, local work, collect
            # (the ship body layout (rho, e, Y) matches the explicit
            # path's (rho, T, Y), so _ship is shared verbatim)
            for seq, sh in enumerate(plan.shipments):
                self._ship(seq, sh, flat)
            for seq, sh in enumerate(plan.shipments):
                self._serve_states(seq, sh, dt, integrator)
            for rank, (rho, e, Y) in enumerate(flat):
                keep = plan.retained[rank]
                T1, Y1, sub = self._advance_eval(
                    rank, rho[keep], e[keep], Y[:, keep], dt, integrator
                )
                T_out[rank][keep] = T1
                Y_out[rank][:, keep] = Y1
                sub_out[rank][keep] = sub
            for seq, sh in enumerate(plan.shipments):
                self._collect_states(
                    seq, sh, dt, integrator, flat, T_out, Y_out, sub_out
                )
            # refresh the measured-work history for the next plan
            self._work = sub_out
            self._work_scale = max(
                (float(s.max()) for s in sub_out if s.size), default=0.0
            )
            return [(T_out[r], Y_out[r]) for r in range(len(flat))]
