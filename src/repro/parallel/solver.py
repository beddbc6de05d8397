"""Distributed stencil application and a rank-parallel periodic DNS.

Two levels of fidelity to S3D's parallelization (§2.6):

* :func:`parallel_derivative` / :func:`parallel_filter` — the
  per-operator pattern: exchange a stencil-width ghost zone for the
  quantity being differentiated and sweep the owned block with it. This
  is what S3D's derivative module does for every gradient, and the
  message traffic it generates (~80 kB messages for a 50^3 block) is the
  observable of the paper's communication discussion.

* :class:`ParallelPeriodicSolver` — a full rank-parallel DNS on periodic
  boxes built from that pattern: a rank runs the *serial*
  :class:`~repro.core.rhs.CompressibleRHS` and filter stack on the block
  it owns and nothing else. One RHS evaluation is three execution-plane
  calls, split where a stencil reaches beyond the block (width-4 ghost
  slabs of the primitive-gradient stack, then of the flux stacks, travel
  in between); a filter pass exchanges width-5 slabs of the conserved
  stack. Every sweep is bitwise the global operator's on the rows a rank
  owns, so (1, 1) *is* the serial computation and more ranks match it to
  the last bit whenever each rank's Newton temperature solve takes the
  serial batch's iteration count (docs/PARALLEL.md).
"""

from __future__ import annotations

import math

import numpy as np

from repro import telemetry as _telemetry
from repro.core.config import SolverConfig, periodic_boundaries, resolve
from repro.core.derivatives import DerivativeOperator, HALF_WIDTH
from repro.core.filters import FILTER_HALF_WIDTH, FilterOperator, filter_operators
from repro.core.rhs import CompressibleRHS
from repro.core.solver import S3DSolver
from repro.core.state import State
from repro.parallel import chemlb
from repro.parallel.comm import create_transport
from repro.parallel.halo import HaloExchanger, edge_slabs


class SolverRankProgram:
    """One rank's compute unit, living wherever the transport runs ranks.

    Owns the :class:`~repro.core.state.State`,
    :class:`~repro.core.rhs.CompressibleRHS` evaluator and filter stack
    of the block the rank owns (``grid``: that block of the global
    grid, :meth:`~repro.core.grid.Grid.block`). The driver ships the
    owned conserved block and the neighbours' ghost slabs in and gets
    edge slabs and owned results back; all the program knows of the
    decomposition is ``axes``, the directions whose sweeps take ghosts —
    which is what makes it picklable and transport-agnostic: the
    in-process backend holds these objects directly, the multiprocessing
    backend constructs them inside spawn workers from the same
    arguments.

    ``telemetry=None`` resolves per the environment unless
    ``rank_telemetry`` asks for a private recording backend (the
    per-process profile that cross-rank fusion merges); in-process
    drivers may instead inject a live shared backend via the
    ``local_factory`` path.
    """

    def __init__(self, rank, mechanism, grid, axes,
                 transport=None, reacting=True, filter_alpha=0.2,
                 rhs_backend=None, defer_reactions=False,
                 rank_telemetry=False, tracing=False, telemetry=None):
        self.rank = int(rank)
        if telemetry is None:
            if rank_telemetry:
                # a private per-rank backend; with tracing on its trace
                # log records on this rank's own lane, and the driver
                # stitches the shipped snapshots at run end
                telemetry = _telemetry.Telemetry(tracing=bool(tracing),
                                                 rank=rank)
            else:
                telemetry = _telemetry.get_telemetry()
        self.telemetry = telemetry
        self.axes = tuple(axes)
        self.state = State(mechanism, grid)
        self._du = np.empty_like(self.state.u)
        # deferred-reaction delegate: the RHS skips its source terms and
        # stashes (rho, T, Y) for the driver-side chemistry balancer
        self._defer = bool(defer_reactions)
        delegate = (lambda rhs, t, rho, T, Y: None) if defer_reactions else None
        self.rhs = CompressibleRHS(self.state, transport=transport,
                                   boundaries={}, reacting=reacting,
                                   telemetry=telemetry, engine="batched",
                                   reaction_delegate=delegate,
                                   backend=rhs_backend)
        self.filters = filter_operators(grid, alpha=filter_alpha,
                                        telemetry=telemetry,
                                        backend=self.rhs.backend)

    def _edges(self, stacks) -> tuple:
        """Flat ``(lo, hi)`` width-4 edge slabs of ``stacks[axis]`` along
        each decomposed axis."""
        return tuple(slab for axis in self.axes
                     for slab in edge_slabs(stacks[axis], 1 + axis, HALF_WIDTH))

    def _ghosts(self, slabs) -> dict:
        """The flat slabs of a payload as ``axis -> (lo, hi)``."""
        pairs = [slabs[i : i + 2] for i in range(0, len(slabs), 2)]
        return dict(zip(self.axes, pairs or [None] * len(self.axes)))

    def rhs_begin(self, t, u):
        """RHS phase A on the owned block ``u`` (copied: a payload only
        lives as long as its call); returns the edge slabs of the
        primitive-gradient stack."""
        np.copyto(self.state.u, u)
        self.state.mark_modified()
        gstack = self.rhs.begin(t, self.state.u, out=self._du)
        return () if gstack is None else self._edges(
            dict.fromkeys(self.axes, gstack))

    def rhs_fluxes(self, *slabs):
        """RHS phase B given the gradient stack's ghost slabs; returns
        the edge slabs of each decomposed direction's flux stack."""
        return self._edges(self.rhs.fluxes(self._ghosts(slabs)))

    def rhs_finish(self, *slabs):
        """RHS phase C given the flux stacks' ghost slabs; returns the
        owned dU/dt — and, with reactions deferred, the (rho, T, Y) the
        chemistry balancer needs."""
        du = self.rhs.finish(self._ghosts(slabs))
        return (du,) + self.rhs.last_reaction_inputs if self._defer else du

    def filter_block(self, u, first, stop, lo, hi):
        """Filter the owned block in place along axes ``first`` (with the
        ghost slabs ``lo`` / ``hi``, if any) to ``stop - 1`` (which wrap)."""
        for axis in range(first, stop):
            ghosts = (lo, hi) if axis == first and lo is not None else None
            self.filters[axis].apply(u, axis=1 + axis, out=u, ghosts=ghosts)
        return u

    def cache_block(self):
        """The rank's Newton temperature cache, or None when cold.

        The cache is the only worker-resident numerical state a bit-
        exact restart needs (the conserved blocks live driver-side):
        the next temperature solve must start from the same initial
        guess the uninterrupted run would have used.
        """
        cache = getattr(self.state, "_t_cache", None)
        if cache is None or cache.shape != self.state.u.shape[1:]:
            return None
        return cache

    def install_cache(self, cache):
        """Install a Newton temperature cache (or clear it with None)."""
        self.state._t_cache = (None if cache is None
                               else np.array(cache, dtype=float))

    def telemetry_snapshot(self) -> dict:
        return self.telemetry.snapshot()


def _parallel_stencil(global_f, decomp, world, axis: int, width: int,
                      make_op) -> np.ndarray:
    """The S3D derivative-module pattern: scatter, exchange a
    ``width``-deep ghost zone along ``axis``, sweep each owned block with
    it (``make_op(n)`` builds a block's periodic operator), gather."""
    halo = HaloExchanger(decomp, world, width=width)
    blocks = decomp.scatter(np.asarray(global_f, dtype=float))
    ghosts = halo.exchange(blocks, axis=axis)
    return decomp.gather([
        make_op(block.shape[axis]).apply(
            block, axis=axis, ghosts=None if lo is None else (lo, hi))
        for block, (lo, hi) in zip(blocks, ghosts)
    ])


def parallel_derivative(global_f, decomp, world, axis: int,
                        spacing: float) -> np.ndarray:
    """Distributed 8th-order derivative of a global field along a
    periodic axis (width-4 ghost slabs)."""
    return _parallel_stencil(
        global_f, decomp, world, axis, HALF_WIDTH,
        lambda n: DerivativeOperator(n, spacing, periodic=True))


def parallel_filter(global_f, decomp, world, axis: int,
                    alpha: float = 1.0) -> np.ndarray:
    """Distributed 10th-order filter along ``axis`` (periodic axes)."""
    return _parallel_stencil(
        global_f, decomp, world, axis, FILTER_HALF_WIDTH,
        lambda n: FilterOperator(n, periodic=True, alpha=alpha))


def _pack(blocks) -> np.ndarray:
    """Per-rank blocks end to end in one flat buffer."""
    return np.concatenate([np.ravel(b) for b in blocks])


def _unpack(flat: np.ndarray, shapes) -> list:
    """Per-rank views of a :func:`_pack`-ed buffer."""
    blocks, at = [], 0
    for shape in shapes:
        n = math.prod(shape)
        blocks.append(flat[at:at + n].reshape(shape))
        at += n
    return blocks


class ParallelPeriodicSolver(S3DSolver):
    """Rank-parallel DNS on an all-periodic box: every rank computes
    the points it owns, and only those.

    The time-step driver, the run loops and the supervisor are
    :class:`~repro.core.solver.S3DSolver`'s; this class is what a
    decomposed domain adds — the four hooks, the recovery plumbing, and
    profile / trace gathering.

    Parameters
    ----------
    mechanism, grid:
        As for the serial solver; all grid axes must be periodic and
        uniformly spaced.
    decomp, world:
        Decomposition and transport world. ``world=None`` builds one
        via :func:`repro.parallel.comm.create_transport` from
        ``comm_transport``, and :meth:`close` releases it.
    scheme, filter_alpha, filter_interval, comm_transport, rhs_engine,
    rhs_backend, chemistry_mode, chemistry_method, fixed_substeps,
    chem_load_balance, parallel_recovery, observability, tracing:
        Folded into the :class:`~repro.core.config.SolverConfig` the
        shared driver reads (:attr:`config`); for the run-time knobs of
        :data:`repro.core.config.KNOBS`, ``None`` defers to each knob's
        ``REPRO_*`` variable and default. ``comm_transport`` is the
        ``transport`` knob (``transport`` here is the *molecular*
        transport model); on an explicit ``world`` it must agree with
        the world's backend. Every registered ERK scheme runs in
        parallel, through the serial solver's own integrator.
    transport, reacting:
        Passed through to per-rank RHS/filter construction.
    rhs_engine, rhs_backend:
        Rank programs run the batched engine's three phases, so an
        explicit ``rhs_engine="naive"`` is rejected (the naive engine is
        the serial bitwise oracle; an environment value is not consulted
        here). The backend is forwarded to every per-rank
        :class:`~repro.core.rhs.CompressibleRHS` by name, not instance —
        each rank process resolves its own backend and JIT caches —
        and ghost-filled sweeps take the NumPy reference path whatever
        it is.
    chem_load_balance:
        When active in explicit mode, per-rank RHS evaluations defer
        their reaction source terms and a
        :class:`~repro.parallel.chemlb.ChemistryLoadBalancer` evaluates
        the owned interior cells instead, shipping batches from
        over-threshold ranks to underloaded ones; in strang mode the
        balancer ships whole per-cell implicit solves. Per-cell kinetics
        and implicit integration are shape-independent, so conserved
        state stays bitwise identical to ``"off"`` for every policy in
        either mode.
    chemlb_threshold, chemlb_cost_model, chemlb_work_model:
        Forwarded to the balancer (imbalance trigger, per-cell cost
        model, optional stiffness work emulation).
    rank_telemetry:
        Give every rank its *own* recording
        :class:`~repro.telemetry.Telemetry` backend for its RHS and
        filter kernels (the shared ``telemetry`` keeps solver-level
        spans like INTEGRATE and the halo traffic). Required for
        :meth:`fused_profile` — cross-rank profile fusion needs
        per-rank data, exactly like TAU's per-process profiles.
    observability:
        Health-observatory mode (see :mod:`repro.observability`). The
        watchdogs run on the gathered global :attr:`state`; the
        CFL-margin watchdog is omitted because this solver is driven by
        an explicit ``dt``.
    """

    def __init__(self, mechanism, grid, decomp, world=None, transport=None,
                 reacting=True, scheme="ck45", filter_alpha=0.2,
                 filter_interval=1, telemetry=None, rhs_engine=None,
                 rhs_backend=None,
                 chemistry_mode=None, chemistry_method=None,
                 chem_load_balance=None, chemlb_threshold=1.1,
                 chemlb_cost_model=None, chemlb_work_model=None,
                 rank_telemetry=False, observability=None,
                 comm_transport=None, parallel_recovery=None,
                 tracing=None, fixed_substeps=None):
        if not (all(grid.periodic) and all(decomp.periodic)):
            raise ValueError("ParallelPeriodicSolver requires an all-periodic "
                             "grid and decomposition")
        if grid.shape != decomp.global_shape:
            raise ValueError("grid and decomposition shapes disagree")
        if rhs_engine is not None and resolve("rhs_engine", rhs_engine) != "batched":
            raise ValueError(
                f"rhs_engine={rhs_engine!r}: rank programs run the batched "
                f"engine's three phases (the naive engine is the serial "
                f"bitwise oracle)"
            )
        config = SolverConfig(
            boundaries=periodic_boundaries(grid.ndim), scheme=scheme,
            filter_interval=int(filter_interval), filter_alpha=filter_alpha,
            rhs_engine=rhs_engine, rhs_backend=rhs_backend, tracing=tracing,
            observability=observability, chemistry_mode=chemistry_mode,
            chemistry_method=chemistry_method, fixed_substeps=fixed_substeps,
            chem_load_balance=chem_load_balance, transport=comm_transport,
            parallel_recovery=parallel_recovery,
        )
        rank_reacting = self._setup(config, mechanism, grid, reacting,
                                    telemetry)
        self.decomp = decomp
        self._owns_world = world is None
        if world is None:
            world = create_transport(comm_transport, size=decomp.size,
                                     telemetry=self.telemetry)
        elif (comm_transport is not None
              and world.name != resolve("transport", comm_transport)):
            raise ValueError(
                f"explicit world is a {world.name!r} transport but "
                f"comm_transport={comm_transport!r} was requested"
            )
        self.world = world
        self.recovery_policy = resolve("parallel_recovery", parallel_recovery)
        self._bind_halo()
        policy = resolve("chem_load_balance", chem_load_balance)
        if policy != "off" and reacting and mechanism.n_reactions:
            self.chemlb = chemlb.ChemistryLoadBalancer(
                mechanism, world, policy=policy,
                cost_model=chemlb_cost_model, threshold=chemlb_threshold,
                work_model=chemlb_work_model, telemetry=self.telemetry,
            )
        # when balancing in explicit mode, rank RHS defers its reaction
        # sources: the program stashes (rho, T, Y), returns them with
        # the du block, and _rhs_all adds balanced wdot to it
        # instead. In strang mode chemistry never enters the
        # RHS — the balancer (if any) ships whole implicit cell solves
        # from the driver-side half-steps instead.
        self._defer = self.chemlb is not None and self._chem is None
        self._rank_telemetry = bool(rank_telemetry)
        # what every rank program is built from after its own geometry;
        # kept so recovery can rebuild programs on a new or revived
        # world with exactly the original construction arguments
        self._program_args = (transport, rank_reacting, filter_alpha,
                              rhs_backend, self._defer,
                              self._rank_telemetry,
                              resolve("tracing", tracing))
        self._start_rank_programs()
        #: per-rank owned conserved blocks, the solver's state of record
        self.locals: list = [None] * decomp.size
        self._gstate = None  # lazy gathered-state view, see :attr:`state`
        self._gstate_step = -1
        self._arm_health()

    def _bind_halo(self) -> None:
        """The exchanger of the current decomposition and world. A block
        must be able to hand its neighbour a filter ghost zone."""
        decomp = self.decomp
        self.halo = HaloExchanger(decomp, self.world, telemetry=self.telemetry)
        if any(decomp.global_shape[a] // decomp.proc_shape[a] < FILTER_HALF_WIDTH
               for a in self.halo.axes):
            raise ValueError(
                f"{decomp.proc_shape} ranks over {decomp.global_shape} points: "
                f"a decomposed axis needs at least {FILTER_HALF_WIDTH} points "
                f"per rank")

    def _start_rank_programs(self) -> None:
        """(Re)start one rank program per rank on the current world.

        Per-rank programs live wherever the transport runs ranks: the
        in-process backend holds them in the driver (and may share the
        driver's live telemetry backend through local_factory, which
        out-of-process backends ignore in favour of the pickled args).
        """
        per_rank_args = [
            (self.mech, self.grid.block(self.decomp.local_slices(rank)),
             self.halo.axes) + self._program_args
            for rank in range(self.decomp.size)
        ]
        if self._rank_telemetry:
            local_factory = None  # programs build their own recording backends
        else:
            def local_factory(rank):
                return SolverRankProgram(rank, *per_rank_args[rank],
                                         telemetry=self.telemetry)
        self.world.start_programs(SolverRankProgram, per_rank_args,
                                  local_factory=local_factory)

    # ------------------------------------------------------------------
    def set_state(self, global_u: np.ndarray) -> None:
        """Scatter a global conserved array to the ranks."""
        self.locals = self.decomp.scatter(np.asarray(global_u, dtype=float), 1)
        self._gstate_step = -1

    def gather_state(self) -> np.ndarray:
        return self.decomp.gather(self.locals, 1)

    @property
    def state(self) -> State:
        """Gathered global :class:`~repro.core.state.State` view.

        Re-gathered at most once per step (health checks, monitors and
        the supervisor's fault sites share the same view); the returned
        object is a snapshot for inspection, not a handle into the
        per-rank blocks.
        """
        if self._gstate_step != self.step_count:
            self._gstate = State(self.mech, self.grid, self.gather_state())
            self._gstate_step = self.step_count
        return self._gstate

    # -- the four hooks: what a decomposed domain adds ---------------------
    def compute_dt(self) -> float:
        raise ValueError(
            "ParallelPeriodicSolver is driven by an explicit dt: pass one "
            "to step() / run() / run_resilient()"
        )

    def _rhs_all(self, t, locals_) -> list:
        """One RHS evaluation over the owned blocks: three execution-
        plane calls, the ghost slabs each next phase needs routed in
        between (in the driver: the routing is the communication pattern
        under test). Returns the owned dU/dt blocks."""
        call, route = self.world.call_all, self.halo.route
        edges = call("rhs_begin", [(t, u) for u in locals_])
        edges = call("rhs_fluxes", route(edges))
        results = call("rhs_finish", route(edges))
        if not self._defer:
            return results
        # reaction sources were deferred: evaluate the owned cells
        # through the balancer and add them exactly where the serial RHS
        # would (du[species] += wdot_mass[:nt])
        out = [r[0] for r in results]
        wdots = self.chemlb.production_rates([r[1:] for r in results])
        nt, first = self.mech.n_species - 1, 2 + self.grid.ndim
        for du, wdot in zip(out, wdots):
            du[first:first + nt] += wdot[:nt]
        return out

    def _integrate(self, dt: float) -> None:
        """The rank-parallel RHS as one callable over the packed owned
        blocks: element-wise stage updates on the packed buffer are
        bitwise those on the blocks, so every scheme (and the RK stage
        guard) works unchanged. ``locals`` stay per-rank arrays — views
        of the packed result."""
        shapes = [b.shape for b in self.locals]

        def rhs(t, packed):
            return _pack(self._rhs_all(t, _unpack(packed, shapes)))

        self.locals = _unpack(
            self.integrator.step(rhs, self.time, _pack(self.locals), dt),
            shapes)

    def _reactor_blocks(self) -> list:
        return self.locals

    def apply_filter(self) -> None:
        """The serial filter is sequential in place, axis by axis: the
        conserved stack's ghost slabs are exchanged before each
        decomposed axis' pass, and the local axes that follow it share
        its call."""
        ndim = self.grid.ndim
        starts = sorted({0, *self.halo.axes})
        for first, stop in zip(starts, starts[1:] + [ndim]):
            ghosts = self.halo.exchange(self.locals, leading_axes=1, axis=first)
            self.locals = self.world.call_all("filter_block", [
                (u, first, stop, lo, hi)
                for u, (lo, hi) in zip(self.locals, ghosts)
            ])

    # -- recovery plumbing ------------------------------------------------
    @property
    def world_size(self) -> int:
        return self.decomp.size

    def checkpoint_ring(self, fs, **kwargs):
        from repro.resilience.distributed import DistributedCheckpointRing

        return DistributedCheckpointRing(fs, **kwargs)

    def failed_ranks(self) -> set:
        return self.world.failed_ranks

    def recover(self, action: str, ring, dead) -> dict:
        """Carry out the supervisor's recovery action: ``shrink`` gathers
        the newest committed checkpoint, re-decomposes over the surviving
        rank count (one rank is always legal) and re-scatters;
        ``respawn`` revives the dead ranks (fresh worker + rank program),
        then, as a plain ``rollback`` does, purges the abandoned
        timeline's in-flight messages and reinstalls the newest
        committed checkpoint."""
        if action == "shrink":
            from repro.resilience.distributed import shrink_decomposition

            data = ring.load_global()
            self.reconfigure(shrink_decomposition(
                self.decomp, self.decomp.size - len(dead)))
            cache = data["cache"]
            self.install_shards(
                data["step"], data["time"], self.decomp.scatter(data["u"], 1),
                [None] * self.decomp.size if cache is None
                else self.decomp.scatter(cache, 0))
            return data
        if action == "respawn":
            self.world.revive_ranks(dead)
        self.world.reset_channels()
        return ring.restore(self)

    def capture_caches(self) -> list:
        """The ranks' Newton temperature caches, one block per rank
        (``None`` for ranks whose cache is cold). One execution-plane
        collective; used by checkpointing so a restored run replays the
        exact Newton starting points and stays bitwise."""
        return self.world.call_all("cache_block")

    def install_shards(self, step: int, time: float, blocks, caches) -> None:
        """Adopt per-rank checkpoint shards — owned conserved blocks and
        Newton caches — as the current solver state.

        The cache a rank holds is the cache of the block it owns, so a
        shard installs as it was saved and the next temperature solve
        starts where the uninterrupted run's did: restore-and-replay is
        bitwise. Any ``None`` block invalidates every cache: a cold
        start is always correct, a mixed hot/cold install is not.
        """
        if len(blocks) != self.decomp.size:
            raise ValueError(
                f"{len(blocks)} shard blocks for {self.decomp.size} ranks"
            )
        self.locals = [np.array(b, dtype=float, copy=True) for b in blocks]
        self.time = float(time)
        self.step_count = int(step)
        self._gstate_step = -1
        if any(c is None for c in caches):
            caches = [None] * self.decomp.size
        self.world.call_all("install_cache", [(c,) for c in caches])

    def reconfigure(self, decomp) -> None:
        """Re-decompose onto a new (smaller) world — the shrink policy.

        Builds a fresh transport of the same backend with
        ``decomp.size`` ranks, rebuilds the halo exchanger and rank
        programs, and re-seeds the chemistry balancer's cost model.
        State is *not* carried over; install a checkpoint after
        reconfiguring.
        """
        if decomp.global_shape != self.decomp.global_shape:
            raise ValueError(
                f"new decomposition covers {decomp.global_shape}, "
                f"solver grid is {self.decomp.global_shape}"
            )
        old_world = self.world
        kwargs = dict(fault_injector=old_world.faults,
                      telemetry=self.telemetry)
        if old_world.name == "multiprocessing":
            kwargs["heartbeat"] = getattr(old_world, "heartbeat", None)
        self.world = create_transport(old_world.name, size=decomp.size,
                                      **kwargs)
        self.decomp = decomp
        self._bind_halo()
        if self.chemlb is not None:
            self.chemlb.rebind(self.world)
        self._start_rank_programs()
        self.locals = [None] * decomp.size
        self._gstate_step = -1
        if self._owns_world:
            old_world.close()
        self._owns_world = True

    def fused_profile(self, root: int = 0):
        """Cross-rank fused profile of the per-rank kernel telemetry.

        Snapshots every rank program's telemetry through the execution
        plane, ships the snapshots to ``root`` over the transport (so
        the gather traffic is message-logged exactly like a real TAU
        merge), and fuses them (:mod:`repro.observability.fusion`).
        Requires ``rank_telemetry=True`` at construction.
        """
        if not self._rank_telemetry:
            raise ValueError(
                "fused_profile needs per-rank telemetry; construct the "
                "solver with rank_telemetry=True"
            )
        from repro.observability.fusion import (
            collect_snapshot_dicts,
            fuse_profiles,
        )

        snapshots = self.world.call_all("telemetry_snapshot")
        snapshots = collect_snapshot_dicts(self.world, snapshots, root=root,
                                           telemetry=self.telemetry)
        return fuse_profiles(snapshots)

    # -- distributed tracing ---------------------------------------------
    def trace_events(self) -> list:
        """Stitched global trace-event stream (plain dicts).

        Gathers the per-rank trace logs — worker-resident ones ship
        home inside :meth:`SolverRankProgram.telemetry_snapshot`; the
        driver's own log (spans, message sends/receives) joins them —
        and stitches everything into one causally-ordered timeline via
        :func:`repro.observability.timeline.stitch`. Requires
        the ``tracing`` knob; empty otherwise.
        """
        from repro.observability import timeline

        logs = []
        # worker logs first: the gather itself records more driver-side
        # events, which the driver snapshot below should include
        if self._rank_telemetry:
            for snap in self.world.call_all("telemetry_snapshot"):
                trace = snap.get("trace")
                if trace and trace.get("events"):
                    logs.append(trace)
        tracelog = getattr(self.telemetry, "tracelog", None)
        if tracelog is not None:
            logs.append(tracelog.snapshot())
        world_log = getattr(getattr(self.world, "telemetry", None),
                            "tracelog", None)
        if world_log is not None and world_log is not tracelog:
            logs.append(world_log.snapshot())
        return timeline.stitch(logs)

    def export_timeline(self, path=None):
        """Chrome-trace-event (Perfetto) JSON of :meth:`trace_events`.

        Returns the trace dict; with ``path`` also writes it as JSON —
        load the file at https://ui.perfetto.dev or chrome://tracing.
        """
        import json

        from repro.observability import timeline

        trace = timeline.export_chrome_trace(
            self.trace_events(),
            title=f"parallel run ({self.world.name}, "
                  f"{self.decomp.size} ranks)",
        )
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(trace, fh)
        return trace

    def close(self) -> None:
        """Release the transport when this solver created it."""
        if self._owns_world:
            self.world.close()

    def __enter__(self) -> "ParallelPeriodicSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
