"""A rank-parallel periodic DNS (§2.6).

:class:`ParallelPeriodicSolver` runs S3D's derivative-module pattern —
exchange a stencil-width ghost zone for the quantity being
differentiated and sweep the owned block with it — on periodic boxes: a
rank keeps the block it owns and its RK registers and runs the *serial*
stage loop, :class:`~repro.core.rhs.CompressibleRHS` and filter stack on
them (:class:`SolverRankProgram`); only ghost slabs travel. The step
suspends where a stencil reaches beyond the block — twice per RHS
evaluation (width-4 slabs of the primitive-gradient stack, then of the
flux stacks), once per decomposed filter axis (width-5 slabs of the
conserved stack) — and the driver routes what the ranks posted and
resumes them. Every sweep is bitwise the global operator's on the rows
a rank owns and every pointwise kernel — the Newton temperature solve
included — is a pure function of the cell, so any decomposition *is* the
serial computation, to the last bit (docs/PARALLEL.md).
"""

from __future__ import annotations

import numpy as np

from repro import telemetry as _telemetry
from repro.core.config import SolverConfig, periodic_boundaries, resolve
from repro.core.derivatives import HALF_WIDTH
from repro.core.erk import ERKIntegrator, finite_guard
from repro.core.filters import FILTER_HALF_WIDTH, filter_operators
from repro.core.rhs import CompressibleRHS
from repro.core.solver import S3DSolver
from repro.core.state import State
from repro.parallel import chemlb
from repro.parallel.comm import create_transport
from repro.parallel.halo import HaloExchanger, edge_slabs


class SolverRankProgram:
    """One rank of the SPMD time step, living wherever the transport
    runs ranks.

    Owns its block of the conserved state (``grid``: that block of the
    global grid, :meth:`~repro.core.grid.Grid.block`), the serial
    :class:`~repro.core.rhs.CompressibleRHS`, stage loop (with its RK
    registers) and filter stack, and runs one whole step over them as a
    generator that suspends where a stencil reaches beyond the block: it
    *posts* the edge slabs its neighbours need (the reply of
    :meth:`advance` / :meth:`resume`, ``(tag, *arrays)``; ``None`` once
    the step is done), does behind the post what needs no incoming ghost
    (the remainder of a reply-early method,
    :class:`~repro.parallel.comm.Transport`) and waits to be resumed
    with the slabs beyond its own faces (docs/PARALLEL.md has the call
    sequence). All it knows of the decomposition is ``axes``, the
    directions whose sweeps take ghosts — which makes it picklable and
    transport-agnostic: the in-process backend holds these objects, the
    multiprocessing backend builds them inside spawn workers from the
    same arguments.

    ``telemetry=None`` resolves per the environment unless
    ``rank_telemetry`` asks for a private recording backend (the
    per-process profile that cross-rank fusion merges); in-process
    drivers may instead inject a live shared backend via the
    ``local_factory`` path.
    """

    def __init__(self, rank, mechanism, grid, axes, scheme="ck45",
                 transport=None, reacting=True, filter_alpha=0.2,
                 defer_reactions=False,
                 rank_telemetry=False, telemetry=None):
        self.rank = int(rank)
        if telemetry is None:
            # a private per-rank backend is the per-process profile
            # that cross-rank fusion merges
            telemetry = (_telemetry.Telemetry() if rank_telemetry
                         else _telemetry.get_telemetry())
        self.telemetry = telemetry
        self.axes = tuple(axes)
        self.state = State(mechanism, grid)
        self.integrator = ERKIntegrator(scheme)
        # deferred reactions: the RHS is built without its source terms
        # and the driver-side chemistry balancer supplies them
        self._defer = bool(defer_reactions)
        self.rhs = CompressibleRHS(self.state, transport=transport,
                                   boundaries={},
                                   reacting=reacting and not self._defer,
                                   telemetry=telemetry)
        self.filters = filter_operators(grid, alpha=filter_alpha,
                                        telemetry=telemetry)
        self._run = None  # the suspended step, if any

    # -- the step ----------------------------------------------------------
    def _exchange(self, tag, edges, behind=None):
        """Post ``edges`` under ``tag`` (``None``: ``(lo, hi)`` slabs
        along every decomposed axis; an axis: along that one; ``"chem"``:
        deferred reaction inputs), run ``behind`` while they travel,
        and wait for what the driver resumes with."""
        yield (tag,) + tuple(edges)
        if behind is not None:
            behind()
        return (yield)

    def _stack_ghosts(self, stacks, behind):
        """Exchange the width-4 edge slabs of ``stacks[axis]`` along
        every decomposed axis; returns ``axis -> (lo, hi)`` ghosts."""
        if not self.axes:
            return {}
        slabs = yield from self._exchange(
            None, (slab for axis in self.axes for slab in
                   edge_slabs(stacks[axis], 1 + axis, HALF_WIDTH)), behind)
        return {axis: slabs[2 * i : 2 * i + 2]
                for i, axis in enumerate(self.axes)}

    def _evaluate(self, t, u, out):
        """One RHS evaluation on the owned block: the serial three
        phases, suspended where the gradient and the divergence sweeps
        need the neighbours' rows; the reaction sources run behind the
        first post, the undecomposed directions' divergence sweeps
        behind the second."""
        rhs = self.rhs
        self.state.mark_modified()  # a stage update wrote ``u`` in place
        gstack = rhs.begin(t, u, out)
        ghosts = dict.fromkeys(self.axes)
        if gstack is not None:
            ghosts = yield from self._stack_ghosts(
                dict.fromkeys(self.axes, gstack), rhs.sources)
        ghosts = yield from self._stack_ghosts(rhs.fluxes(ghosts),
                                               rhs.local_divergence)
        du = rhs.finish(ghosts)
        if self._defer:
            # add the balanced sources exactly where the RHS would have
            (wdot,) = yield from self._exchange(
                "chem", rhs.reaction_inputs())
            du[self.state.species_slice] += wdot[:self.state.n_transported]
        return du

    _evaluate.supports_out = True

    def _filter(self):
        """The serial filter, in place axis by axis: a decomposed axis'
        pass takes the block's width-5 ghost slabs as the passes before
        it left them."""
        u = self.state.u
        for axis, filt in enumerate(self.filters):
            ghosts = None
            if axis in self.axes:
                ghosts = yield from self._exchange(
                    axis, edge_slabs(u, 1 + axis, FILTER_HALF_WIDTH))
            filt.apply(u, axis=1 + axis, out=u, ghosts=ghosts)
        self.state.mark_modified()

    def _step(self, t, dt, filtered):
        self.state.u = yield from self.integrator.stepper(
            self._evaluate, t, self.state.u, dt)
        if filtered:
            yield from self._filter()

    def _pump(self, slabs):
        """Run the step to its next post and reply with it (``None``
        when the step is done); the remainder runs on to the wait."""
        try:
            reply = self._run.send(slabs)
        except StopIteration:
            reply = self._run = None
        yield reply
        if reply is not None:
            next(self._run)

    def advance(self, t, dt, filtered, guarded):
        """Start a step from ``t`` (dropping a suspended one), the
        filter pass behind it if ``filtered``, stage slopes checked for
        finiteness if ``guarded``."""
        self.integrator.stage_hook = finite_guard if guarded else None
        self._run = self._step(t, dt, filtered)
        yield from self._pump(None)

    def filter(self):
        """Start a filter pass on its own."""
        self._run = self._filter()
        yield from self._pump(None)

    def resume(self, *slabs):
        """Continue the suspended step with what it waits for."""
        yield from self._pump(slabs)

    # -- the state, pulled and pushed ----------------------------------------
    def snapshot(self):
        """Copies of the owned block and the Newton temperature cache
        (``None`` when cold): all a bit-exact restart needs — the next
        temperature solve must start from the uninterrupted run's guess."""
        cache = self.state._t_cache
        if cache is not None and cache.shape != self.state.u.shape[1:]:
            cache = None
        return self.state.u.copy(), None if cache is None else cache.copy()

    def install(self, u, *cache):
        """Adopt ``u`` as the owned block and, when given, ``cache``
        (``None``: cold) as the Newton cache; a step still held
        suspended belongs to an abandoned timeline and is dropped."""
        self._run = None
        self.state.u = np.array(u, dtype=float)
        self.state.mark_modified()
        if cache:
            self.state._t_cache = (None if cache[0] is None
                                   else np.array(cache[0], dtype=float))

    def telemetry_snapshot(self) -> dict:
        return self.telemetry.snapshot()


class ParallelPeriodicSolver(S3DSolver):
    """Rank-parallel DNS on an all-periodic box: every rank computes
    the points it owns, and only those.

    The time-step driver, the run loops and the supervisor are
    :class:`~repro.core.solver.S3DSolver`'s; this class is what a
    decomposed domain adds — the four hooks, the recovery plumbing, and
    profile gathering.

    Parameters
    ----------
    mechanism, grid:
        As for the serial solver; all grid axes must be periodic and
        uniformly spaced.
    decomp, world:
        Decomposition and transport world. ``world=None`` builds one
        via :func:`repro.parallel.comm.create_transport` from
        ``comm_transport``, and :meth:`close` releases it.
    scheme, filter_alpha, filter_interval, comm_transport,
    chemistry_mode, chem_load_balance,
    parallel_recovery, observability:
        Folded into the :class:`~repro.core.config.SolverConfig` the
        shared driver reads (:attr:`config`); for the run-time knobs of
        :data:`repro.core.config.KNOBS`, ``None`` defers to each knob's
        ``REPRO_*`` variable and default. ``comm_transport`` is the
        ``transport`` knob (``transport`` here is the *molecular*
        transport model); on an explicit ``world`` it must agree with
        the world's backend. The ranks step through the serial
        solver's own integrator.
    transport, reacting:
        Passed through to per-rank RHS/filter construction.
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
    chemlb_threshold:
        The balancer's imbalance trigger (ranks above this multiple of
        the mean modeled load donate cells).
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
                 filter_interval=1, telemetry=None,
                 chemistry_mode=None,
                 chem_load_balance=None, chemlb_threshold=1.1,
                 rank_telemetry=False, observability=None,
                 comm_transport=None, parallel_recovery=None):
        if not (all(grid.periodic) and all(decomp.periodic)):
            raise ValueError("ParallelPeriodicSolver requires an all-periodic "
                             "grid and decomposition")
        if grid.shape != decomp.global_shape:
            raise ValueError("grid and decomposition shapes disagree")
        config = SolverConfig(
            boundaries=periodic_boundaries(grid.ndim), scheme=scheme,
            filter_interval=int(filter_interval), filter_alpha=filter_alpha,
            observability=observability,
            chemistry_mode=chemistry_mode,
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
        # a block must be able to hand its neighbour a filter ghost zone
        self.halo = HaloExchanger(decomp, world, telemetry=self.telemetry)
        if any(decomp.global_shape[a] // decomp.proc_shape[a] < FILTER_HALF_WIDTH
               for a in self.halo.axes):
            raise ValueError(
                f"{decomp.proc_shape} ranks over {decomp.global_shape} points: "
                f"a decomposed axis needs at least {FILTER_HALF_WIDTH} points "
                f"per rank")
        policy = resolve("chem_load_balance", chem_load_balance)
        if policy != "off" and reacting and mechanism.n_reactions:
            self.chemlb = chemlb.ChemistryLoadBalancer(
                mechanism, world, policy=policy, threshold=chemlb_threshold,
                telemetry=self.telemetry,
            )
        # when balancing in explicit mode, rank RHS defers its reaction
        # sources: the program posts (rho, T, Y) and is resumed with the
        # balanced wdot. In strang mode chemistry never enters the
        # RHS — the balancer (if any) ships whole implicit cell solves
        # from the driver-side half-steps instead.
        defer = self.chemlb is not None and self._chem is None
        self._rank_telemetry = bool(rank_telemetry)
        # one rank program per rank, living wherever the transport runs
        # ranks: the in-process backend holds them in the driver (and
        # shares the driver's live telemetry backend through
        # local_factory, which out-of-process backends ignore in favour
        # of the pickled args); a revived rank is rebuilt from the same
        # arguments
        per_rank_args = [
            (mechanism, grid.block(decomp.local_slices(rank)), self.halo.axes,
             scheme, transport, rank_reacting, filter_alpha, defer,
             self._rank_telemetry)
            for rank in range(decomp.size)
        ]
        local_factory = None  # rank_telemetry: programs build their own
        if not self._rank_telemetry:
            def local_factory(rank):
                return SolverRankProgram(rank, *per_rank_args[rank],
                                         telemetry=self.telemetry)
        world.start_programs(SolverRankProgram, per_rank_args,
                             local_factory=local_factory)
        self._snapshot = None  # (blocks, caches) as of the ranks' state
        self._gstate = None  # gathered view of them, see :attr:`state`
        self._held = None  # a filter pass the ranks posted at step end
        self._arm_health()

    # -- the state lives on the ranks: pulled and pushed ----------------------
    def _pull(self) -> tuple:
        """``(blocks, caches)`` of the ranks, one execution-plane call
        when the ranks have moved since the last one."""
        if self._snapshot is None:
            blocks, caches = zip(*self.world.call_all("snapshot"))
            for block in blocks:
                block.flags.writeable = False
            self._snapshot = blocks, caches
        return self._snapshot

    def _push(self, blocks, caches=None) -> None:
        """Install owned blocks on the ranks (their Newton caches too,
        when given); drops whatever step a rank still holds suspended."""
        self._held = None
        self._start("install", [(b,) for b in blocks] if caches is None
                    else list(zip(blocks, caches)))

    @property
    def locals(self) -> list:
        """Per-rank owned conserved blocks: a read-only snapshot of the
        ranks' state, not a handle into it — write through
        :meth:`set_state` or :meth:`install_shards`."""
        return list(self._pull()[0])

    @property
    def caches(self) -> list:
        """The ranks' Newton temperature caches as of :attr:`locals`
        (``None`` for a rank whose cache is cold): what a checkpoint
        saves so a restored run replays the exact Newton starting
        points and stays bitwise."""
        return list(self._pull()[1])

    def set_state(self, global_u: np.ndarray) -> None:
        """Scatter a global conserved array to the ranks."""
        self._push(self.decomp.scatter(np.asarray(global_u, dtype=float), 1))

    def gather_state(self) -> np.ndarray:
        return self.decomp.gather(self.locals, 1)

    @property
    def state(self) -> State:
        """Gathered global :class:`~repro.core.state.State` view.

        Re-gathered only after the ranks have moved (health checks,
        monitors and the supervisor's fault sites share the same view);
        the returned object is a snapshot for inspection, not a handle
        into the per-rank blocks.
        """
        if self._gstate is None:
            self._gstate = State(self.mech, self.grid, self.gather_state())
        return self._gstate

    # -- the four hooks: what a decomposed domain adds ---------------------
    def compute_dt(self) -> float:
        raise ValueError(
            "ParallelPeriodicSolver is driven by an explicit dt: pass one "
            "to step() / run() / run_resilient()"
        )

    def _start(self, method, payloads=None) -> list:
        """Call ``method`` on every rank; the ranks leave the state the
        snapshots were taken of."""
        self._snapshot = self._gstate = None
        return self.world.call_all(method, payloads)

    def _drive(self, replies, hold_filter=False) -> list:
        """Serve the ranks until they report done: route the slabs they
        posted to their neighbours (in the driver: the routing is the
        communication pattern under test) — or hand deferred reaction
        inputs to the chemistry balancer — and resume them with what
        they wait for. Returns the last replies: all ``None``, or with
        ``hold_filter`` the posts of the filter pass the ranks ran into
        behind their last stage."""
        while replies[0] is not None:
            tag = replies[0][0]
            posted = [reply[1:] for reply in replies]
            if tag == "chem":
                payloads = [(w,) for w in self.chemlb.production_rates(posted)]
            elif hold_filter and tag is not None:
                break
            else:
                payloads = self.halo.route(posted, axis=tag)
            replies = self._start("resume", payloads)
        return replies

    def _integrate(self, dt: float) -> None:
        """One ERK step on the ranks. When this step ends in a filter
        pass with nothing in between (no Strang half-step), the ranks
        run straight into it and :meth:`apply_filter` picks up there."""
        interval = self.config.filter_interval
        filtered = bool(self._chem is None and interval
                        and (self.step_count + 1) % interval == 0)
        guarded = self.integrator.stage_hook is not None
        held = self._drive(self._start(
            "advance", [(self.time, dt, filtered, guarded)]
            * self.decomp.size), hold_filter=True)
        self._held = held if filtered else None

    def _reactor_blocks(self) -> list:
        return [block.copy() for block in self.locals]

    def _reactors_advanced(self, blocks) -> None:
        self._push(blocks)

    def apply_filter(self) -> None:
        """One filter pass on the ranks: the one they ran into behind
        the step, or a fresh one."""
        held, self._held = self._held, None
        self._drive(self._start("filter") if held is None else held)

    # -- recovery plumbing ------------------------------------------------
    def checkpoint_ring(self, fs, **kwargs):
        from repro.resilience.distributed import DistributedCheckpointRing

        return DistributedCheckpointRing(fs, **kwargs)

    def failed_ranks(self) -> set:
        return self.world.failed_ranks

    def recover(self, action: str, ring, dead) -> dict:
        """Carry out the supervisor's recovery action: ``respawn``
        revives the dead ranks (fresh worker + rank program); then, as a
        plain ``rollback`` does, purge the abandoned timeline's
        in-flight messages and reinstall the newest committed
        checkpoint."""
        if action == "respawn":
            self.world.revive_ranks(dead)
        self.world.reset_channels()
        return ring.restore(self)

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
        self.time = float(time)
        self.step_count = int(step)
        if any(c is None for c in caches):
            caches = [None] * self.decomp.size
        self._push(blocks, caches)

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

    def close(self) -> None:
        """Release the transport when this solver created it."""
        if self._owns_world:
            self.world.close()

    def __enter__(self) -> "ParallelPeriodicSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
