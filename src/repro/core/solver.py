"""The one time step and its driver (§2.6).

:class:`SolverRankProgram` is the SPMD step every rank runs on the block
it owns; :class:`S3DSolver` drives it on a transport world and keeps the
clock and the hook points the paper's ecosystem attaches to:
``checkpoint_hook`` (the I/O kernel of §5), the per-variable min/max
monitor (the ASCII files of §9) and per-kernel spans (the profiler of
§4). A serial run is the P = 1 case, an in-process world of one around
the caller's live state; on any decomposition every sweep is bitwise the
global operator's and every pointwise kernel a pure function of the
cell, so the ranks compute the serial bits (docs/PARALLEL.md).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import resolve
from repro.core.derivatives import HALF_WIDTH
from repro.core.erk import ERKIntegrator, NonFiniteStageError, finite_guard
from repro.core.filters import FILTER_HALF_WIDTH, filter_operators
from repro.core.rhs import CompressibleRHS
from repro.core.state import State, strang_reactor_inputs
from repro.parallel import chemlb
from repro.parallel.comm import InProcessTransport, create_transport
from repro.parallel.decomp import CartesianDecomposition
from repro.parallel.halo import HaloExchanger, edge_slabs
from repro.resilience.checkpoint import CheckpointRing
from repro.resilience.distributed import DistributedCheckpointRing
from repro import telemetry as _telemetry


class SolverRankProgram:
    """One rank of the SPMD time step, living wherever the transport
    runs ranks.

    Owns ``state`` (its block, on :meth:`~repro.core.grid.Grid.block`
    of the global grid; a world of one's whole live state) and the
    serial RHS, stage loop, filter stack and, under ``strang``, implicit
    reactors, and runs one step over them as a generator that suspends
    where it needs what it does not own: it *posts* (the reply of
    :meth:`advance` / :meth:`resume`, ``(tag, *arrays)``; ``None`` once
    done) the edge slabs its neighbours need, or reaction inputs for the
    driver's balancer when ``balanced``, does behind the post what needs
    no answer (a reply-early remainder,
    :class:`~repro.parallel.comm.Transport`) and waits to be resumed
    with the answer (docs/PARALLEL.md). It knows of the decomposition
    only ``axes``, the directions whose sweeps take ghosts, so it
    pickles into spawn workers as readily as the in-process backend
    holds it. ``config`` gives the scheme, filter strength and boundary
    map (non-periodic faces only where no axis is decomposed).
    ``telemetry=None`` resolves per the environment, or to a private
    recording backend under ``rank_telemetry`` (the per-process profile
    cross-rank fusion merges); in-process drivers inject their own
    through ``local_factory``.
    """

    def __init__(self, rank, state, axes, config, transport=None,
                 reacting=True, strang=False, balanced=False,
                 rank_telemetry=False, telemetry=None):
        self.rank = int(rank)
        if telemetry is None:
            # a private per-rank backend is the per-process profile
            # that cross-rank fusion merges
            telemetry = (_telemetry.Telemetry() if rank_telemetry
                         else _telemetry.get_telemetry())
        self.telemetry = telemetry
        self.axes = tuple(axes)
        self.state = state
        self.integrator = ERKIntegrator(config.scheme)
        self._strang = bool(strang)
        # deferred reactions: the RHS is built without its source terms
        # and the driver-side chemistry balancer supplies them
        self._defer = bool(balanced) and not self._strang
        self._chem = None
        if self._strang and not balanced:
            from repro.chemistry.implicit import ImplicitChemistry

            self._chem = ImplicitChemistry(state.mech, telemetry=telemetry)
        self.rhs = CompressibleRHS(
            state, transport=transport, boundaries=config.boundaries,
            reacting=reacting and not (self._strang or self._defer),
            telemetry=telemetry)
        self.filters = filter_operators(state.grid, alpha=config.filter_alpha,
                                        telemetry=telemetry)
        self._run = None  # the suspended step, if any

    # -- the step ----------------------------------------------------------
    def _exchange(self, tag, edges, behind=None):
        """Post ``edges`` under ``tag`` (``None``: ``(lo, hi)`` slabs
        along every decomposed axis; an axis: along that one; ``"chem"``
        / ``"strang"``: reaction inputs for the balancer), run ``behind``
        while they travel, and wait for what the driver resumes with."""
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

    def mark_modified(self) -> None:
        """A stage update wrote the block in place (the stage loop says
        so after each one): memoized properties of it are stale."""
        self.state.mark_modified()

    def _react(self, half_dt):
        """A Strang half-step: every owned cell's reactor advanced by
        ``half_dt`` at fixed ``(rho, e)``, here or wherever the balancer
        the inputs are posted to (``"strang"``) ships it. Only species
        densities change, so density, momentum and total energy are
        conserved identically; per-cell results do not depend on the
        batch, so no decomposition or balancer can move a bit."""
        st = self.state
        rho, e, Y = strang_reactor_inputs(st.u, st.ndim, st.mech.n_species)
        if self._chem is None:
            (Y1,) = yield from self._exchange("strang", (rho, e, Y))
        else:
            with self.telemetry.span("CHEMISTRY_IMPLICIT"):
                _, Y1, _ = self._chem.advance_energy(rho, e, Y, half_dt)
        nt = st.n_transported
        st.u[st.species_slice] = (rho[None] * Y1[:nt]).reshape(
            (nt,) + st.grid.shape)
        st.mark_modified()

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
        """chem(dt/2) -> ERK -> chem(dt/2) under Strang, the ERK stages
        alone otherwise; then the filter pass if ``filtered``. A block
        that exchanges nothing never suspends: its stages call the RHS
        itself."""
        if self._strang:
            yield from self._react(0.5 * dt)
        rhs = self._evaluate if self.axes or self._defer else self.rhs
        self.state.u = yield from self.integrator.stepper(
            rhs, t, self.state.u, dt)
        if self._strang:
            yield from self._react(0.5 * dt)
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

    def resume(self, *slabs):
        """Continue the suspended step with what it waits for."""
        yield from self._pump(slabs)

    def stable_dt(self, cfl) -> float:
        """The block's CFL-stable time step; its property evaluation is
        the one stage 1 of the step it sizes consumes."""
        return self.rhs.stable_dt(cfl=cfl)

    # -- the state, pulled and pushed ----------------------------------------
    def snapshot(self):
        """Copies of the owned block and the Newton temperature cache
        (``None`` when cold): all a bit-exact restart needs."""
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


class S3DSolver:
    """Explicit compressible reacting-flow DNS solver: the one driver.

    Every step is :class:`SolverRankProgram` on each rank of a transport
    world; the driver starts it, serves what the ranks post
    (:meth:`_drive`) and keeps the clock. :meth:`step`, :meth:`run` and
    :meth:`run_resilient` exist here and nowhere else.

    Parameters
    ----------
    state:
        Initial :class:`~repro.core.state.State`. Without ``decomp`` it
        is advanced in place by a world of one in-process rank whose
        program is built around it: :attr:`state`, :attr:`rhs`,
        :attr:`filters` and :attr:`integrator` are that program's.
    config:
        :class:`~repro.core.config.SolverConfig`.
    transport:
        Transport model or None (inviscid).
    reacting:
        Include chemistry source terms.
    telemetry:
        Explicit :class:`~repro.telemetry.Telemetry` backend; overrides
        ``config.telemetry`` and the ``REPRO_TELEMETRY`` environment
        default (:func:`repro.telemetry.for_solver`). Kernel spans use
        the §4 inventory names (INTEGRATE, FILTER, DERIVATIVES, ...).
    decomp, world:
        A decomposition of an all-periodic grid, whose ranks start cold
        from ``state``'s blocks, and its world (``None``: one from
        ``config.transport``, released by :meth:`close`); the state then
        lives on the ranks (:attr:`state` is a gathered snapshot, ``dt``
        explicit, checkpoints per-rank shards) and
        ``config.chem_load_balance`` may ship chemistry between them.
    chemlb_threshold:
        The balancer's trigger: ranks above this multiple of the mean
        modeled load donate cells.
    rank_telemetry:
        A private recording backend per rank (the driver's keeps
        INTEGRATE and the halo traffic): what :meth:`fused_profile`
        merges, like TAU's per-process profiles.
    """

    #: a world of one: no rank to lose (a supervised run always rolls
    #: back and replays) and nobody to ship chemistry cells to
    recovery_policy = "rollback"
    chemlb = None

    def __init__(self, state, config, transport=None, reacting=True,
                 telemetry=None, decomp=None, world=None,
                 chemlb_threshold=1.1, rank_telemetry=False):
        mech, grid = state.mech, state.grid
        config.validate(grid)
        self.config, self.mech, self.grid = config, mech, grid
        self.telemetry = _telemetry.for_solver(telemetry, config.telemetry)
        # Strang splitting moves chemistry out of the ERK right-hand
        # side into two implicit dt/2 half-steps around it; a
        # non-reacting solver (or an inert mechanism) has nothing to split
        strang = (resolve("chemistry_mode", config.chemistry_mode) == "strang"
                  and reacting and mech.n_reactions > 0)
        self.time = 0.0
        self.step_count = 0
        self.checkpoint_hook = None
        self.monitor_history = []  # list of (step, time, {var: (min, max)})
        #: optional :class:`~repro.telemetry.MonitorWriter` fed by
        #: :meth:`record_monitor` (the §9 ASCII monitoring files)
        self.monitor_writer = None
        self._snapshot = None  # (blocks, caches) as of the ranks' state
        self._gstate = None  # gathered view of them, see :attr:`state`
        self._owns_world = world is None
        self._rank_telemetry = bool(rank_telemetry)
        serial = decomp is None
        if serial:
            decomp = CartesianDecomposition(grid.shape, (1,) * grid.ndim,
                                            grid.periodic)
            world = InProcessTransport(1)
            states = [state]
        else:
            if grid.shape != decomp.global_shape:
                raise ValueError("grid and decomposition shapes disagree")
            if world is None:
                world = create_transport(config.transport, size=decomp.size,
                                         telemetry=self.telemetry)
            elif (config.transport is not None
                  and world.name != resolve("transport", config.transport)):
                raise ValueError(
                    f"explicit world is a {world.name!r} transport but "
                    f"comm_transport={config.transport!r} was requested")
            states = [State(mech, grid.block(decomp.local_slices(rank)), u)
                      for rank, u in enumerate(decomp.scatter(state.u, 1))]
            self.recovery_policy = resolve("parallel_recovery",
                                           config.parallel_recovery)
            policy = resolve("chem_load_balance", config.chem_load_balance)
            if policy != "off" and reacting and mech.n_reactions:
                self.chemlb = chemlb.ChemistryLoadBalancer(
                    mech, world, policy=policy, threshold=chemlb_threshold,
                    telemetry=self.telemetry)
        self.decomp, self.world = decomp, world
        self.halo = HaloExchanger(decomp, world, telemetry=self.telemetry)
        if self.halo.axes and not all(grid.periodic + decomp.periodic):
            raise ValueError("a decomposed domain must be all-periodic: "
                             "non-periodic faces need a world of one")
        # a block must be able to hand its neighbour a filter ghost zone
        if any(decomp.global_shape[a] // decomp.proc_shape[a] < FILTER_HALF_WIDTH
               for a in self.halo.axes):
            raise ValueError(
                f"{decomp.proc_shape} ranks over {decomp.global_shape} points: "
                f"a decomposed axis needs at least {FILTER_HALF_WIDTH} points "
                f"per rank")
        # one rank program per rank, wherever the transport runs ranks:
        # in-process ones share the driver's live telemetry backend
        # through local_factory; a revived rank is rebuilt from the args
        per_rank_args = [
            (st, self.halo.axes, config, transport, reacting, strang,
             self.chemlb is not None, self._rank_telemetry)
            for st in states
        ]
        local_factory = None  # rank_telemetry: programs build their own
        if not self._rank_telemetry:
            def local_factory(rank):
                return SolverRankProgram(rank, *per_rank_args[rank],
                                         telemetry=self.telemetry)
        world.start_programs(SolverRankProgram, per_rank_args,
                             local_factory=local_factory)
        #: the world of one's program, whose objects are this solver's
        self._program = world._programs[0] if serial else None
        if serial:
            self.filters = self._program.filters
            self.integrator = self._program.integrator
            self._chem = self._program._chem
        else:
            # the ranks' scheme; they mirror the stage hook set on it
            self.integrator = ERKIntegrator(config.scheme)
            self._chem = None
            if strang and self.chemlb is not None:
                from repro.chemistry.implicit import ImplicitChemistry

                # the balancer advances every rank's reactors here
                self._chem = ImplicitChemistry(mech, telemetry=self.telemetry)
        from repro.observability import for_solver

        # last: the watchdog set depends on what the finished solver offers
        self.health = for_solver(self, config.observability)

    # -- the state: a world of one's own, or pulled from the ranks ----------
    @property
    def state(self) -> State:
        """The global :class:`~repro.core.state.State`: a world of
        one's own, live; on a decomposed domain a read-only snapshot
        gathered once after the ranks have moved, for inspection, not a
        handle (write through :meth:`set_state`)."""
        if self._program is not None:
            return self._program.state
        if self._gstate is None:
            u = self.gather_state()
            u.flags.writeable = False
            self._gstate = State(self.mech, self.grid, u)
        return self._gstate

    @property
    def rhs(self) -> CompressibleRHS:
        """A world of one's RHS (a decomposed domain has one per rank,
        on the ranks); assigning one swaps the program's."""
        return self._program.rhs

    @rhs.setter
    def rhs(self, rhs) -> None:
        self._program.rhs = rhs

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
        self._start("install", [(b,) for b in blocks] if caches is None
                    else list(zip(blocks, caches)))

    @property
    def locals(self) -> list:
        """Per-rank owned conserved blocks, a read-only snapshot (write
        through :meth:`set_state` or :meth:`install_shards`)."""
        return list(self._pull()[0])

    @property
    def caches(self) -> list:
        """The ranks' Newton temperature caches as of :attr:`locals`
        (``None``: cold), which a bitwise restart must restore."""
        return list(self._pull()[1])

    def set_state(self, global_u: np.ndarray) -> None:
        """Scatter a global conserved array to the ranks."""
        self._push(self.decomp.scatter(np.asarray(global_u, dtype=float), 1))

    def gather_state(self) -> np.ndarray:
        return self.decomp.gather(self.locals, 1)

    # -- the one time step ---------------------------------------------------
    def compute_dt(self) -> float:
        """The fixed ``config.dt``, or the world of one's CFL-stable
        ``stable_dt``; a decomposed domain is driven by an explicit dt."""
        if self.config.dt is not None:
            return self.config.dt
        if self._program is None:
            raise ValueError(
                "a decomposed solver is driven by an explicit dt: pass one "
                "to step() / run() / run_resilient()")
        return self._program.stable_dt(self.config.cfl)

    def _start(self, method, payloads=None) -> list:
        """Call ``method`` on every rank; the ranks leave the state the
        snapshots were taken of."""
        self._snapshot = self._gstate = None
        return self.world.call_all(method, payloads)

    def _drive(self, replies, dt) -> None:
        """Serve the ranks until they report done: route the slabs they
        posted to their neighbours, or hand their reaction inputs to the
        chemistry balancer (``"chem"``: the RHS sources; ``"strang"``: a
        ``dt/2`` reactor half-step), and resume them with the answer."""
        while replies[0] is not None:
            tag = replies[0][0]
            posted = [reply[1:] for reply in replies]
            if tag == "chem":
                payloads = [(w,) for w in self.chemlb.production_rates(posted)]
            elif tag == "strang":
                with self.telemetry.span("CHEMISTRY_IMPLICIT"):
                    payloads = [(Y1,) for _, Y1 in self.chemlb.advance_states(
                        posted, 0.5 * dt, self._chem)]
            else:
                payloads = self.halo.route(posted, axis=tag)
            replies = self._start("resume", payloads)

    def step(self, dt: float | None = None) -> float:
        """Advance one time step on every rank (chem(dt/2) → transport(dt)
        → chem(dt/2) under Strang, else one ERK step of the reacting
        RHS; every ``filter_interval``-th ends in a filter pass);
        returns the dt used."""
        if dt is None:
            dt = self.compute_dt()
        interval = self.config.filter_interval
        filtered = bool(interval and (self.step_count + 1) % interval == 0)
        guarded = self.integrator.stage_hook is not None
        with self.telemetry.span("INTEGRATE"):
            try:
                self._drive(self._start(
                    "advance", [(self.time, dt, filtered, guarded)]
                    * self.decomp.size), dt)
            except NonFiniteStageError as err:  # the armed RK stage guard
                self.health.stage_trip(*err.args)
        self.telemetry.gauge("solver.dt").set(dt)
        self.telemetry.counter("solver.steps").inc()
        self.time += dt
        self.step_count += 1
        return dt

    def run(self, n_steps: int, dt: float | None = None,
            monitor_interval: int = 0, checkpoint_interval: int = 0):
        """Advance ``n_steps`` steps (of ``dt``, or of the solver's own
        choosing), recording the monitor and firing the checkpoint hook
        at the given intervals. An enabled health monitor checks its
        watchdogs after each step (a trip raises
        :class:`~repro.observability.watchdogs.WatchdogTripError`); a
        disabled one costs one attribute check per step."""
        health = self.health
        checkpoint = self.checkpoint_hook if checkpoint_interval else None
        for _ in range(n_steps):
            if health.enabled:
                t0 = health.clock()
                used = self.step(dt)
                health.on_step(used, health.clock() - t0)
            else:
                self.step(dt)
            if monitor_interval and self.step_count % monitor_interval == 0:
                self.record_monitor()
            if (checkpoint is not None
                    and self.step_count % checkpoint_interval == 0):
                with self.telemetry.span("CHECKPOINT"):
                    checkpoint(self.step_count, self.time, self.state)

    def run_resilient(self, fs, n_steps: int, dt: float | None = None,
                      **kwargs):
        """Advance ``n_steps`` under the self-healing supervisor
        (:func:`~repro.resilience.supervisor.run_resilient`: its
        keywords, its :class:`~repro.resilience.supervisor.RunReport`):
        checkpoints in a verified ring on ``fs``, recovery under
        :attr:`recovery_policy` and a bit-exact replay."""
        from repro.resilience.supervisor import run_resilient

        return run_resilient(self, fs, n_steps, dt=dt, **kwargs)

    # -- recovery plumbing: what the supervisor asks of a solver -----------
    def checkpoint_ring(self, fs, **kwargs):
        """A fresh checkpoint ring of this solver's kind on ``fs``:
        whole-state checkpoints of a world of one, per-rank shards of a
        decomposed domain."""
        if self._program is not None:
            return CheckpointRing(fs, **kwargs)
        return DistributedCheckpointRing(fs, **kwargs)

    def failed_ranks(self) -> set:
        return self.world.failed_ranks

    def recover(self, action: str, ring, dead) -> dict:
        """Carry out the supervisor's recovery action: ``respawn``
        revives the dead ranks (fresh worker + rank program); then, as a
        plain ``rollback`` does, purge the abandoned timeline's
        in-flight messages and reinstall the newest checkpoint of
        ``ring`` that verifies."""
        if action == "respawn":
            self.world.revive_ranks(dead)
        self.world.reset_channels()
        if self._program is not None:
            return ring.restore_state(self)
        return ring.restore(self)

    def install_shards(self, step: int, time: float, blocks, caches) -> None:
        """Adopt per-rank checkpoint shards (owned blocks and Newton
        caches) as the solver state: installed as saved, the next
        temperature solve starts where the uninterrupted run's did, so
        restore-and-replay is bitwise. One cold cache makes every cache
        cold: a cold start is always correct, a mixed one is not."""
        if len(blocks) != self.decomp.size:
            raise ValueError(
                f"{len(blocks)} shard blocks for {self.decomp.size} ranks"
            )
        self.time = float(time)
        self.step_count = int(step)
        if any(c is None for c in caches):
            caches = [None] * self.decomp.size
        self._push(blocks, caches)

    def record_monitor(self) -> dict:
        """Record per-variable min/max (§9's ASCII monitoring data)."""
        mm = self.state.min_max()
        self.monitor_history.append((self.step_count, self.time, mm))
        if self.monitor_writer is not None:
            self.monitor_writer.write_step(self.step_count, self.time, mm)
        return mm

    def profile_report(self) -> str:
        """TAU-style per-kernel exclusive-time profile (§4, Fig 2).

        Empty string when telemetry is disabled.
        """
        return self.telemetry.profile_report()

    def fused_profile(self):
        """Cross-rank fused profile of the per-rank kernel telemetry
        (``rank_telemetry=True``): every rank's snapshot, merged like
        TAU's per-process profiles (:mod:`repro.observability.fusion`)."""
        if not self._rank_telemetry:
            raise ValueError(
                "fused_profile needs per-rank telemetry; construct the "
                "solver with rank_telemetry=True"
            )
        from repro.observability.fusion import fuse_profiles

        return fuse_profiles(self.world.call_all("telemetry_snapshot"))

    def close(self) -> None:
        """Release the transport when this solver created it."""
        if self._owns_world:
            self.world.close()

    def __enter__(self) -> "S3DSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
