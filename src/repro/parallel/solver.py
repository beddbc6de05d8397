"""Distributed stencil application and a rank-parallel periodic DNS.

Two levels of fidelity to S3D's parallelization (§2.6):

* :func:`parallel_derivative` / :func:`parallel_filter` — the
  per-operator pattern: exchange a stencil-width halo for the quantity
  being differentiated, apply the local stencil, keep the owned block.
  This is what S3D's derivative module does for every gradient, and the
  message traffic it generates (~80 kB messages for a 50^3 block) is the
  observable of the paper's communication discussion.

* :class:`ParallelPeriodicSolver` — a full rank-parallel DNS on periodic
  boxes using extended-block evaluation: each rank exchanges a deep halo
  of the conserved state once per RK stage, evaluates the *serial* RHS
  on its ghost-extended block, and keeps the owned interior. With halo
  width >= 2x the derivative stencil half-width the owned results are
  bitwise identical to the serial solver (gradients of gradients are
  fully supported), which the test suite asserts.
"""

from __future__ import annotations

import numpy as np

from repro import telemetry as _telemetry
from repro.chemistry.implicit import ImplicitChemistry
from repro.core.config import check_constraints, resolve
from repro.core.derivatives import DerivativeOperator, HALF_WIDTH
from repro.core.filters import FilterOperator, FILTER_HALF_WIDTH
from repro.core.erk import ERKIntegrator
from repro.core.grid import Grid
from repro.core.rhs import CompressibleRHS
from repro.core.state import State, strang_apply_update, strang_reactor_inputs
from repro.parallel import chemlb
from repro.parallel.comm import create_transport
from repro.parallel.halo import HaloExchanger

#: halo depth for nested-gradient (viscous-flux) bitwise equivalence
DEEP_HALO = 2 * HALF_WIDTH + 1  # 9 >= filter's 5 as well


class SolverRankProgram:
    """One rank's compute unit, living wherever the transport runs ranks.

    Owns the rank's ghost-extended :class:`~repro.core.state.State`,
    :class:`~repro.core.rhs.CompressibleRHS` evaluator, and filter
    stack. The driver ships ghost-extended conserved blocks in and gets
    owned-interior results back, so the program needs no knowledge of
    the decomposition beyond its own interior slices — which is what
    makes it picklable and transport-agnostic: the in-process backend
    holds these objects directly, the multiprocessing backend
    constructs them inside spawn workers from the same arguments.

    ``telemetry=None`` resolves per the environment unless
    ``rank_telemetry`` asks for a private recording backend (the
    per-process profile that cross-rank fusion merges); in-process
    drivers may instead inject a live shared backend via the
    ``local_factory`` path.
    """

    def __init__(self, rank, mechanism, ext_shape, spacings, interior,
                 transport=None, reacting=True, filter_alpha=0.2,
                 rhs_engine=None, rhs_backend=None, defer_reactions=False,
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
        ext_shape = tuple(int(n) for n in ext_shape)
        lengths = tuple(dx * (n - 1) for dx, n in zip(spacings, ext_shape))
        g = Grid(ext_shape, lengths, periodic=(False,) * len(ext_shape))
        self.state = State(mechanism, g)
        # deferred-reaction delegate: the RHS skips its source terms and
        # stashes (rho, T, Y) for the driver-side chemistry balancer
        delegate = (lambda rhs, t, rho, T, Y: None) if defer_reactions else None
        self.rhs = CompressibleRHS(self.state, transport=transport,
                                   boundaries={}, reacting=reacting,
                                   telemetry=telemetry, engine=rhs_engine,
                                   reaction_delegate=delegate,
                                   backend=rhs_backend)
        self.filters = [
            FilterOperator(n, periodic=False, alpha=filter_alpha,
                           telemetry=telemetry, backend=self.rhs.backend)
            for n in ext_shape
        ]
        self.interior = tuple(interior)
        self.interior1 = (slice(None),) + tuple(interior)

    def rhs_block(self, t, ext):
        """RHS on the ghost-extended block; returns the owned interior."""
        du_ext = self.rhs(t, ext)
        return np.ascontiguousarray(du_ext[self.interior1])

    def rhs_block_deferred(self, t, ext):
        """As :meth:`rhs_block` but with reactions deferred: also returns
        the interior (rho, T, Y) the chemistry balancer needs."""
        du = self.rhs_block(t, ext)
        rho, T, Y = self.rhs.last_reaction_inputs
        return (du,
                np.ascontiguousarray(rho[self.interior]),
                np.ascontiguousarray(T[self.interior]),
                np.ascontiguousarray(Y[self.interior1]))

    def filter_block(self, ext):
        """Filter the extended block along every axis; returns interior."""
        for axis, filt in enumerate(self.filters):
            filt.apply(ext, axis=1 + axis, out=ext)
        return np.ascontiguousarray(ext[self.interior1])

    def cache_block(self):
        """Owned-interior Newton temperature cache, or None when cold.

        The cache is the only worker-resident numerical state a bit-
        exact restart needs (the conserved blocks live driver-side):
        the next temperature solve must start from the same initial
        guess the uninterrupted run would have used.
        """
        cache = getattr(self.state, "_t_cache", None)
        if cache is None or cache.shape != self.state.u.shape[1:]:
            return None
        return np.ascontiguousarray(cache[self.interior])

    def install_cache(self, ext_cache):
        """Install a ghost-extended Newton temperature cache (or clear
        it with None). Ghost values equal the owning rank's interior
        values — per-cell Newton solves are batch-shape independent, so
        a halo exchange of interior caches rebuilds the extended cache
        bitwise."""
        if ext_cache is None:
            self.state._t_cache = None
        else:
            self.state._t_cache = np.array(ext_cache, dtype=float, copy=True)
        return None

    def telemetry_snapshot(self) -> dict:
        return self.telemetry.snapshot()


class ParallelField:
    """Per-rank owned blocks of a global field plus exchange machinery."""

    def __init__(self, decomp, world, global_array=None, leading_axes: int = 0,
                 width: int = HALF_WIDTH):
        self.decomp = decomp
        self.world = world
        self.leading_axes = int(leading_axes)
        self.halo = HaloExchanger(decomp, world, width=width)
        self.locals: list = (
            decomp.scatter(np.asarray(global_array, dtype=float), leading_axes)
            if global_array is not None
            else [None] * decomp.size
        )

    def exchange(self) -> list:
        """Ghost-extended per-rank arrays."""
        return self.halo.exchange(self.locals, self.leading_axes)

    def gather(self) -> np.ndarray:
        return self.decomp.gather(self.locals, self.leading_axes)


def parallel_derivative(global_f, decomp, world, axis: int, spacing: float,
                        periodic: bool = True) -> np.ndarray:
    """Distributed 8th-order derivative of a global field.

    Scatters, exchanges a width-4 halo, differentiates each block
    locally, and gathers the owned interiors — the S3D derivative-module
    pattern. Valid for periodic axes or interior-only comparisons.
    """
    field = ParallelField(decomp, world, global_f, width=HALF_WIDTH)
    extended = field.exchange()
    out_locals = []
    for rank in range(decomp.size):
        ext = extended[rank]
        op = DerivativeOperator(ext.shape[axis], spacing, periodic=False)
        d = op.apply(ext, axis=axis)
        out_locals.append(d[field.halo.interior_slices(rank)])
    return decomp.gather(out_locals)


def parallel_filter(global_f, decomp, world, axis: int, alpha: float = 1.0) -> np.ndarray:
    """Distributed 10th-order filter along ``axis`` (periodic axes)."""
    field = ParallelField(decomp, world, global_f, width=FILTER_HALF_WIDTH)
    extended = field.exchange()
    out_locals = []
    for rank in range(decomp.size):
        ext = extended[rank]
        op = FilterOperator(ext.shape[axis], periodic=False, alpha=alpha)
        d = op.apply(ext, axis=axis)
        out_locals.append(d[field.halo.interior_slices(rank)])
    return decomp.gather(out_locals)


class ParallelPeriodicSolver:
    """Rank-parallel DNS on an all-periodic box, bitwise-matching serial.

    Parameters
    ----------
    mechanism, grid:
        As for the serial solver; all grid axes must be periodic and
        uniformly spaced.
    decomp, world:
        Decomposition and transport world. ``world=None`` builds one
        via :func:`repro.parallel.comm.create_transport` from
        ``comm_transport``, and :meth:`close` releases it.
    comm_transport, rhs_engine, rhs_backend, chemistry_mode,
    chemistry_method, fixed_substeps, chem_load_balance,
    parallel_recovery, observability, tracing:
        The run-time knobs of :data:`repro.core.config.KNOBS`;
        ``None`` defers to each knob's ``REPRO_*`` variable and default.
        ``comm_transport`` is the ``transport`` knob (``transport``
        here is the *molecular* transport model); on an explicit
        ``world`` it must agree with the world's backend.
    transport, reacting, scheme, filter_alpha:
        Passed through to per-rank RHS/filter construction.
    rhs_engine, rhs_backend:
        Forwarded to every per-rank
        :class:`~repro.core.rhs.CompressibleRHS`. Both engines are
        bitwise identical, so the serial-equivalence guarantee holds for
        either. Backend names, not instances, cross the transport
        boundary — each rank process resolves its own backend and JIT
        caches.
    chemistry_mode, chemistry_method:
        With ``"strang"`` the rank RHS is built non-reacting and the
        driver runs implicit chemistry half-steps around the RK
        transport step, exactly as the serial solver does; per-cell
        implicit results are bitwise independent of batch shape, so
        serial equivalence survives the split.
    chem_load_balance:
        When active in explicit mode, per-rank RHS evaluations defer
        their reaction source terms and a
        :class:`~repro.parallel.chemlb.ChemistryLoadBalancer` evaluates
        the owned interior cells instead, shipping batches from
        over-threshold ranks to underloaded ones; in strang mode the
        balancer ships whole per-cell implicit solves, costed by each
        cell's measured substep count from the previous half-step.
        Per-cell kinetics and implicit integration are
        shape-independent, so conserved state stays bitwise identical to
        ``"off"`` for every policy in either mode.
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
        parallel watchdog set runs on the gathered global state (NaN
        sentinel, bounds, wall-time anomaly, plus conservation at
        ``"full"`` — the grid is all-periodic by construction); the
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
        if not all(grid.periodic):
            raise ValueError("ParallelPeriodicSolver requires an all-periodic grid")
        if grid.shape != decomp.global_shape:
            raise ValueError("grid and decomposition shapes disagree")
        self.mech = mechanism
        self.grid = grid
        self.decomp = decomp
        self.scheme = ERKIntegrator(scheme).scheme  # raises on unknown name
        self.tracing = resolve("tracing", tracing)
        self.telemetry = _telemetry.for_solver(telemetry,
                                               tracing=self.tracing)
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
        self.filter_interval = int(filter_interval)
        self.recovery_policy = resolve("parallel_recovery", parallel_recovery)
        self.halo = HaloExchanger(decomp, world, width=DEEP_HALO,
                                  telemetry=self.telemetry)
        self.spacings = [grid.spacing(a) for a in range(grid.ndim)]
        self.chemistry_mode = resolve("chemistry_mode", chemistry_mode)
        check_constraints({"fixed_substeps": fixed_substeps,
                           "chemistry_mode": self.chemistry_mode})
        split = (self.chemistry_mode == "strang" and reacting
                 and mechanism.n_reactions > 0)
        self._strang_chem = None
        if split:
            self._strang_chem = ImplicitChemistry(
                mechanism, closure="constant-volume",
                method=chemistry_method,
                fixed_substeps=fixed_substeps,
                telemetry=self.telemetry,
            )
        policy = resolve("chem_load_balance", chem_load_balance)
        self.chemlb = None
        if policy != "off" and reacting and mechanism.n_reactions:
            self.chemlb = chemlb.ChemistryLoadBalancer(
                mechanism, world, policy=policy,
                cost_model=chemlb_cost_model, threshold=chemlb_threshold,
                work_model=chemlb_work_model, telemetry=self.telemetry,
            )
        # when balancing in explicit mode, rank RHS defers its reaction
        # sources: the program stashes (rho, T, Y), returns them with
        # the du block, and _rhs_all adds balanced wdot to the owned
        # interior instead. In strang mode chemistry never enters the
        # RHS — the balancer (if any) ships whole implicit cell solves
        # from the driver-side half-steps instead.
        self._defer = self.chemlb is not None and not split
        self._rank_telemetry = bool(rank_telemetry)
        # kept so recovery can rebuild rank programs on a new or revived
        # world with exactly the original construction arguments
        self._build_params = dict(transport=transport,
                                  reacting=reacting and not split,
                                  filter_alpha=filter_alpha,
                                  rhs_engine=rhs_engine,
                                  rhs_backend=rhs_backend)
        # species layout of the conserved array, needed driver-side to
        # add balanced reaction sources without per-rank State objects
        self._n_transported = mechanism.n_species - 1
        self._species_slice = slice(2 + grid.ndim,
                                    2 + grid.ndim + self._n_transported)
        self._start_rank_programs()
        self.locals: list = [None] * decomp.size
        self.time = 0.0
        self.step_count = 0
        self._gstate = None  # lazy gathered-state view for health checks
        self._gstate_step = -1
        self.health = self._resolve_health(observability)

    def _start_rank_programs(self) -> None:
        """(Re)start one rank program per rank on the current world.

        Per-rank programs live wherever the transport runs ranks: the
        in-process backend holds them in the driver (and may share the
        driver's live telemetry backend through local_factory, which
        out-of-process backends ignore in favour of the pickled args).
        """
        p = self._build_params
        per_rank_args = [
            (self.mech, self.halo.extended_shape(rank), self.spacings,
             self.halo.interior_slices(rank), p["transport"], p["reacting"],
             p["filter_alpha"], p["rhs_engine"], p["rhs_backend"],
             self._defer, self._rank_telemetry, self.tracing)
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

    @classmethod
    def from_config(cls, mechanism, grid, decomp, config, world=None,
                    transport=None, reacting=True, **kwargs):
        """Build from a :class:`~repro.core.config.SolverConfig`.

        Maps the config fields the parallel solver understands —
        ``scheme``, ``filter_interval``, ``filter_alpha``,
        ``rhs_engine``, ``chemistry_mode``, ``chemistry_method``,
        ``chem_load_balance``, ``observability``, and ``transport``
        (the communication backend, forwarded as ``comm_transport``).
        Extra keyword arguments override.
        """
        opts = dict(
            scheme=config.scheme,
            filter_interval=config.filter_interval,
            filter_alpha=config.filter_alpha,
            rhs_engine=config.rhs_engine,
            rhs_backend=config.rhs_backend,
            chemistry_mode=config.chemistry_mode,
            chemistry_method=config.chemistry_method,
            chem_load_balance=config.chem_load_balance,
            observability=config.observability,
            # the constructor applies config.tracing to this backend
            telemetry=_telemetry.for_solver(enabled=config.telemetry,
                                            tracing=False),
            comm_transport=config.transport,
            parallel_recovery=config.parallel_recovery,
            tracing=config.tracing,
            fixed_substeps=config.fixed_substeps,
        )
        opts.update(kwargs)
        return cls(mechanism, grid, decomp, world, transport=transport,
                   reacting=reacting, **opts)

    # ------------------------------------------------------------------
    def set_state(self, global_u: np.ndarray) -> None:
        """Scatter a global conserved array to the ranks."""
        self.locals = self.decomp.scatter(np.asarray(global_u, dtype=float), 1)

    def gather_state(self) -> np.ndarray:
        return self.decomp.gather(self.locals, 1)

    def _rhs_all(self, t, locals_) -> list:
        """Exchange + per-rank RHS; returns owned-interior dU/dt blocks.

        The halo exchange stays in the driver (it is the communication
        pattern under test); the per-rank RHS evaluations fan out over
        the transport's execution plane — serial on the in-process
        reference, one process per rank on the multiprocessing backend.
        """
        extended = self.halo.exchange(locals_, leading_axes=1)
        payloads = [(t, ext) for ext in extended]
        if not self._defer:
            return self.world.call_all("rhs_block", payloads)
        # reaction sources were deferred: evaluate the owned interior
        # cells through the balancer and add them exactly where the
        # serial RHS would (du[species] += wdot_mass[:nt])
        results = self.world.call_all("rhs_block_deferred", payloads)
        out = [r[0] for r in results]
        prims = [(r[1], r[2], r[3]) for r in results]
        wdots = self.chemlb.production_rates(prims)
        for rank in range(self.decomp.size):
            out[rank][self._species_slice] += wdots[rank][:self._n_transported]
        return out

    def step(self, dt: float) -> None:
        """One time step across all ranks.

        With ``chemistry_mode="strang"``: chem(dt/2) → transport RK
        step → chem(dt/2), mirroring the serial solver's split exactly
        (the chemistry is per-cell and batch-shape independent, so the
        rank decomposition cannot perturb it); otherwise one low-storage
        RK step of the full RHS.
        """
        if self._strang_chem is not None:
            self._strang_chemistry(0.5 * dt)
        sch = self.scheme
        with self.telemetry.span("INTEGRATE"):
            u = [np.array(b, copy=True) for b in self.locals]
            du = [np.zeros_like(b) for b in u]
            for i in range(sch.stages):
                rhs_blocks = self._rhs_all(self.time + sch.c[i] * dt, u)
                for r in range(self.decomp.size):
                    du[r] *= sch.a[i]
                    du[r] += dt * rhs_blocks[r]
                    u[r] += sch.b[i] * du[r]
        self.locals = u
        if self._strang_chem is not None:
            self._strang_chemistry(0.5 * dt)
        self.time += dt
        self.step_count += 1
        if self.filter_interval and self.step_count % self.filter_interval == 0:
            self.apply_filter()

    def _strang_chemistry(self, half_dt: float) -> None:
        """Advance every rank block's reactors by ``half_dt``.

        Each block decodes ``(rho, e_int, Y)`` exactly as the serial
        path does; with a load balancer the per-cell implicit solves are
        planned and shipped between ranks using the *measured* substep
        counts of the previous half-step as the cost signal, otherwise
        every rank just integrates its own cells.
        """
        mech = self.mech
        ndim = self.grid.ndim
        states = [strang_reactor_inputs(b, ndim, mech.n_species)
                  for b in self.locals]
        with self.telemetry.span("CHEMISTRY_IMPLICIT"):
            if self.chemlb is not None:
                results = self.chemlb.advance_states(
                    states, half_dt, self._strang_chem
                )
            else:
                tracelog = getattr(self.telemetry, "tracelog", None)
                results = []
                for rank, (rho, e, Y) in enumerate(states):
                    sid = (tracelog.begin_span("CHEMISTRY_CELLS", rank)
                           if tracelog is not None else None)
                    results.append(
                        self._strang_chem.advance_energy(rho, e, Y,
                                                         half_dt)[:2]
                    )
                    if sid is not None:
                        tracelog.end_span(sid, cells=int(rho.size))
        for b, (_, Y1) in zip(self.locals, results):
            strang_apply_update(b, ndim, mech.n_species, Y1)

    def apply_filter(self) -> None:
        extended = self.halo.exchange(self.locals, leading_axes=1)
        self.locals = self.world.call_all(
            "filter_block", [(ext,) for ext in extended]
        )

    # -- observability ---------------------------------------------------
    @property
    def state(self) -> State:
        """Gathered global :class:`~repro.core.state.State` view.

        Re-gathered at most once per step (health checks share the same
        view); the returned object is a snapshot for inspection, not a
        handle into the per-rank blocks.
        """
        if self._gstate is None:
            self._gstate = State(self.mech, self.grid)
        if self._gstate_step != self.step_count:
            self._gstate.u = self.gather_state()
            self._gstate.mark_modified()
            self._gstate_step = self.step_count
        return self._gstate

    def _resolve_health(self, mode):
        from repro import observability as obs

        mode = resolve("observability", mode)
        if mode == "off":
            return obs.NULL_HEALTH
        dogs = [obs.NaNSentinel(), obs.BoundsWatchdog(),
                obs.WallTimeAnomalyWatchdog()]
        if mode == "full":
            dogs.append(obs.ConservationWatchdog())
        return obs.HealthMonitor(
            self, watchdogs=dogs, interval=1,
            recorder=obs.FlightRecorder(capacity=256 if mode == "full" else 64),
            record_telemetry_delta=(mode == "full" and self.telemetry.enabled),
        )

    def run(self, n_steps: int, dt: float) -> None:
        """Advance ``n_steps`` fixed-dt steps with health monitoring.

        With observability off this is exactly ``n_steps`` calls to
        :meth:`step` (one attribute check per step of overhead).
        """
        health = self.health
        for _ in range(n_steps):
            if health.enabled:
                t0 = health.clock()
                self.step(dt)
                health.on_step(dt, health.clock() - t0)
            else:
                self.step(dt)

    def run_resilient(self, fs, n_steps: int, dt: float, **kwargs):
        """Supervised :meth:`run`: coordinated parallel checkpoints plus
        rank-failure recovery under :attr:`recovery_policy`.

        Thin wrapper over
        :func:`repro.resilience.distributed.run_parallel_resilient`;
        see that module for checkpoint-ring and policy semantics.
        """
        from repro.resilience.distributed import run_parallel_resilient

        return run_parallel_resilient(self, fs, n_steps, dt,
                                      policy=self.recovery_policy, **kwargs)

    # -- recovery plumbing ------------------------------------------------
    def capture_caches(self) -> list:
        """Owned-interior Newton temperature caches, one block per rank
        (``None`` for ranks whose cache is cold). One execution-plane
        collective; used by checkpointing so a restored run replays the
        exact Newton starting points and stays bitwise."""
        return self.world.call_all("cache_block")

    def _install_caches(self, interior_caches) -> None:
        """Push per-rank interior caches back as extended-shape caches.

        Ghost cache values equal the owner's interior values (per-cell
        Newton is batch-shape independent), so a halo exchange of the
        interior blocks rebuilds each rank's extended cache bitwise.
        Any ``None`` block invalidates every cache: a cold start is
        always correct, a mixed hot/cold install is not.
        """
        if any(c is None for c in interior_caches):
            payloads = [(None,) for _ in range(self.decomp.size)]
        else:
            arrs = [np.asarray(c, dtype=float) for c in interior_caches]
            extended = self.halo.exchange(arrs, leading_axes=0)
            payloads = [(ext,) for ext in extended]
        self.world.call_all("install_cache", payloads)

    def install_shards(self, step: int, time: float, blocks, caches) -> None:
        """Adopt per-rank checkpoint shards as the current solver state."""
        if len(blocks) != self.decomp.size:
            raise ValueError(
                f"{len(blocks)} shard blocks for {self.decomp.size} ranks"
            )
        self.locals = [np.array(b, dtype=float, copy=True) for b in blocks]
        self.time = float(time)
        self.step_count = int(step)
        self._gstate_step = -1
        self._install_caches(list(caches))

    def install_checkpoint(self, data: dict) -> None:
        """Adopt a *global* checkpoint dict (``u``/``time``/``step`` and
        optional ``cache``) — the shrink path, where the shards were
        gathered under the old decomposition and must be re-scattered
        under the current one."""
        self.set_state(data["u"])
        self.time = float(data["time"])
        self.step_count = int(data["step"])
        self._gstate_step = -1
        cache = data.get("cache")
        if cache is None:
            interior = [None] * self.decomp.size
        else:
            interior = self.decomp.scatter(np.asarray(cache, dtype=float), 0)
        self._install_caches(interior)

    def respawn_ranks(self, ranks) -> None:
        """Bring dead ranks back (fresh worker + rank program). The
        caller is responsible for restoring state afterwards; a revived
        program starts from the initial condition."""
        self.world.revive_ranks(ranks)

    def reconfigure(self, decomp) -> None:
        """Re-decompose onto a new (smaller) world — the shrink policy.

        Builds a fresh transport of the same backend with
        ``decomp.size`` ranks, rebuilds the halo exchanger and rank
        programs, and re-seeds the chemistry balancer's cost model.
        State is *not* carried over; call :meth:`install_checkpoint`
        after reconfiguring.
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
        world = create_transport(old_world.name, size=decomp.size, **kwargs)
        self.decomp = decomp
        self.world = world
        self.halo = HaloExchanger(decomp, world, width=DEEP_HALO,
                                  telemetry=self.telemetry)
        if self.chemlb is not None:
            self.chemlb.rebind(world)
        self._start_rank_programs()
        self.locals = [None] * decomp.size
        self._gstate_step = -1
        if self._owns_world:
            old_world.close()
        self._owns_world = True

    @property
    def rank_telemetries(self):
        """Per-rank telemetry backends when reachable from the driver
        (in-process transport with ``rank_telemetry=True``), else None —
        on out-of-process transports use :meth:`fused_profile`, which
        ships snapshots instead of live objects."""
        programs = self.world.programs
        if not self._rank_telemetry or programs is None:
            return None
        return [p.telemetry for p in programs]

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
