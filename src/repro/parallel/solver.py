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
  width >= 2x the derivative stencil half-width the owned results match
  the serial solver to round-off (gradients of gradients are fully
  supported; a rank's ghost-extended grid recomputes its spacing, so
  the match is 1e-16-relative, not bitwise), which the test suite
  asserts for every registered ERK scheme.
"""

from __future__ import annotations

import math

import numpy as np

from repro import telemetry as _telemetry
from repro.core.config import SolverConfig, periodic_boundaries, resolve
from repro.core.derivatives import DerivativeOperator, HALF_WIDTH
from repro.core.filters import FILTER_HALF_WIDTH, FilterOperator, filter_operators
from repro.core.grid import Grid
from repro.core.rhs import CompressibleRHS
from repro.core.solver import S3DSolver
from repro.core.state import State
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
        self.filters = filter_operators(g, alpha=filter_alpha,
                                        telemetry=telemetry,
                                        backend=self.rhs.backend)
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


def _parallel_stencil(global_f, decomp, world, axis: int, width: int,
                      make_op) -> np.ndarray:
    """The S3D derivative-module pattern: scatter, exchange a
    ``width``-deep halo, apply ``make_op(n)`` along ``axis`` of each
    ghost-extended block, gather the owned interiors."""
    halo = HaloExchanger(decomp, world, width=width)
    extended = halo.exchange(decomp.scatter(np.asarray(global_f, dtype=float)))
    return decomp.gather([
        make_op(ext.shape[axis]).apply(ext, axis=axis)[halo.interior_slices(rank)]
        for rank, ext in enumerate(extended)
    ])


def parallel_derivative(global_f, decomp, world, axis: int,
                        spacing: float) -> np.ndarray:
    """Distributed 8th-order derivative of a global field (width-4
    halo). Valid for periodic axes or interior-only comparisons."""
    return _parallel_stencil(
        global_f, decomp, world, axis, HALF_WIDTH,
        lambda n: DerivativeOperator(n, spacing, periodic=False))


def parallel_filter(global_f, decomp, world, axis: int,
                    alpha: float = 1.0) -> np.ndarray:
    """Distributed 10th-order filter along ``axis`` (periodic axes)."""
    return _parallel_stencil(
        global_f, decomp, world, axis, FILTER_HALF_WIDTH,
        lambda n: FilterOperator(n, periodic=False, alpha=alpha))


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
    """Rank-parallel DNS on an all-periodic box, matching serial to
    round-off.

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
        Forwarded to every per-rank
        :class:`~repro.core.rhs.CompressibleRHS`. Both engines are
        bitwise identical, so the serial-equivalence guarantee holds for
        either. Backend names, not instances, cross the transport
        boundary — each rank process resolves its own backend and JIT
        caches.
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
        if not all(grid.periodic):
            raise ValueError("ParallelPeriodicSolver requires an all-periodic grid")
        if grid.shape != decomp.global_shape:
            raise ValueError("grid and decomposition shapes disagree")
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
        self.halo = HaloExchanger(decomp, world, width=DEEP_HALO,
                                  telemetry=self.telemetry)
        policy = resolve("chem_load_balance", chem_load_balance)
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
        self._defer = self.chemlb is not None and self._chem is None
        self._rank_telemetry = bool(rank_telemetry)
        # what every rank program is built from after its own geometry;
        # kept so recovery can rebuild programs on a new or revived
        # world with exactly the original construction arguments
        self._program_args = (transport, rank_reacting, filter_alpha,
                              rhs_engine, rhs_backend, self._defer,
                              self._rank_telemetry,
                              resolve("tracing", tracing))
        self._start_rank_programs()
        #: per-rank owned conserved blocks, the solver's state of record
        self.locals: list = [None] * decomp.size
        self._gstate = None  # lazy gathered-state view, see :attr:`state`
        self._gstate_step = -1
        self._arm_health()

    def _start_rank_programs(self) -> None:
        """(Re)start one rank program per rank on the current world.

        Per-rank programs live wherever the transport runs ranks: the
        in-process backend holds them in the driver (and may share the
        driver's live telemetry backend through local_factory, which
        out-of-process backends ignore in favour of the pickled args).
        """
        spacings = [self.grid.spacing(a) for a in range(self.grid.ndim)]
        per_rank_args = [
            (self.mech, self.halo.extended_shape(rank), spacings,
             self.halo.interior_slices(rank)) + self._program_args
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
        extended = self.halo.exchange(self.locals, leading_axes=1)
        self.locals = self.world.call_all(
            "filter_block", [(ext,) for ext in extended]
        )

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
        """Owned-interior Newton temperature caches, one block per rank
        (``None`` for ranks whose cache is cold). One execution-plane
        collective; used by checkpointing so a restored run replays the
        exact Newton starting points and stays bitwise."""
        return self.world.call_all("cache_block")

    def install_shards(self, step: int, time: float, blocks, caches) -> None:
        """Adopt per-rank checkpoint shards — owned conserved blocks and
        owned-interior Newton caches — as the current solver state.

        Ghost cache values equal the owner's interior values (per-cell
        Newton is batch-shape independent), so a halo exchange of the
        interior blocks rebuilds each rank's extended cache bitwise.
        Any ``None`` block invalidates every cache: a cold start is
        always correct, a mixed hot/cold install is not.
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
            extended = [None] * self.decomp.size
        else:
            extended = self.halo.exchange(
                [np.asarray(c, dtype=float) for c in caches], leading_axes=0)
        self.world.call_all("install_cache", [(ext,) for ext in extended])

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
        self.halo = HaloExchanger(decomp, self.world, width=DEEP_HALO,
                                  telemetry=self.telemetry)
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
