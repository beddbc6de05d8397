"""The DNS driver: time stepping, filtering, monitoring, hooks.

:class:`S3DSolver` ties together the state, RHS, ERK integrator, and
10th-order filter, and exposes the hook points the rest of the paper's
ecosystem attaches to:

* ``checkpoint_hook`` — called with (step, time, state); the I/O kernel
  of §5 registers here,
* min/max monitoring per variable (the ASCII monitoring files of §9),
* per-kernel spans feeding the TAU-like profiler of §4.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import resolve
from repro.core.erk import ERKIntegrator, NonFiniteStageError
from repro.core.filters import filter_operators
from repro.core.rhs import CompressibleRHS
from repro.core.state import strang_apply_update, strang_reactor_inputs
from repro import telemetry as _telemetry


class S3DSolver:
    """Explicit compressible reacting-flow DNS solver.

    The one time-step driver: :meth:`step`, :meth:`_strang_chemistry`,
    :meth:`run` and :meth:`run_resilient` exist here and nowhere else. A
    serial run is the one-rank case; a decomposed domain
    (:class:`~repro.parallel.solver.ParallelPeriodicSolver`) overrides
    the four hooks that genuinely differ — how a step is integrated
    (:meth:`_integrate`), how a filter pass is applied
    (:meth:`apply_filter`), which blocks the Strang reactors see
    (:meth:`_reactor_blocks` / :meth:`_reactors_advanced`), who chooses
    ``dt`` (:meth:`compute_dt`)
    — and the recovery plumbing the supervisor calls.

    Parameters
    ----------
    state:
        Initial :class:`~repro.core.state.State` (advanced in place).
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
    """

    #: the one-rank case: no rank to lose (a supervised run always rolls
    #: back and replays) and nobody to ship chemistry cells to
    recovery_policy = "rollback"
    chemlb = None

    def __init__(self, state, config, transport=None, reacting=True,
                 telemetry=None):
        reacting = self._setup(config, state.mech, state.grid, reacting,
                               telemetry)
        self.state = state
        self.rhs = CompressibleRHS(
            state, transport=transport, boundaries=config.boundaries,
            reacting=reacting, telemetry=self.telemetry,
        )
        self.filters = filter_operators(state.grid, alpha=config.filter_alpha,
                                        telemetry=self.telemetry)
        self._arm_health()

    def _setup(self, config, mech, grid, reacting, telemetry) -> bool:
        """What a solver is before it has a domain: validated config,
        telemetry, Strang chemistry (if any), integrator, clock, hook
        points. Returns whether the RHS itself carries the reactions."""
        config.validate(grid)
        self.config = config
        self.mech = mech
        self.grid = grid
        self.telemetry = _telemetry.for_solver(telemetry, config.telemetry)
        self.chemistry_mode = resolve("chemistry_mode", config.chemistry_mode)
        # Strang splitting moves chemistry out of the ERK right-hand
        # side: the RHS is built non-reacting and an implicit per-cell
        # integrator advances the reactors in two dt/2 half-steps around
        # it. A non-reacting solver (or an inert mechanism) has nothing
        # to split and keeps the plain transport path.
        split = (self.chemistry_mode == "strang" and reacting
                 and mech.n_reactions > 0)
        self._chem = None
        if split:
            from repro.chemistry.implicit import ImplicitChemistry

            self._chem = ImplicitChemistry(mech, telemetry=self.telemetry)
        self.integrator = ERKIntegrator(config.scheme)
        self.time = 0.0
        self.step_count = 0
        self.checkpoint_hook = None
        self.monitor_history = []  # list of (step, time, {var: (min, max)})
        #: optional :class:`~repro.telemetry.MonitorWriter` fed by
        #: :meth:`record_monitor` (the §9 ASCII monitoring files)
        self.monitor_writer = None
        return reacting and not split

    def _arm_health(self) -> None:
        """Attach the health monitor the config asks for (last: the
        watchdog set depends on what the finished solver offers)."""
        from repro.observability import for_solver

        self.health = for_solver(self, self.config.observability)

    # -- the four hooks a decomposed domain overrides ----------------------
    def compute_dt(self) -> float:
        """Stable time step from the configured CFL (or the fixed dt)."""
        if self.config.dt is not None:
            return self.config.dt
        return self.rhs.stable_dt(cfl=self.config.cfl)

    def _integrate(self, dt: float) -> None:
        """One ERK step of the RHS over the whole domain."""
        self.state.u = self.integrator.step(self.rhs, self.time, self.state.u, dt)

    def _reactor_blocks(self) -> list:
        """The conserved blocks the Strang reactors advance in place."""
        return [self.state.u]

    def _reactors_advanced(self, blocks) -> None:
        """The reactors wrote ``blocks``: declare the state modified, so
        memoized thermo/transport invalidate."""
        self.state.mark_modified()

    def apply_filter(self) -> None:
        """Apply the 10th-order filter along every direction.

        All variables are filtered in one stacked in-place sweep per
        direction (the filter's ``out`` may alias its input); the state
        is marked modified so memoized thermo/transport invalidate.
        """
        u = self.state.u
        for axis, filt in enumerate(self.filters):
            filt.apply(u, axis=1 + axis, out=u)
        self.state.mark_modified()

    # -- the one time-step driver ------------------------------------------
    def step(self, dt: float | None = None) -> float:
        """Advance one time step; returns the dt used.

        With ``chemistry_mode="strang"`` the step is the symmetric
        splitting chem(dt/2) → transport(dt) → chem(dt/2); otherwise a
        single ERK step of the full (possibly reacting) RHS.
        """
        if dt is None:
            dt = self.compute_dt()
        if self._chem is not None:
            self._strang_chemistry(0.5 * dt)
        with self.telemetry.span("INTEGRATE"):
            try:
                self._integrate(dt)
            except NonFiniteStageError as err:  # the armed RK stage guard
                self.health.stage_trip(*err.args)
        if self._chem is not None:
            self._strang_chemistry(0.5 * dt)
        self.telemetry.gauge("solver.dt").set(dt)
        self.telemetry.counter("solver.steps").inc()
        self.time += dt
        self.step_count += 1
        interval = self.config.filter_interval
        if interval and self.step_count % interval == 0:
            self.apply_filter()
        return dt

    def _strang_chemistry(self, half_dt: float) -> None:
        """Advance every cell's reactor by ``half_dt`` at fixed (rho, e).

        Decodes ``(rho, e_int, Y)`` from each conserved block, runs the
        per-cell implicit constant-volume integration, and writes the
        new species densities back. Density, momentum, and total energy
        are untouched, so the split conserves them identically; the
        temperature change is implied by the new composition at fixed
        internal energy. Per-cell results are bitwise independent of
        batch shape, so neither a decomposition nor a load balancer
        shipping whole cell solves between blocks (costed by their
        measured substep counts) can perturb them.
        """
        ndim, ns = self.grid.ndim, self.mech.n_species
        blocks = self._reactor_blocks()
        states = [strang_reactor_inputs(b, ndim, ns) for b in blocks]
        with self.telemetry.span("CHEMISTRY_IMPLICIT"):
            if self.chemlb is not None:
                results = self.chemlb.advance_states(states, half_dt,
                                                     self._chem)
            else:
                results = [self._chem.advance_energy(rho, e, Y, half_dt)
                           for rho, e, Y in states]
        for block, result in zip(blocks, results):
            strang_apply_update(block, ndim, ns, result[1])
        self._reactors_advanced(blocks)

    def run(self, n_steps: int, dt: float | None = None,
            monitor_interval: int = 0, checkpoint_interval: int = 0):
        """Advance ``n_steps`` steps (of ``dt``, or of the solver's own
        choosing), recording the monitor and firing the checkpoint hook
        at the given intervals.

        With observability enabled (``config.observability`` or
        ``REPRO_OBSERVABILITY``), the health monitor checks its
        watchdogs after each step; a trip raises
        :class:`~repro.observability.watchdogs.WatchdogTripError`. The
        disabled path costs a single attribute check per step.
        """
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
        (:func:`~repro.resilience.supervisor.run_resilient`, which takes
        the keywords and returns the
        :class:`~repro.resilience.supervisor.RunReport`): checkpoints
        land in a verified ring on ``fs``, recoverable faults trigger a
        recovery under :attr:`recovery_policy` and a bit-exact replay.
        """
        from repro.resilience.supervisor import run_resilient

        return run_resilient(self, fs, n_steps, dt=dt, **kwargs)

    # -- recovery plumbing: what the supervisor asks of a solver -----------
    def checkpoint_ring(self, fs, **kwargs):
        """A fresh checkpoint ring of this solver's kind on ``fs``."""
        from repro.resilience.checkpoint import CheckpointRing

        return CheckpointRing(fs, **kwargs)

    def failed_ranks(self) -> set:
        return set()

    def recover(self, action: str, ring, dead) -> dict:
        """Carry out a recovery action; a serial solver only ever rolls
        back to the newest checkpoint of ``ring`` that verifies."""
        return ring.restore_state(self)

    def record_monitor(self) -> dict:
        """Record per-variable min/max (§9's ASCII monitoring data)."""
        mm = self.state.min_max()
        self.monitor_history.append((self.step_count, self.time, mm))
        if self.monitor_writer is not None:
            self.monitor_writer.write_step(self.step_count, self.time, mm)
        return mm

    # ------------------------------------------------------------------
    def primitives(self):
        """Convenience: decode the current primitive fields."""
        return self.state.primitives()

    def profile_report(self) -> str:
        """TAU-style per-kernel exclusive-time profile (§4, Fig 2).

        Empty string when telemetry is disabled.
        """
        return self.telemetry.profile_report()
