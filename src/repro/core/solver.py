"""The DNS driver: time stepping, filtering, monitoring, hooks.

:class:`S3DSolver` ties together the state, RHS, ERK integrator, and
10th-order filter, and exposes the hook points the rest of the paper's
ecosystem attaches to:

* ``checkpoint_hook`` — called with (step, time, state); the I/O kernel
  of §5 registers here,
* ``insitu_hook`` — per-step visualization/analysis (§8.3),
* min/max monitoring per variable (the ASCII monitoring files of §9),
* per-kernel spans feeding the TAU-like profiler of §4.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import resolve
from repro.core.erk import ERKIntegrator
from repro.core.filters import filter_operators
from repro.core.rhs import CompressibleRHS
from repro.core.state import strang_apply_update, strang_reactor_inputs
from repro import telemetry as _telemetry


class S3DSolver:
    """Explicit compressible reacting-flow DNS solver.

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

    def __init__(self, state, config, transport=None, reacting=True,
                 telemetry=None):
        config.validate(state.grid)
        self.state = state
        self.config = config
        self.telemetry = _telemetry.for_solver(
            telemetry, config.telemetry, config.tracing
        )
        self.chemistry_mode = resolve("chemistry_mode", config.chemistry_mode)
        # Strang splitting moves chemistry out of the ERK right-hand
        # side: the RHS is built non-reacting and an implicit per-cell
        # integrator advances the reactors in two dt/2 half-steps around
        # it. A non-reacting solver (or an inert mechanism) has nothing
        # to split and keeps the plain transport path.
        split = (self.chemistry_mode == "strang" and reacting
                 and state.mech.n_reactions > 0)
        self._chem = None
        if split:
            from repro.chemistry.implicit import ImplicitChemistry

            self._chem = ImplicitChemistry(
                state.mech, closure="constant-volume",
                method=config.chemistry_method,
                fixed_substeps=config.fixed_substeps,
                telemetry=self.telemetry,
            )
        self.rhs = CompressibleRHS(
            state, transport=transport, boundaries=config.boundaries,
            reacting=reacting and not split, telemetry=self.telemetry,
            engine=config.rhs_engine, backend=config.rhs_backend,
        )
        self.integrator = ERKIntegrator(config.scheme)
        self.filters = filter_operators(state.grid, alpha=config.filter_alpha,
                                        telemetry=self.telemetry,
                                        backend=self.rhs.backend)
        self.time = 0.0
        self.step_count = 0
        self.health = self._resolve_health(config)
        self.checkpoint_hook = None
        self.insitu_hook = None
        self.monitor_history = []  # list of (step, time, {var: (min, max)})
        #: optional :class:`~repro.telemetry.MonitorWriter` fed by
        #: :meth:`record_monitor` (the §9 ASCII monitoring files)
        self.monitor_writer = None

    def _resolve_health(self, config):
        from repro.observability import for_solver

        return for_solver(self, config.observability)

    # ------------------------------------------------------------------
    def compute_dt(self) -> float:
        """Stable time step from the configured CFL (or the fixed dt)."""
        if self.config.dt is not None:
            return self.config.dt
        return self.rhs.stable_dt(cfl=self.config.cfl)

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
            self.state.u = self.integrator.step(self.rhs, self.time, self.state.u, dt)
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

        Decodes ``(rho, e_int, Y)`` from the conserved array, runs the
        per-cell implicit constant-volume integration, and writes the
        new species densities back. Density, momentum, and total energy
        are untouched, so the split conserves them identically; the
        temperature change is implied by the new composition at fixed
        internal energy.
        """
        st = self.state
        mech = st.mech
        rho_f, e_f, Y_f = strang_reactor_inputs(st.u, st.ndim, mech.n_species)
        with self.telemetry.span("CHEMISTRY_IMPLICIT"):
            _, Y1, _ = self._chem.advance_energy(rho_f, e_f, Y_f, half_dt)
        strang_apply_update(st.u, st.ndim, mech.n_species, Y1)
        st.mark_modified()

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

    def run(self, n_steps: int, monitor_interval: int = 0,
            checkpoint_interval: int = 0, insitu_interval: int = 0):
        """Advance ``n_steps`` steps, firing hooks at the given intervals.

        With observability enabled (``config.observability`` or
        ``REPRO_OBSERVABILITY``), the health monitor checks its
        watchdogs after each step; a trip raises
        :class:`~repro.observability.watchdogs.WatchdogTripError`. The
        disabled path costs a single attribute check per step.
        """
        health = self.health
        for _ in range(n_steps):
            if health.enabled:
                t0 = health.clock()
                dt = self.step()
                health.on_step(dt, health.clock() - t0)
            else:
                self.step()
            if monitor_interval and self.step_count % monitor_interval == 0:
                self.record_monitor()
            if (
                checkpoint_interval
                and self.checkpoint_hook is not None
                and self.step_count % checkpoint_interval == 0
            ):
                with self.telemetry.span("CHECKPOINT"):
                    self.checkpoint_hook(self.step_count, self.time, self.state)
            if (
                insitu_interval
                and self.insitu_hook is not None
                and self.step_count % insitu_interval == 0
            ):
                with self.telemetry.span("INSITU"):
                    self.insitu_hook(self.step_count, self.time, self.state)
        return self.state

    def run_resilient(self, fs, n_steps: int, checkpoint_interval: int = 5,
                      **kwargs):
        """Advance ``n_steps`` under the self-healing supervisor.

        Checkpoints land in a verified ring on ``fs`` every
        ``checkpoint_interval`` steps; recoverable faults (injected
        crashes, I/O failures past their retry budget, corrupt
        checkpoints) trigger rollback to the newest verified checkpoint
        and a bit-exact replay. Returns the supervisor's
        :class:`~repro.resilience.supervisor.RunReport`; further
        keywords (``ring``, ``keep``, ``max_recoveries``, ``injector``,
        ...) pass through to
        :func:`~repro.resilience.supervisor.run_resilient`.
        """
        from repro.resilience.supervisor import run_resilient

        return run_resilient(self, fs, n_steps,
                             checkpoint_interval=checkpoint_interval,
                             telemetry=kwargs.pop("telemetry", self.telemetry),
                             **kwargs)

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
