"""The health monitor: watchdog evaluation wired into the solver loop.

:class:`HealthMonitor` owns a watchdog set, a flight recorder, and
optionally a live :class:`~repro.observability.render.RunMonitor`. The
solver calls :meth:`on_step` after every step; at the configured
cadence the monitor builds one shared :class:`StepContext`, runs every
watchdog, records the step in the black box, and escalates any trip
into :class:`WatchdogTripError` — after dumping the flight record
through the attached file system, so the post-mortem artifact exists
*before* the exception unwinds.

:data:`NULL_HEALTH` is the zero-cost disabled path (the telemetry
``NullTelemetry`` convention): solvers always hold a monitor object,
and the hot loop pays exactly one ``enabled`` attribute check per step
when observability is off.
"""

from __future__ import annotations

import time

from repro.observability.recorder import FlightRecorder, StepRecord, state_rms
from repro.observability.watchdogs import (
    StepContext,
    WatchdogTripError,
    worst_severity,
)
from repro.telemetry import resolve as resolve_telemetry

__all__ = ["HealthMonitor", "NullHealthMonitor", "NULL_HEALTH"]


class HealthMonitor:
    """Evaluates watchdogs at a cadence inside a solver's run loop."""

    enabled = True

    def __init__(self, solver, watchdogs=(), interval: int = 1,
                 recorder: FlightRecorder | None = None, telemetry=None,
                 clock=None, record_telemetry_delta: bool = False,
                 stage_guard: bool = False):
        if interval < 1:
            raise ValueError("monitor interval must be >= 1")
        self.solver = solver
        self.watchdogs = list(watchdogs)
        self.interval = int(interval)
        self.telemetry = resolve_telemetry(
            telemetry if telemetry is not None
            else getattr(solver, "telemetry", None))
        self.recorder = recorder if recorder is not None else FlightRecorder(
            telemetry=self.telemetry)
        if self.recorder.telemetry is None:
            self.recorder.telemetry = self.telemetry
        self.clock = clock or time.perf_counter
        self.record_telemetry_delta = bool(record_telemetry_delta)
        self.fs = None
        self.dump_path = "flight_record.jsonl"
        self.dump_error: str | None = None
        self.run_monitor = None
        self.checks = 0
        self.warns = 0
        self.trips = 0
        self.last_events: list = []
        self._c_checks = self.telemetry.counter("health.checks")
        self._c_warns = self.telemetry.counter("health.warns")
        self._c_trips = self.telemetry.counter("health.trips")
        self._g_margin = self.telemetry.gauge("health.cfl_margin")
        if stage_guard:
            self.arm_stage_guard()

    # -- attachments -----------------------------------------------------
    def attach_sink(self, fs, path: str = "flight_record.jsonl") -> None:
        """Dump the black box to ``fs``/``path`` on trip or crash."""
        self.fs = fs
        self.dump_path = path

    def attach_monitor(self, run_monitor) -> None:
        """Render the live ASCII dashboard at the run monitor's own
        interval after each health check."""
        self.run_monitor = run_monitor

    def arm_stage_guard(self) -> None:
        """Catch NaN the RK stage it appears (not just end-of-step).

        Arms the solver's integrator with the per-stage finiteness check
        (:func:`repro.core.erk.finite_guard`; a decomposed solver's
        ranks check their own slopes while it is armed). The solver
        reports a failure through :meth:`stage_trip` — before the
        poisoned slope is blended into the state.
        """
        from repro.core.erk import finite_guard

        self.solver.integrator.stage_hook = finite_guard

    def stage_trip(self, stage: int, bad: int) -> None:
        """Trip on ``bad`` non-finite entries in the slope of ``stage``."""
        from repro.observability.watchdogs import WatchdogEvent

        event = WatchdogEvent(
            watchdog="rk_stage_guard", severity="trip",
            message=f"non-finite RK stage slope at stage {stage}",
            value=float(bad),
            step=self.solver.step_count, time=self.solver.time,
        )
        self.trips += 1
        self._c_trips.inc()
        self.last_events = [event]
        self.dump(f"rk stage guard trip (stage {stage})")
        raise WatchdogTripError([event], step=self.solver.step_count,
                                time=self.solver.time)

    # -- the per-step hook ----------------------------------------------
    def on_step(self, dt: float, wall_time: float = 0.0) -> list:
        """Called by the solver after each step; checks at cadence."""
        if self.solver.step_count % self.interval:
            return []
        return self.check(dt, wall_time)

    def check(self, dt: float, wall_time: float = 0.0) -> list:
        """Run every watchdog now; records, renders, escalates trips."""
        ctx = StepContext(self.solver, dt, wall_time)
        events = [w.check(ctx) for w in self.watchdogs]
        self.last_events = events
        self.checks += 1
        self._c_checks.inc()
        statuses = {e.watchdog: e.severity for e in events}
        margin = next(
            (e.value for e in events
             if e.watchdog == "cfl_margin" and e.value is not None), None)
        if margin is not None:
            self._g_margin.set(margin)
        record = StepRecord(
            step=ctx.step, time=ctx.time, dt=ctx.dt, wall_time=wall_time,
            extrema=ctx.extrema, rms=state_rms(ctx.state),
            watchdogs=statuses, cfl_margin=margin,
            telemetry=(self.telemetry.snapshot(delta=True)
                       if self.record_telemetry_delta
                       and self.telemetry.enabled else None),
        )
        self.recorder.record(record)
        worst = worst_severity(statuses.values())
        if worst == "warn":
            self.warns += 1
            self._c_warns.inc()
        elif worst == "trip":
            self.trips += 1
            self._c_trips.inc()
            self.dump("watchdog trip")
            raise WatchdogTripError(events, step=ctx.step, time=ctx.time)
        if self.run_monitor is not None:
            self.run_monitor.maybe_render(ctx.step)
        return events

    # -- recovery / teardown --------------------------------------------
    def on_recovery(self, info: dict) -> None:
        """Supervisor callback: log the rollback, reset rolling
        baselines that straddle the discarded timeline."""
        self.recorder.record_recovery(dict(info))
        for w in self.watchdogs:
            w.on_recovery(int(info.get("restored_step", 0)))

    def dump(self, reason: str = "manual") -> None:
        """Dump the black box to the attached sink, if any; a failed
        write is kept in :attr:`dump_error`, not raised (the trip that
        asked for the dump must still surface)."""
        if self.fs is None:
            return
        try:
            self.recorder.dump(self.fs, self.dump_path, reason=reason)
            self.dump_error = None
        except Exception as err:
            self.dump_error = f"{type(err).__name__}: {err}"

    def status(self) -> dict:
        """Latest severity per watchdog (``{}`` before the first check)."""
        return {e.watchdog: e.severity for e in self.last_events}


class NullHealthMonitor:
    """Disabled monitor: every operation is a no-op.

    Stateless and shared (:data:`NULL_HEALTH`); the solver's null path
    reduces to one ``enabled`` attribute check per step.
    """

    enabled = False
    watchdogs: list = []
    checks = 0
    warns = 0
    trips = 0
    last_events: list = []
    recorder = None
    run_monitor = None
    interval = 0

    def on_step(self, dt: float, wall_time: float = 0.0) -> list:
        return []

    def check(self, dt: float, wall_time: float = 0.0) -> list:
        return []

    def on_recovery(self, info: dict) -> None:
        pass

    def attach_sink(self, fs, path: str = "flight_record.jsonl") -> None:
        pass

    def attach_monitor(self, run_monitor) -> None:
        pass

    def arm_stage_guard(self) -> None:
        pass

    def dump(self, reason: str = "manual") -> None:
        return None

    def status(self) -> dict:
        return {}


#: the shared disabled monitor
NULL_HEALTH = NullHealthMonitor()
