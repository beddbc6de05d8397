"""Simulation health observatory: watchdogs, flight recorder, fusion.

The run-facing half of the paper's systems story. :mod:`repro.telemetry`
records primitives (spans, counters); this package is the layer that
*watches, correlates, and explains* a run while it happens or after it
dies:

* :mod:`~repro.observability.watchdogs` — pluggable health checks
  (NaN/Inf sentinel, CFL margin, physical bounds, conservation drift,
  wall-time anomaly) with ``ok``/``warn``/``trip`` severities; a trip
  raises a typed :class:`WatchdogTripError` instead of letting a
  diverged run burn its allocation silently.
* :mod:`~repro.observability.recorder` — the :class:`FlightRecorder`
  black box: a ring buffer of structured step records dumped as
  self-describing JSONL on crash or trip.
* :mod:`~repro.observability.monitor` — the :class:`HealthMonitor`
  orchestrating watchdogs + recorder at a configurable cadence inside
  the solver loops, with a zero-cost :data:`NULL_HEALTH` path matching
  the telemetry ``NullTelemetry`` convention.
* :mod:`~repro.observability.fusion` — cross-rank profile fusion: the
  per-rank ``Telemetry.snapshot()``s a world's ranks return, merged
  into the Fig 2 per-kernel table with a per-kernel imbalance factor.
* :mod:`~repro.observability.render` — the §9 in-situ view: one view
  of the flight recorder's rows, rendered as an ASCII dashboard with
  sparkline histories or a static self-contained ``observatory.html``
  report, both replayable offline from a flight recorder dump.

Mode selection is the ``observability`` knob of
:data:`repro.core.config.KNOBS` (``REPRO_OBSERVABILITY`` or
``SolverConfig.observability``): ``"off"`` (the null path —
bitwise-identical solver results, one attribute check per step),
``"on"`` (the standard watchdog set at step cadence), or ``"full"``
(everything armed: conservation tracking on periodic boxes, the RK
stage guard, per-step telemetry deltas).
"""

from __future__ import annotations

from repro.core.config import resolve
from repro.observability.watchdogs import (
    BoundsWatchdog,
    CFLMarginWatchdog,
    ConservationWatchdog,
    NaNSentinel,
    StepContext,
    WallTimeAnomalyWatchdog,
    Watchdog,
    WatchdogEvent,
    WatchdogTripError,
    SEVERITIES,
    worst_severity,
)
from repro.observability.recorder import FlightRecorder, StepRecord, SCHEMA_VERSION
from repro.observability.monitor import HealthMonitor, NullHealthMonitor, NULL_HEALTH
from repro.observability.fusion import FusedProfile, fuse_profiles
from repro.observability.render import (
    RunMonitor,
    html_report,
    replay_report,
    sparkline,
)

__all__ = [
    "Watchdog",
    "WatchdogEvent",
    "WatchdogTripError",
    "StepContext",
    "NaNSentinel",
    "CFLMarginWatchdog",
    "BoundsWatchdog",
    "ConservationWatchdog",
    "WallTimeAnomalyWatchdog",
    "SEVERITIES",
    "worst_severity",
    "FlightRecorder",
    "StepRecord",
    "SCHEMA_VERSION",
    "HealthMonitor",
    "NullHealthMonitor",
    "NULL_HEALTH",
    "FusedProfile",
    "fuse_profiles",
    "RunMonitor",
    "sparkline",
    "html_report",
    "replay_report",
    "for_solver",
]

def for_solver(solver, mode=None, clock=None):
    """Build the health monitor a solver's config/environment asks for,
    with the watchdog set picked from what the solver offers.

    Returns the shared :data:`NULL_HEALTH` when observability is off —
    the solver's hot loop then pays a single ``enabled`` attribute
    check per step and nothing else. ``"on"`` arms the NaN sentinel,
    physical bounds, and wall-time anomaly detection, plus the CFL
    margin where the solver owns a ``stable_dt`` (a whole-domain RHS; a
    decomposed solver is driven by an explicit ``dt``). ``"full"``
    additionally arms the RK stage guard, per-step telemetry deltas and
    the conservation-drift tracker — the last only on all-periodic
    grids, where the :mod:`tests.test_conservation` invariants actually
    hold (open boundaries flux mass and energy through the domain by
    design). Watchdogs read ``solver.state``, which on a decomposed
    solver is the gathered global view.
    """
    mode = resolve("observability", mode)
    if mode == "off":
        return NULL_HEALTH
    dogs = [NaNSentinel()]
    if hasattr(solver, "rhs"):
        dogs.append(CFLMarginWatchdog())
    dogs += [BoundsWatchdog(), WallTimeAnomalyWatchdog()]
    if mode == "full" and all(solver.grid.periodic):
        dogs.append(ConservationWatchdog())
    return HealthMonitor(
        solver,
        watchdogs=dogs,
        interval=1,
        recorder=FlightRecorder(capacity=256 if mode == "full" else 64),
        clock=clock,
        record_telemetry_delta=(mode == "full" and solver.telemetry.enabled),
        stage_guard=(mode == "full"),
    )
