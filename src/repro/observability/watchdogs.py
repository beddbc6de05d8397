"""Pluggable watchdogs: the checks that catch a dying run the step it dies.

Each watchdog inspects a :class:`StepContext` (a lazily-computed view
of the solver after one step) and returns a :class:`WatchdogEvent`
with severity ``ok``, ``warn``, or ``trip``. The
:class:`~repro.observability.monitor.HealthMonitor` escalates any
``trip`` into a typed :class:`WatchdogTripError`, which the resilience
supervisor answers with rollback-and-replay — a NaN blow-up or CFL
violation surfaces within one monitor interval instead of silently
diverging for the rest of the allocation (the paper's §9 run-monitoring
loop exists precisely because terascale campaigns cannot afford to
discover divergence from the output files a day later).

The context computes each derived quantity (extrema, finiteness,
temperature, raw mass fractions) at most once per check, so stacking
watchdogs does not multiply the per-step inspection cost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SEVERITIES",
    "worst_severity",
    "WatchdogEvent",
    "WatchdogTripError",
    "StepContext",
    "Watchdog",
    "NaNSentinel",
    "CFLMarginWatchdog",
    "BoundsWatchdog",
    "ConservationWatchdog",
    "WallTimeAnomalyWatchdog",
]

#: severities in escalation order
SEVERITIES = ("ok", "warn", "trip")


def worst_severity(severities) -> str:
    """The most severe entry of an iterable of severity strings."""
    worst = "ok"
    for s in severities:
        if SEVERITIES.index(s) > SEVERITIES.index(worst):
            worst = s
    return worst


@dataclass
class WatchdogEvent:
    """Outcome of one watchdog check."""

    watchdog: str
    severity: str
    message: str = ""
    value: float | None = None
    threshold: float | None = None
    step: int = 0
    time: float = 0.0


class WatchdogTripError(RuntimeError):
    """A watchdog tripped: the run is diverging or unphysical.

    Carries the tripping events so the supervisor (and post-mortems)
    can tell *which* invariant broke and at what value. The resilience
    supervisor treats this as recoverable and rolls the run back to the
    newest verified checkpoint.
    """

    def __init__(self, events, step: int = 0, time: float = 0.0):
        self.events = [e for e in events if e.severity == "trip"] or list(events)
        self.step = int(step)
        self.time = float(time)
        detail = "; ".join(
            f"{e.watchdog}: {e.message}" for e in self.events
        ) or "unspecified watchdog trip"
        super().__init__(f"watchdog trip at step {self.step}: {detail}")


class StepContext:
    """Lazily-computed post-step view shared by every watchdog.

    Derived fields are cached on first access, so the NaN sentinel and
    the bounds watchdog, say, share one pass over the conserved array.
    """

    def __init__(self, solver, dt: float, wall_time: float = 0.0):
        self.solver = solver
        self.dt = float(dt)
        self.wall_time = float(wall_time)
        self.step = solver.step_count
        self.time = solver.time
        self._cache: dict = {}

    @property
    def state(self):
        return self.solver.state

    @property
    def u(self) -> np.ndarray:
        return self.solver.state.u

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    @property
    def finite(self) -> bool:
        """True when every conserved value is finite."""
        return self._memo("finite", lambda: bool(np.isfinite(self.u).all()))

    @property
    def nonfinite_count(self) -> int:
        return self._memo(
            "nonfinite_count", lambda: int((~np.isfinite(self.u)).sum())
        )

    def nonfinite_variables(self) -> list:
        """Names of conserved variables containing NaN/Inf."""
        names = self.state.variable_names()
        bad = ~np.isfinite(self.u).reshape(self.u.shape[0], -1).all(axis=1)
        return [n for n, b in zip(names, bad) if b]

    @property
    def extrema(self) -> dict:
        """Per-variable (min, max) of the conserved state."""
        return self._memo("extrema", self.state.min_max)

    @property
    def temperature(self) -> np.ndarray | None:
        """The cached Newton temperature field (None before any
        primitive evaluation on this shape)."""
        t = self.state._t_cache
        if t is not None and t.shape == self.state.grid.shape:
            return t
        return None

    @property
    def raw_mass_fraction_range(self) -> tuple:
        """(min, max) over transported *and* constraint-recovered mass
        fractions, without the clipping the primitive decode applies —
        the unclipped values are the divergence signal."""

        def compute():
            st = self.state
            rho = self.u[st.i_rho]
            with np.errstate(invalid="ignore", divide="ignore"):
                transported = self.u[st.species_slice] / rho[None]
                last = 1.0 - transported.sum(axis=0)
            lo = min(float(np.nanmin(transported)), float(np.nanmin(last)))
            hi = max(float(np.nanmax(transported)), float(np.nanmax(last)))
            return lo, hi

        return self._memo("y_range", compute)

    @property
    def stable_dt(self) -> float:
        """The CFL-stable dt for the *current* state (shares the RHS's
        memoized property evaluation)."""

        def compute():
            cfg = self.solver.config
            return self.solver.rhs.stable_dt(cfl=cfg.cfl)

        return self._memo("stable_dt", compute)


class Watchdog:
    """Base class: one named health check with warn/trip thresholds."""

    name = "watchdog"

    def check(self, ctx: StepContext) -> WatchdogEvent:
        raise NotImplementedError

    def on_recovery(self, restored_step: int) -> None:
        """Hook called after a rollback (reset rolling baselines that
        would otherwise straddle the discarded timeline)."""

    def _event(self, ctx, severity: str, message: str = "",
               value=None, threshold=None) -> WatchdogEvent:
        return WatchdogEvent(
            watchdog=self.name, severity=severity, message=message,
            value=None if value is None else float(value),
            threshold=None if threshold is None else float(threshold),
            step=ctx.step, time=ctx.time,
        )


class NaNSentinel(Watchdog):
    """NaN/Inf over the conserved fields — the blow-up tripwire.

    Any non-finite conserved value is an unconditional ``trip``: no
    downstream quantity is meaningful once the state holds a NaN, and
    every further step only spreads it at stencil speed.
    """

    name = "nan_sentinel"

    def check(self, ctx: StepContext) -> WatchdogEvent:
        if ctx.finite:
            return self._event(ctx, "ok")
        bad = ctx.nonfinite_variables()
        return self._event(
            ctx, "trip",
            message=(
                f"{ctx.nonfinite_count} non-finite conserved values "
                f"in [{', '.join(bad)}]"
            ),
            value=ctx.nonfinite_count, threshold=0.0,
        )


class CFLMarginWatchdog(Watchdog):
    """dt against the acoustic/diffusive stability limit.

    The monitored quantity is ``margin = dt / stable_dt``: a run at
    exactly the CFL limit (``margin == 1``, the adaptive-dt steady
    state) is ``ok``; a fixed-dt run that drifts strictly past the
    limit warns, and ``trip_margin`` catches a clearly unstable step.
    """

    name = "cfl_margin"
    warn_margin = 1.0
    trip_margin = 1.2
    #: relative slack so margin == limit (to roundoff) stays ok
    rtol = 1e-9

    def check(self, ctx: StepContext) -> WatchdogEvent:
        if not ctx.finite:
            # stable_dt on a NaN state is meaningless; leave the call
            # to the sentinel and report the margin as unknown
            return self._event(ctx, "warn", message="state non-finite; "
                               "CFL margin unavailable")
        limit = ctx.stable_dt
        if not np.isfinite(limit) or limit <= 0.0:
            return self._event(ctx, "trip",
                               message=f"stable_dt degenerate ({limit})",
                               value=limit)
        margin = ctx.dt / limit
        if margin > self.trip_margin * (1.0 + self.rtol):
            sev = "trip"
        elif margin > self.warn_margin * (1.0 + self.rtol):
            sev = "warn"
        else:
            return self._event(ctx, "ok", value=margin,
                               threshold=self.warn_margin)
        return self._event(
            ctx, sev,
            message=f"dt={ctx.dt:.3e} exceeds stable_dt={limit:.3e} "
                    f"(margin {margin:.3f})",
            value=margin,
            threshold=self.trip_margin if sev == "trip" else self.warn_margin,
        )


class BoundsWatchdog(Watchdog):
    """Physical bounds on temperature and mass fractions.

    Mass fractions exactly at 0.0 or 1.0 are physical (pure streams)
    and pass; the watchdog fires on *violations* beyond a tolerance.
    High-order central differences undershoot sharp species fronts at
    the few-1e-3 level even on healthy runs (that's what the §4 filter
    is for), so the defaults warn only at a 1 % violation and trip at
    5 %, where the state is no longer trustworthy. Temperature is
    checked against a warn and a trip band; the check is skipped (ok)
    before any primitive decode has populated the Newton cache.
    """

    name = "bounds"
    y_warn = 1e-2
    y_trip = 5e-2
    t_warn = (150.0, 3500.0)  # K
    t_trip = (50.0, 5000.0)  # K

    def check(self, ctx: StepContext) -> WatchdogEvent:
        if not ctx.finite:
            return self._event(ctx, "trip",
                               message="non-finite state (bounds meaningless)")
        lo, hi = ctx.raw_mass_fraction_range
        y_violation = max(0.0 - lo, hi - 1.0, 0.0)
        if y_violation > self.y_trip:
            return self._event(
                ctx, "trip",
                message=f"mass fraction out of [0,1] by {y_violation:.3e}",
                value=y_violation, threshold=self.y_trip,
            )
        t = ctx.temperature
        if t is not None:
            tmin, tmax = float(t.min()), float(t.max())
            if tmin < self.t_trip[0] or tmax > self.t_trip[1]:
                return self._event(
                    ctx, "trip",
                    message=f"temperature [{tmin:.1f}, {tmax:.1f}] K outside "
                            f"trip band {self.t_trip}",
                    value=tmax if tmax > self.t_trip[1] else tmin,
                )
            if tmin < self.t_warn[0] or tmax > self.t_warn[1]:
                return self._event(
                    ctx, "warn",
                    message=f"temperature [{tmin:.1f}, {tmax:.1f}] K outside "
                            f"warn band {self.t_warn}",
                    value=tmax if tmax > self.t_warn[1] else tmin,
                )
        if y_violation > self.y_warn:
            return self._event(
                ctx, "warn",
                message=f"mass fraction out of [0,1] by {y_violation:.3e}",
                value=y_violation, threshold=self.y_warn,
            )
        return self._event(ctx, "ok", value=y_violation, threshold=self.y_warn)


class ConservationWatchdog(Watchdog):
    """Drift of the discrete invariants on periodic boxes.

    Reuses the :mod:`tests.test_conservation` invariants: on an
    all-periodic domain the volume-integrated mass and total energy are
    conserved to roundoff regardless of chemistry. The baseline is
    captured on the first check after arming (or after a rollback, via
    :meth:`on_recovery`, since the restored state sits on the same
    conserved trajectory).
    """

    name = "conservation"
    warn_rel = 1e-9
    trip_rel = 1e-4

    def __init__(self):
        self._baseline: dict | None = None

    def _measure(self, ctx) -> dict:
        return {
            "mass": ctx.state.total_mass(),
            "energy": ctx.state.total_energy(),
        }

    def check(self, ctx: StepContext) -> WatchdogEvent:
        if not ctx.finite:
            return self._event(ctx, "trip",
                               message="non-finite state (invariants lost)")
        cur = self._measure(ctx)
        if self._baseline is None:
            self._baseline = cur
            return self._event(ctx, "ok", value=0.0, threshold=self.warn_rel)
        worst_name, worst = "", 0.0
        for key, base in self._baseline.items():
            scale = abs(base) or 1.0
            drift = abs(cur[key] - base) / scale
            if drift > worst:
                worst_name, worst = key, drift
        if worst > self.trip_rel:
            sev = "trip"
        elif worst > self.warn_rel:
            sev = "warn"
        else:
            return self._event(ctx, "ok", value=worst, threshold=self.warn_rel)
        return self._event(
            ctx, sev,
            message=f"{worst_name} drifted by {worst:.3e} (relative)",
            value=worst,
            threshold=self.trip_rel if sev == "trip" else self.warn_rel,
        )

    def on_recovery(self, restored_step: int) -> None:
        # the restored checkpoint lies on the same conserved trajectory,
        # so the baseline remains valid; nothing to reset
        pass


class WallTimeAnomalyWatchdog(Watchdog):
    """Per-step wall-time outliers via rolling median + MAD.

    An anomalous step (a rank swapping, a file system stall, a runaway
    Newton iteration) shows up as a wall time many robust deviations
    above the rolling median. The deviation scale is the median
    absolute deviation with a floor of 10 % of the median, so host
    jitter on a quiet history stays ``ok``: there a warn (``k_warn``
    deviations) means a step at least 1.8x the median. Trips
    are off by default — a slow step is an operational anomaly, not
    divergence.
    """

    name = "walltime"
    #: rolling-window length, and the samples it needs before judging
    window = 32
    min_samples = 8
    #: robust deviations that warn / trip (``None``: never trip)
    k_warn = 8.0
    k_trip = None

    def __init__(self):
        self.history: deque = deque(maxlen=self.window)

    def score(self, wall_time: float) -> float:
        """Robust z-score of ``wall_time`` against the rolling window."""
        samples = np.asarray(self.history, dtype=float)
        med = float(np.median(samples))
        mad = float(np.median(np.abs(samples - med)))
        scale = max(mad, 0.1 * med, 1e-12)
        return (wall_time - med) / scale

    def check(self, ctx: StepContext) -> WatchdogEvent:
        wall = ctx.wall_time
        if len(self.history) < self.min_samples:
            self.history.append(wall)
            return self._event(ctx, "ok", value=0.0, threshold=self.k_warn)
        score = self.score(wall)
        self.history.append(wall)
        if self.k_trip is not None and score > self.k_trip:
            sev, thr = "trip", self.k_trip
        elif score > self.k_warn:
            sev, thr = "warn", self.k_warn
        else:
            return self._event(ctx, "ok", value=score, threshold=self.k_warn)
        return self._event(
            ctx, sev,
            message=f"step wall time {wall:.3e}s is {score:.1f} robust "
                    "deviations above the rolling median",
            value=score, threshold=thr,
        )

    def on_recovery(self, restored_step: int) -> None:
        # replayed steps re-run the same kernels; keep the window but a
        # recovery pause should not count as a sample
        pass
