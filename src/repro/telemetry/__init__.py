"""Unified telemetry: timing spans + metrics + profiler export.

The measurement substrate the paper's §3-§4 methodology needs: TAU-style
hierarchical spans with exclusive-time accounting, a process-wide
metrics registry (counters/gauges/histograms), and exporters for the
per-kernel profile table, plain-data snapshots, and §9 ASCII monitor
files.

Two backends share one API:

* :class:`Telemetry` — the recording backend,
* :class:`NullTelemetry` — a no-op backend whose spans and instruments
  do nothing, so instrumented hot paths cost essentially nothing when
  telemetry is off.

Backend selection: an explicit instance passed to a component always
wins; otherwise the process default from :func:`get_telemetry` applies,
which is the null backend unless the ``telemetry`` knob
(:data:`repro.core.config.KNOBS`, ``REPRO_TELEMETRY``) is on. Solvers pick theirs with
:func:`for_solver`.
"""

from __future__ import annotations

from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_BUCKETS,
)
from repro.telemetry.spans import SpanStats, Tracer
from repro.telemetry import export
from repro.telemetry.export import (
    MonitorWriter,
    parse_monitor_text,
    profile_report,
)

__all__ = [
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "Tracer",
    "SpanStats",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "MonitorWriter",
    "profile_report",
    "parse_monitor_text",
    "get_telemetry",
    "resolve",
    "for_solver",
]


def _knob(name: str, explicit=None):
    # imported on use: importing repro.core pulls this package in
    from repro.core.config import resolve as resolve_knob

    return resolve_knob(name, explicit)


class Telemetry:
    """Recording telemetry backend: one tracer + one metrics registry.

    Parameters
    ----------
    clock:
        Injectable clock for the tracer (tests pass a fake).
    tracing:
        Accepted only as a falsy value: distributed tracing was
        removed, and ``True`` raises :class:`ValueError`.
    """

    enabled = True

    def __init__(self, clock=None, tracing=False):
        if tracing:
            raise ValueError("Telemetry(tracing=True): distributed "
                             "tracing was removed")
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=clock, metrics=self.metrics)
        self._delta_base: dict | None = None

    # -- spans -----------------------------------------------------------
    def span(self, name: str, **counters):
        """Context manager timing ``name``; kwargs increment counters
        named ``<name>.<key>`` on exit."""
        return self.tracer.span(name, **counters)

    # -- metrics ---------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> Histogram:
        return self.metrics.histogram(name, buckets=buckets)

    # -- export ----------------------------------------------------------
    def profile_report(self, title: str = "per-kernel exclusive time") -> str:
        return export.profile_report(self.tracer.snapshot()["spans"],
                                     title=title)

    def snapshot(self, delta: bool = False) -> dict:
        """Plain-data view of tracer + metrics state.

        With ``delta=True`` the view only contains what changed since
        the previous ``snapshot(delta=True)`` call (the whole state on
        the first call), which is what the flight recorder appends per
        step instead of an ever-growing full dump.
        """
        full = export.snapshot(self)
        if not delta:
            return full
        out = export.delta(full, self._delta_base or NULL_TELEMETRY.snapshot())
        self._delta_base = full
        return out

    def reset(self) -> None:
        self.tracer.reset()
        self.metrics.reset()
        self._delta_base = None


class _NullSpan:
    """Shared no-op context manager (zero allocation per span)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return None


class _NullInstrument:
    """No-op counter/gauge/histogram."""

    __slots__ = ()
    name = ""
    value = 0.0
    count = 0
    total = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_INSTRUMENT = _NullInstrument()


class _NullMetricsRegistry:
    """Registry facade whose instruments are shared no-ops."""

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def reset(self) -> None:
        pass


class _NullTracer:
    """Tracer facade that records nothing."""

    def span(self, name: str, **counters) -> _NullSpan:
        return _NULL_SPAN

    def snapshot(self) -> dict:
        return {"spans": {}}

    def reset(self) -> None:
        pass


class NullTelemetry:
    """Disabled backend: every operation is a no-op.

    A single shared instance (:data:`NULL_TELEMETRY`) is enough; the
    class is stateless.
    """

    enabled = False

    def __init__(self):
        self.metrics = _NullMetricsRegistry()
        self.tracer = _NullTracer()

    def span(self, name: str, **counters) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, buckets=DEFAULT_BUCKETS) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def profile_report(self, title: str = "per-kernel exclusive time") -> str:
        return ""

    def snapshot(self, delta: bool = False) -> dict:
        return {"spans": {}, "metrics": self.metrics.snapshot()}

    def reset(self) -> None:
        pass


#: the shared disabled backend
NULL_TELEMETRY = NullTelemetry()

_default: object | None = None


def get_telemetry():
    """The process-default telemetry backend.

    Null unless the ``telemetry`` knob's environment switch is on at
    first use.
    """
    global _default
    if _default is None:
        _default = Telemetry() if _knob("telemetry") else NULL_TELEMETRY
    return _default


def resolve(telemetry=None):
    """Resolution used by instrumented components: explicit instance
    wins, otherwise the process default."""
    return telemetry if telemetry is not None else get_telemetry()


def for_solver(telemetry=None, enabled=None):
    """The backend a solver records into.

    An explicit ``telemetry`` instance wins; otherwise ``enabled``
    (``SolverConfig.telemetry``) picks a fresh recording backend
    (``True``), the null backend (``False``), or the process default
    (``None``).
    """
    if telemetry is not None:
        return telemetry
    if enabled is False:
        return NULL_TELEMETRY
    return Telemetry() if enabled else get_telemetry()
