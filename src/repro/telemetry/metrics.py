"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

The registry is the quantitative half of the telemetry substrate (the
tracer in :mod:`repro.telemetry.spans` is the temporal half). It keeps
three instrument kinds, mirroring what the paper's measurement campaign
actually records:

* **counters** — monotonically accumulating totals (bytes exchanged in
  halo sweeps, bytes written per checkpoint, stage-1 flush counts),
* **gauges** — last-written values (current dt, current load imbalance),
* **histograms** — fixed-bucket distributions (file-open times,
  per-phase write times), cheap enough for per-request observation.

All instruments are plain Python objects with no locking; the solver is
single-threaded per rank, exactly like S3D's per-process TAU buffers.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field


@dataclass
class Counter:
    """Monotonic accumulator."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


@dataclass
class Gauge:
    """Last-value instrument."""

    name: str
    value: float = 0.0
    updates: int = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1


#: default histogram bucket upper bounds [s] — spans open times (~ms)
#: through long collective writes (~minutes)
DEFAULT_BUCKETS = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0, 60.0
)


@dataclass
class Histogram:
    """Fixed-bucket histogram.

    ``buckets`` holds ascending upper bounds; an implicit final bucket
    catches everything above the last bound. ``counts[i]`` counts
    observations with ``value <= buckets[i]`` (first matching bucket),
    ``counts[-1]`` the overflow.
    """

    name: str
    buckets: tuple = DEFAULT_BUCKETS
    counts: list = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self):
        self.buckets = tuple(float(b) for b in self.buckets)
        if list(self.buckets) != sorted(self.buckets) or len(set(self.buckets)) != len(self.buckets):
            raise ValueError(f"histogram {self.name!r} buckets must be strictly ascending")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named collection of counters, gauges, and histograms.

    Instruments are created on first use and live for the registry's
    lifetime; iteration and snapshots are sorted by name so output is
    deterministic regardless of creation order.
    """

    def __init__(self):
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}

    # -- access ----------------------------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, buckets: tuple = DEFAULT_BUCKETS) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, buckets=tuple(buckets))
        elif h.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} re-registered with different buckets"
            )
        return h

    # -- introspection ---------------------------------------------------
    @property
    def counters(self) -> dict:
        return {k: self._counters[k] for k in sorted(self._counters)}

    @property
    def gauges(self) -> dict:
        return {k: self._gauges[k] for k in sorted(self._gauges)}

    @property
    def histograms(self) -> dict:
        return {k: self._histograms[k] for k in sorted(self._histograms)}

    def snapshot(self) -> dict:
        """Plain-data view of every instrument (JSON-serializable)."""
        return {
            "counters": {k: c.value for k, c in self.counters.items()},
            "gauges": {k: g.value for k, g in self.gauges.items()},
            "histograms": {
                k: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for k, h in self.histograms.items()
            },
        }

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
