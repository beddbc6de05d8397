"""Hierarchical timing spans with TAU-style exclusive-time accounting.

A *span* is one timed region of code; spans nest, and the tracer keeps
the two aggregates TAU's per-kernel profiles are built from (§4):

* **inclusive** time — wall time between span entry and exit,
* **exclusive** time — inclusive time minus the inclusive time of the
  span's direct children (the time actually spent *in* the kernel).

Aggregation happens twice: per span *name* (the flat per-kernel profile
of Fig 2) and per call *path* (``integrate/DERIVATIVES``), so the report
can show both the flat table and the call tree.

The tracer takes an injectable clock so exclusive-time arithmetic is
testable deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    """Aggregated timing for one span name (or call path)."""

    name: str
    count: int = 0
    inclusive: float = 0.0
    exclusive: float = 0.0


class _SpanHandle:
    """Context manager for one active span (created per entry)."""

    __slots__ = ("tracer", "name", "counters")

    def __init__(self, tracer: "Tracer", name: str, counters: dict):
        self.tracer = tracer
        self.name = name
        self.counters = counters

    def __enter__(self) -> "_SpanHandle":
        self.tracer._begin(self.name)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer._end(self.counters)


class Tracer:
    """Records nested spans and aggregates inclusive/exclusive times.

    Parameters
    ----------
    clock:
        Zero-argument callable returning seconds (default
        ``time.perf_counter``); injectable for deterministic tests.
    metrics:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry`; span
        keyword counters (``span("halo", bytes=n)``) increment counters
        named ``<span>.<key>`` there on exit.
    """

    def __init__(self, clock=None, metrics=None):
        self.clock = clock or time.perf_counter
        self.metrics = metrics
        #: active stack of [name, path, start, child_inclusive]
        self._stack: list = []
        self.stats: dict = {}       # name -> SpanStats
        self.path_stats: dict = {}  # "a/b/c" -> SpanStats

    # -- recording -------------------------------------------------------
    def span(self, name: str, **counters) -> _SpanHandle:
        """Context manager timing ``name``; keyword values become
        counter increments (``<name>.<key>``) on successful exit."""
        return _SpanHandle(self, name, counters)

    def _begin(self, name: str) -> None:
        path = f"{self._stack[-1][1]}/{name}" if self._stack else name
        self._stack.append([name, path, self.clock(), 0.0])

    def _end(self, counters: dict | None = None) -> float:
        if not self._stack:
            raise RuntimeError("span end without matching begin")
        name, path, start, child = self._stack.pop()
        duration = self.clock() - start
        for table, key in ((self.stats, name), (self.path_stats, path)):
            s = table.get(key)
            if s is None:
                s = table[key] = SpanStats(key)
            s.count += 1
            s.inclusive += duration
            s.exclusive += duration - child
        if self._stack:
            self._stack[-1][3] += duration
        if counters and self.metrics is not None:
            for key, amount in counters.items():
                self.metrics.counter(f"{name}.{key}").inc(amount)
        return duration

    # -- introspection ---------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._stack)

    @property
    def current_path(self) -> str:
        return self._stack[-1][1] if self._stack else ""

    def snapshot(self) -> dict:
        """Plain-data view (JSON-serializable), names sorted."""

        def table(d):
            return {
                k: {
                    "count": d[k].count,
                    "inclusive": d[k].inclusive,
                    "exclusive": d[k].exclusive,
                }
                for k in sorted(d)
            }

        return {"spans": table(self.stats), "paths": table(self.path_stats)}

    def snapshot_delta(self, baseline: dict) -> dict:
        """Difference between the current :meth:`snapshot` and a prior
        one; only spans whose counts advanced appear."""
        cur = self.snapshot()
        out = {}
        for table in ("spans", "paths"):
            base = baseline.get(table, {})
            diff = {}
            for k, row in cur[table].items():
                prev = base.get(k, {"count": 0, "inclusive": 0.0, "exclusive": 0.0})
                dcount = row["count"] - prev["count"]
                if dcount:
                    diff[k] = {
                        "count": dcount,
                        "inclusive": row["inclusive"] - prev["inclusive"],
                        "exclusive": row["exclusive"] - prev["exclusive"],
                    }
            out[table] = diff
        return out

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset tracer with active spans")
        self.stats.clear()
        self.path_stats.clear()
