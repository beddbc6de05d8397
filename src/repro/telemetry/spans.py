"""Hierarchical timing spans with TAU-style exclusive-time accounting.

A *span* is one timed region of code; spans nest, and the tracer keeps
the two aggregates TAU's per-kernel profiles are built from (§4):

* **inclusive** time — wall time between span entry and exit,
* **exclusive** time — inclusive time minus the inclusive time of the
  span's direct children (the time actually spent *in* the kernel).

Spans aggregate by *name* only: the flat per-kernel profile of Fig 2,
not a call tree.

The tracer takes an injectable clock so exclusive-time arithmetic is
testable deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    """Aggregated timing for one span name."""

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
        #: active stack of [name, start, child_inclusive]
        self._stack: list = []
        self.stats: dict = {}  # name -> SpanStats

    # -- recording -------------------------------------------------------
    def span(self, name: str, **counters) -> _SpanHandle:
        """Context manager timing ``name``; keyword values become
        counter increments (``<name>.<key>``) on successful exit."""
        return _SpanHandle(self, name, counters)

    def _begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def _end(self, counters: dict | None = None) -> float:
        if not self._stack:
            raise RuntimeError("span end without matching begin")
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        s = self.stats.get(name)
        if s is None:
            s = self.stats[name] = SpanStats(name)
        s.count += 1
        s.inclusive += duration
        s.exclusive += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if counters and self.metrics is not None:
            for key, amount in counters.items():
                self.metrics.counter(f"{name}.{key}").inc(amount)
        return duration

    # -- introspection ---------------------------------------------------
    @property
    def depth(self) -> int:
        return len(self._stack)

    def snapshot(self) -> dict:
        """Plain-data view (JSON-serializable), names sorted."""
        return {"spans": {
            k: {"count": s.count, "inclusive": s.inclusive,
                "exclusive": s.exclusive}
            for k, s in sorted(self.stats.items())
        }}

    def reset(self) -> None:
        if self._stack:
            raise RuntimeError("cannot reset tracer with active spans")
        self.stats.clear()
