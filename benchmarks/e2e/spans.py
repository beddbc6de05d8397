"""Benchmark-owned span recorder: in-memory spans, self time, Chrome trace.

The traced run wraps every driver-level call (``compute_dt``, ``step``,
``record_monitor``, ``checkpoint_save``) and every probe call in a span
recorded here, from outside the program. Spans stay in memory and are
written once, when the run ends. A span's self time is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import time


class SpanRecorder:
    """Nested spans of one workload run (single-threaded)."""

    enabled = True

    def __init__(self, workload: str, clock=time.perf_counter):
        self.workload = workload
        self.clock = clock
        #: finished and open spans: dicts with id, name, start, end,
        #: parent (id or None) and workload (the shared identifier)
        self.spans: list = []
        self._stack: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": self.clock(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = self.clock()
            self._stack.pop()


class NullRecorder:
    """Recorder of the untraced loop: records nothing."""

    enabled = False
    spans: list = []

    def span(self, name: str):
        return contextlib.nullcontext()


def covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> dict:
    """Span id -> self time: duration minus the children's cover."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], [])]
        out[s["id"]] = (s["end"] - s["start"]) - covered(
            [(a, b) for a, b in kids if b > a])
    return out


def self_time_by_name(spans) -> dict:
    """Span name -> summed self time and call count."""
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        row = out.setdefault(s["name"], {"self_s": 0.0, "calls": 0})
        row["self_s"] += selfs[s["id"]]
        row["calls"] += 1
    return out


def chrome_trace(spans, title: str) -> dict:
    """Chrome-trace-event JSON (load at ui.perfetto.dev)."""
    t0 = min((s["start"] for s in spans), default=0.0)
    events = [{
        "name": s["name"], "ph": "X", "pid": 1, "tid": 1,
        "ts": (s["start"] - t0) * 1e6,
        "dur": (s["end"] - s["start"]) * 1e6,
        "args": {"id": s["id"], "parent": s["parent"],
                 "workload": s["workload"]},
    } for s in spans]
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"title": title}}
