"""Distributed trace events with cross-rank causal propagation.

This is the *temporal-causal* layer of the telemetry substrate: where
:mod:`repro.telemetry.spans` aggregates durations into per-name
statistics, the :class:`TraceLog` keeps the individual events — every
span, every message-plane send and receive — each with a unique id, a
causal parent link, and a Lamport logical clock, so per-rank event
streams recorded on different processes stitch back into one global
causally-ordered timeline (:mod:`repro.observability.timeline`).

Three event kinds:

* ``span`` — a named interval on one rank (wall-clock start/duration,
  parent = the enclosing span on the same rank),
* ``send`` — a message leaving a rank; recording one returns the
  :class:`TraceContext` the transport piggybacks on the message,
* ``recv`` — a message arriving; its parent is the matching send, and
  its logical clock is advanced past the carried context so causality
  survives rank boundaries (``logical(send) < logical(recv)`` always).

Clock discipline follows the classic recipe: every event ticks its
rank's Lamport counter; a receive first raises the counter above the
sender's carried value. Wall-clock timestamps are monotonic *within* a
rank (``time.perf_counter``) but never compared across ranks — ordering
across ranks is the logical clock's job, duration the wall clock's.

The context that crosses the wire is deliberately tiny — ``(id,
logical)``, two integers — and rides *beside* the payload (a sidecar
queue in the transports), so enabling tracing is bitwise-invisible to
every array a solver exchanges.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = [
    "DRIVER_RANK",
    "TraceContext",
    "TraceEvent",
    "TraceLog",
    "classify_tag",
]

#: lane used for events recorded by the driver process itself (rank
#: programs use their real rank ids >= 0)
DRIVER_RANK = -1

#: message-name classification by tag range: chemlb replies come back on
#: ``TAG_RESULT + seq`` (>= 50700), shipments go out on ``TAG_SHIP +
#: seq`` (700 <= tag < 9102), profile fusion gathers on FUSION_TAG
#: (9102), and halo traffic uses small face tags (< 100)
def classify_tag(tag: int) -> str:
    """Human-readable message category for a transport tag."""
    tag = int(tag)
    if tag >= 50700:
        return "chemlb.reply"
    if tag == 9102:
        return "profile.fusion"
    if 700 <= tag < 9102:
        return "chemlb.ship"
    if 0 <= tag < 100:
        return "halo"
    return "message"


class TraceContext(NamedTuple):
    """The compact context piggybacked on a message: the send event's
    id (the receive's causal parent) and the sender's logical clock."""

    id: int
    logical: int


@dataclass
class TraceEvent:
    """One recorded event. ``duration`` is zero for sends/recvs;
    ``parent`` is the enclosing span (spans, sends) or the matching
    send event (recvs), ``None`` at the root."""

    kind: str          # "span" | "send" | "recv"
    name: str
    rank: int
    start: float       # wall clock [s], monotonic within the rank
    duration: float    # wall clock [s]
    logical: int       # Lamport clock value at the event
    seq: int           # per-rank monotone sequence number
    id: int
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "name": self.name,
            "rank": self.rank,
            "start": self.start,
            "duration": self.duration,
            "logical": self.logical,
            "seq": self.seq,
            "id": self.id,
            "parent": self.parent,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TraceEvent":
        return cls(
            kind=d["kind"], name=d["name"], rank=int(d["rank"]),
            start=float(d["start"]), duration=float(d["duration"]),
            logical=int(d["logical"]), seq=int(d["seq"]), id=int(d["id"]),
            parent=d.get("parent"), attrs=dict(d.get("attrs", {})),
        )


class TraceLog:
    """Per-process event log with per-rank Lamport clocks.

    One log serves every rank the process records for: the driver's log
    carries its own lane (:data:`DRIVER_RANK`) plus — on the in-process
    transport — the lanes of every rank program it runs; a
    worker-resident log carries exactly its own rank. Ids are unique
    within a log; :func:`repro.observability.timeline.stitch` renumbers
    them when logs from several processes are combined.
    """

    def __init__(self, clock=None, rank: int = DRIVER_RANK):
        self.clock = clock if clock is not None else time.perf_counter
        self.rank = int(rank)
        self.events: list = []
        self._clocks: dict = defaultdict(int)      # rank -> Lamport clock
        self._seqs: dict = defaultdict(int)        # rank -> next seq
        self._open: dict = {}                      # id -> open span event
        self._span_stack: dict = defaultdict(list)  # rank -> open span ids
        self._next_id = 1

    # -- internals -------------------------------------------------------
    def _new_id(self) -> int:
        i = self._next_id
        self._next_id = i + 1
        return i

    def _tick(self, rank: int, floor: int = 0) -> int:
        c = max(self._clocks[rank], floor) + 1
        self._clocks[rank] = c
        return c

    def _next_seq(self, rank: int) -> int:
        s = self._seqs[rank]
        self._seqs[rank] = s + 1
        return s

    def _enclosing(self, rank: int):
        stack = self._span_stack.get(rank)
        return stack[-1] if stack else None

    # -- spans -----------------------------------------------------------
    def begin_span(self, name: str, rank: int | None = None) -> int:
        """Open a span on ``rank`` (default: the log's own lane);
        returns the span id to hand back to :meth:`end_span`."""
        rank = self.rank if rank is None else int(rank)
        sid = self._new_id()
        ev = TraceEvent(
            kind="span", name=name, rank=rank, start=self.clock(),
            duration=0.0, logical=self._tick(rank),
            seq=self._next_seq(rank), id=sid,
            parent=self._enclosing(rank),
        )
        self._open[sid] = ev
        self._span_stack[rank].append(sid)
        return sid

    def end_span(self, span_id: int, **attrs) -> TraceEvent:
        """Close an open span; keyword arguments land in ``attrs``."""
        ev = self._open.pop(span_id)
        ev.duration = self.clock() - ev.start
        stack = self._span_stack[ev.rank]
        if span_id in stack:          # tolerate out-of-order closes
            stack.remove(span_id)
        if attrs:
            ev.attrs.update(attrs)
        self._tick(ev.rank)
        self.events.append(ev)
        return ev

    # -- messages --------------------------------------------------------
    def record_send(self, source: int, dest: int, tag: int,
                    nbytes: int) -> TraceContext:
        """Record a message leaving ``source``; returns the context the
        transport piggybacks beside the payload."""
        sid = self._new_id()
        logical = self._tick(source)
        self.events.append(TraceEvent(
            kind="send", name=classify_tag(tag), rank=int(source),
            start=self.clock(), duration=0.0, logical=logical,
            seq=self._next_seq(source), id=sid,
            parent=self._enclosing(source),
            attrs={"src": int(source), "dst": int(dest), "tag": int(tag),
                   "bytes": int(nbytes)},
        ))
        return TraceContext(sid, logical)

    def record_recv(self, rank: int, source: int, tag: int, nbytes: int,
                    ctx: TraceContext | None = None) -> TraceEvent:
        """Record a message arriving on ``rank``. With a carried
        context the receive's logical clock jumps past the sender's and
        its parent is the matching send event."""
        floor = int(ctx.logical) if ctx is not None else 0
        ev = TraceEvent(
            kind="recv", name=classify_tag(tag), rank=int(rank),
            start=self.clock(), duration=0.0,
            logical=self._tick(rank, floor=floor),
            seq=self._next_seq(rank), id=self._new_id(),
            parent=int(ctx.id) if ctx is not None else None,
            attrs={"src": int(source), "dst": int(rank), "tag": int(tag),
                   "bytes": int(nbytes)},
        )
        self.events.append(ev)
        return ev

    # -- lifecycle -------------------------------------------------------
    @property
    def active(self) -> int:
        """Number of spans currently open."""
        return len(self._open)

    def snapshot(self) -> dict:
        """Plain-data view: ``{"rank", "events"}`` — JSON-serializable,
        the unit :func:`repro.observability.timeline.stitch` consumes."""
        return {
            "rank": self.rank,
            "events": [e.as_dict() for e in self.events],
        }

    def reset(self) -> None:
        if self._open:
            names = ", ".join(e.name for e in self._open.values())
            raise RuntimeError(f"cannot reset trace log with open spans: {names}")
        self.events.clear()
        self._clocks.clear()
        self._seqs.clear()
        self._span_stack.clear()
        self._next_id = 1
