"""The flight recorder: a black box of the last N steps.

A :class:`FlightRecorder` keeps a bounded ring of structured
:class:`StepRecord` entries — dt, CFL margin, conserved-field extrema,
RMS norms, watchdog statuses, telemetry snapshot deltas, recovery
events — and serializes them as self-describing JSONL when the run
crashes or a watchdog trips. The dump goes through
:class:`~repro.io.filesystem.SimFileSystem`, so the fault-injection
campaign covers the black box itself (a post-mortem artifact that can
be lost to the same I/O failure that killed the run is not a black
box).

Dump layout (one JSON object per line)::

    {"kind": "header", "version": 1, "variables": [...], ...}
    {"kind": "step", "step": 12, "t": ..., "dt": ..., ...}
    {"kind": "recovery", "at_step": ..., ...}
    {"kind": "summary", "reason": "watchdog trip", ...}

:func:`FlightRecorder.parse` inverts the format, and
:func:`~repro.observability.render.replay_report` turns a parsed dump
back into the ASCII/HTML observatory views offline.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SCHEMA_VERSION", "StepRecord", "FlightRecorder"]

#: bump when the JSONL schema changes shape
SCHEMA_VERSION = 1


@dataclass
class StepRecord:
    """One step's structured health snapshot."""

    step: int
    time: float
    dt: float
    wall_time: float = 0.0
    extrema: dict = field(default_factory=dict)   # var -> (min, max)
    rms: dict = field(default_factory=dict)       # var -> sqrt(mean(u^2))
    watchdogs: dict = field(default_factory=dict)  # name -> severity
    telemetry: dict | None = None                 # snapshot delta
    cfl_margin: float | None = None

    def as_dict(self) -> dict:
        out = {
            "kind": "step",
            "step": self.step,
            "t": self.time,
            "dt": self.dt,
            "wall": self.wall_time,
            "extrema": {k: [v[0], v[1]] for k, v in self.extrema.items()},
            "rms": dict(self.rms),
            "watchdogs": dict(self.watchdogs),
        }
        if self.cfl_margin is not None:
            out["cfl_margin"] = self.cfl_margin
        if self.telemetry:
            out["telemetry"] = self.telemetry
        return out


def state_rms(state) -> dict:
    """Per-variable RMS of the conserved state (cheap residual-scale
    norms for the step table)."""
    u = state.u
    names = state.variable_names()
    flat = u.reshape(u.shape[0], -1)
    vals = np.sqrt(np.mean(flat * flat, axis=1))
    return {n: float(v) for n, v in zip(names, vals)}


class FlightRecorder:
    """Bounded ring of step records plus run-level context."""

    def __init__(self, capacity: int = 256, telemetry=None):
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self.capacity = int(capacity)
        self.records: deque = deque(maxlen=self.capacity)
        self.recoveries: list = []
        self.telemetry = telemetry
        self.steps_seen = 0
        self.warns = 0
        self.trips = 0
        self.dumps = 0

    # -- recording -------------------------------------------------------
    def record(self, rec: StepRecord) -> None:
        self.records.append(rec)
        self.steps_seen += 1
        sev = set(rec.watchdogs.values())
        if "trip" in sev:
            self.trips += 1
        elif "warn" in sev:
            self.warns += 1

    def record_recovery(self, info: dict) -> None:
        """Note a rollback (kept unbounded: recoveries are rare and are
        exactly what a post-mortem wants)."""
        entry = {"kind": "recovery"}
        entry.update(info)
        self.recoveries.append(entry)

    @property
    def last(self) -> StepRecord | None:
        return self.records[-1] if self.records else None

    # -- serialization ---------------------------------------------------
    def summary(self, reason: str = "") -> dict:
        return {
            "kind": "summary",
            "reason": reason,
            "steps_seen": self.steps_seen,
            "records_retained": len(self.records),
            "warns": self.warns,
            "trips": self.trips,
            "recoveries": len(self.recoveries),
        }

    def to_jsonl(self, reason: str = "") -> str:
        header = {"kind": "header", "version": SCHEMA_VERSION,
                  "capacity": self.capacity}
        lines = [json.dumps(header, sort_keys=True)]
        lines += [json.dumps(r.as_dict(), sort_keys=True) for r in self.records]
        lines += [json.dumps(r, sort_keys=True) for r in self.recoveries]
        lines.append(json.dumps(self.summary(reason), sort_keys=True))
        return "\n".join(lines) + "\n"

    def dump(self, fs, path: str, reason: str = "") -> str:
        """Write the black box through the simulated file system.

        Uses the same write-phase machinery as checkpoints, so armed
        ``fs.write`` faults hit the dump too. Returns ``path``.
        """
        payload = self.to_jsonl(reason).encode()
        fs.write_bytes(path, payload)
        self.dumps += 1
        if self.telemetry is not None:
            self.telemetry.counter("flightrecorder.dumps").inc()
            self.telemetry.counter("flightrecorder.bytes").inc(len(payload))
        return path


    # -- parsing ---------------------------------------------------------
    @staticmethod
    def parse(text: str) -> dict:
        """Parse a JSONL dump into ``{"header", "steps", "recoveries",
        "summary"}``; raises ``ValueError`` on a malformed dump."""
        header = None
        summary = None
        steps: list = []
        recoveries: list = []
        for i, line in enumerate(text.splitlines()):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValueError(
                    f"flight record line {i + 1} is not JSON: {err}"
                ) from err
            if not isinstance(obj, dict):
                raise ValueError(
                    f"flight record line {i + 1} is not a JSON object: "
                    f"{line.strip()[:40]}"
                )
            kind = obj.get("kind")
            if kind == "header":
                header = obj
            elif kind == "step":
                steps.append(obj)
            elif kind == "recovery":
                recoveries.append(obj)
            elif kind == "summary":
                summary = obj
            else:
                raise ValueError(f"unknown record kind {kind!r} on line {i + 1}")
        if header is None:
            raise ValueError("flight record has no header line")
        if header.get("version") != SCHEMA_VERSION:
            raise ValueError(
                f"flight record schema v{header.get('version')} != "
                f"supported v{SCHEMA_VERSION}"
            )
        return {
            "header": header,
            "steps": steps,
            "recoveries": recoveries,
            "summary": summary,
        }

    @classmethod
    def load(cls, fs, path: str) -> dict:
        """Read and parse a dump back from the file system."""
        raw = fs.read(path, 0, fs.file_size(path))
        return cls.parse(raw.decode())
