"""Telemetry exporters: TAU-style profiles, JSON, §9 monitor files.

Three output formats:

* :func:`profile_report` — the per-kernel exclusive-time table the
  paper's TAU profiles reduce to (Fig 2): percent of traced time,
  exclusive/inclusive milliseconds, call counts, one row per kernel.
* :func:`to_json` — a lossless plain-data snapshot of tracer and
  metrics state.
* :class:`MonitorWriter` — per-step ASCII monitoring lines in the
  format of the paper's §9 min/max files; each data row is
  ``step variable min max time`` so the workflow's
  :class:`~repro.workflow.actors.MinMaxParser` consumes it unchanged.
"""

from __future__ import annotations

import json

#: column layout of the TAU-style table
_HEADER = f"{'%Time':>7s} {'excl[ms]':>12s} {'incl[ms]':>12s} {'calls':>10s}  name"
_RULE = "-" * len(_HEADER)


def profile_report(tracer, title: str = "per-kernel exclusive time") -> str:
    """TAU-style flat profile from a :class:`~repro.telemetry.spans.Tracer`.

    Rows are sorted by exclusive time (descending, name as tiebreak);
    percentages are of the total *exclusive* time, which — unlike
    inclusive time — sums to the wall time actually traced.
    """
    stats = tracer.stats
    if not stats:
        return ""
    total_excl = sum(s.exclusive for s in stats.values()) or 1.0
    rows = sorted(stats.values(), key=lambda s: (-s.exclusive, s.name))
    lines = [title, _RULE, _HEADER, _RULE]
    for s in rows:
        lines.append(
            f"{100.0 * s.exclusive / total_excl:>6.1f}% "
            f"{s.exclusive * 1e3:>12.4f} {s.inclusive * 1e3:>12.4f} "
            f"{s.count:>10d}  {s.name}"
        )
    lines.append(_RULE)
    return "\n".join(lines)


def snapshot(telemetry) -> dict:
    """Combined plain-data snapshot of a telemetry instance."""
    out = telemetry.tracer.snapshot()
    out["metrics"] = telemetry.metrics.snapshot()
    return out


def to_json(telemetry, indent: int | None = None) -> str:
    """Serialize a telemetry snapshot to JSON (keys sorted)."""
    return json.dumps(snapshot(telemetry), sort_keys=True, indent=indent)


class MonitorWriter:
    """Per-step ASCII monitoring writer (§9 min/max files).

    Each recorded step appends one line per variable::

        step variable min max time

    which is exactly what the workflow's ``MinMaxParser`` splits (it
    reads columns 0-3 and tolerates the trailing time column). Lines go
    to ``stream`` (any object with ``write``) when given, and are always
    retained in :attr:`lines` for in-memory consumption.
    """

    def __init__(self, stream=None):
        self.stream = stream
        self.lines: list = []
        self.steps_recorded = 0

    def format_step(self, step: int, time: float, min_max: dict) -> list:
        return [
            f"{step:8d} {name:<24s} {lo:23.15e} {hi:23.15e} {time:23.15e}"
            for name, (lo, hi) in min_max.items()
        ]

    def write_step(self, step: int, time: float, min_max: dict) -> list:
        """Record one step's min/max map; returns the lines written."""
        lines = self.format_step(step, time, min_max)
        self.lines.extend(lines)
        if self.stream is not None:
            self.stream.write("\n".join(lines) + "\n")
        self.steps_recorded += 1
        return lines

    def text(self) -> str:
        return "\n".join(self.lines) + ("\n" if self.lines else "")


def parse_monitor_text(text: str) -> list:
    """Parse monitor lines into dict rows, the inverse of
    :class:`MonitorWriter` (the workflow's ``MinMaxParser`` reads the
    §9 files with it)."""
    rows = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) >= 4:
            rows.append(
                {
                    "step": int(parts[0]),
                    "variable": parts[1],
                    "min": float(parts[2]),
                    "max": float(parts[3]),
                }
            )
    return rows
