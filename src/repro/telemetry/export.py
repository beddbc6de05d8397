"""Telemetry exporters: TAU-style profiles, snapshots, §9 monitor files.

* :func:`profile_report` — the per-kernel exclusive-time table the
  paper's TAU profiles reduce to (Fig 2): percent of traced time,
  exclusive/inclusive milliseconds, call counts, one row per kernel;
  the one formatter of a rank's profile and of a cross-rank fused one.
* :func:`snapshot` / :func:`delta` — the plain-data state of a
  telemetry backend, and what changed between two such states.
* :class:`MonitorWriter` — per-step ASCII monitoring lines in the
  format of the paper's §9 min/max files; each data row is
  ``step variable min max time`` so the workflow's
  :class:`~repro.workflow.actors.MinMaxParser` consumes it unchanged.
"""

from __future__ import annotations


def profile_report(spans: dict, title: str = "per-kernel exclusive time") -> str:
    """TAU-style flat profile of a snapshot's ``"spans"`` table (kernel
    name -> ``count``, ``exclusive`` and ``inclusive`` seconds).

    Rows are sorted by exclusive time (descending, name as tiebreak);
    percentages are of the total *exclusive* time, which — unlike
    inclusive time — sums to the wall time actually traced. Rows that
    carry a cross-rank ``imbalance`` (a
    :class:`~repro.observability.fusion.FusedProfile`'s) add an ``imb``
    column.
    """
    if not spans:
        return ""
    imb = all("imbalance" in row for row in spans.values())
    header = (f"{'%Time':>7s} {'excl[ms]':>12s} {'incl[ms]':>12s} "
              f"{'calls':>10s}" + (f" {'imb':>6s}" if imb else "") + "  name")
    rule = "-" * len(header)
    total_excl = sum(row["exclusive"] for row in spans.values()) or 1.0
    lines = [title, rule, header, rule]
    for name in sorted(spans, key=lambda k: (-spans[k]["exclusive"], k)):
        row = spans[name]
        lines.append(
            f"{100.0 * row['exclusive'] / total_excl:>6.1f}% "
            f"{row['exclusive'] * 1e3:>12.4f} {row['inclusive'] * 1e3:>12.4f} "
            f"{row['count']:>10d}"
            + (f" {row['imbalance']:>6.3f}" if imb else "") + f"  {name}"
        )
    lines.append(rule)
    return "\n".join(lines)


def snapshot(telemetry) -> dict:
    """Combined plain-data snapshot of a telemetry instance."""
    out = telemetry.tracer.snapshot()
    out["metrics"] = telemetry.metrics.snapshot()
    return out


def _advanced(now: dict, then: dict) -> dict:
    """Rows of ``now`` (span rows, histograms) whose ``count`` advanced
    since ``then``, as increments; a histogram keeps its buckets."""
    out = {}
    for k, row in now.items():
        prev = then.get(k)
        if prev is None:
            if row["count"]:
                out[k] = row
        elif row["count"] != prev["count"]:
            out[k] = {f: v if f == "buckets"
                      else [a - b for a, b in zip(v, prev[f])] if f == "counts"
                      else v - prev[f]
                      for f, v in row.items()}
    return out


def delta(current: dict, base: dict) -> dict:
    """What changed from snapshot ``base`` to snapshot ``current``.

    Spans, counters and histograms whose counts advanced appear as
    increments, and a gauge at its current value when that value
    changed, so the deltas of successive snapshots sum to the last one.
    """
    now, was = current["metrics"], base["metrics"]
    return {
        "spans": _advanced(current["spans"], base["spans"]),
        "metrics": {
            "counters": {k: v - was["counters"].get(k, 0.0)
                         for k, v in now["counters"].items()
                         if v != was["counters"].get(k, 0.0)},
            "gauges": {k: v for k, v in now["gauges"].items()
                       if was["gauges"].get(k) != v},
            "histograms": _advanced(now["histograms"], was["histograms"]),
        },
    }


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
