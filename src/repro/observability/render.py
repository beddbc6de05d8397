"""The §9 in-situ view: ASCII dashboard, sparklines, HTML observatory.

Terascale runs are watched, not attended: the paper's workflow renders
monitoring data into views a human can scan between meetings (Figs
16-18). :class:`RunMonitor` produces the live terminal version — a
step table, sparkline histories, and watchdog status — on an interval,
and :func:`html_report` emits a static, self-contained
``observatory.html`` (inline CSS + SVG, no external assets) per run.

Both renderers mark up one view (:func:`_view`) of the plain-dict step
rows of the flight recorder's JSONL schema, so they show the same
content and :func:`replay_report` can rebuild them offline from a
crash dump.
"""

from __future__ import annotations

import html as _html
import math

from repro.observability.watchdogs import worst_severity

__all__ = [
    "sparkline",
    "render_dashboard",
    "RunMonitor",
    "html_report",
    "replay_report",
]

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 32) -> str:
    """Unicode sparkline of the last ``width`` values.

    Non-finite entries render as ``·`` (a gap in the trace is itself a
    signal); a constant series renders at mid-height.
    """
    vals = [float(v) for v in values][-width:]
    if not vals:
        return ""
    finite = [v for v in vals if math.isfinite(v)]
    if not finite:
        return "·" * len(vals)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    out = []
    for v in vals:
        if not math.isfinite(v):
            out.append("·")
        elif span == 0.0:
            out.append(_BLOCKS[len(_BLOCKS) // 2])
        else:
            idx = int((v - lo) / span * (len(_BLOCKS) - 1))
            out.append(_BLOCKS[idx])
    return "".join(out)


def _series(rows, key: str) -> list:
    return [float(r.get(key, float("nan"))) for r in rows]


def _max_series(rows, var: str) -> list:
    return [float(r["extrema"][var][1]) if var in r.get("extrema", {})
            else float("nan") for r in rows]


def _oversubscription(rows, telemetry=None) -> int:
    """Latest ``transport.oversubscribed`` gauge value (ranks beyond
    physical CPUs — set by the multiprocessing transport at spawn).

    Prefers a live telemetry backend when one is given; falls back to
    the newest recorded step row carrying a telemetry delta, so replays
    of a flight-recorder dump surface the warning too. Returns 0 when
    the gauge was never set.
    """
    if telemetry is not None and getattr(telemetry, "enabled", False):
        gauge = telemetry.metrics.gauges.get("transport.oversubscribed")
        if gauge is not None and gauge.updates:
            return int(gauge.value)
    for r in reversed(list(rows)):
        gauges = (r.get("telemetry") or {}).get("metrics", {}).get("gauges", {})
        if "transport.oversubscribed" in gauges:
            return int(gauges["transport.oversubscribed"])
    return 0


def _fmt_range(values) -> str:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return "[no finite samples]"
    return f"[{min(finite):.4g}, {max(finite):.4g}]"


def _view(rows, recoveries=(), variables=None, table_rows: int = 8,
          telemetry=None) -> dict:
    """The content of both dashboards, which differ only in markup: the
    latest step row, its watchdog states, the oversubscription warning,
    the history series (dt, wall time, CFL margin when recorded, and the
    maxima of the requested or three leading variables), the recent
    steps with their status, the recoveries and the run's counts."""
    recoveries = list(recoveries)
    status = [worst_severity(r.get("watchdogs", {}).values()) for r in rows]
    last = rows[-1] if rows else {}
    histories = []
    if rows:
        histories = [("dt", _series(rows, "dt")),
                     ("wall[s]", _series(rows, "wall"))]
        margin = _series(rows, "cfl_margin")
        if any(math.isfinite(v) for v in margin):
            histories.append(("cfl", margin))
        for var in (variables if variables is not None
                    else list(last.get("extrema", {}))[:3]):
            histories.append((f"{var} max", _max_series(rows, var)))
    oversub = _oversubscription(rows, telemetry)
    return {
        "last": last,
        "watchdogs": sorted(last.get("watchdogs", {}).items()),
        "warning": (f"transport oversubscribed: {oversub} rank(s) beyond "
                    f"physical CPUs -- wall-time signals suspect"
                    if oversub else ""),
        "histories": histories,
        "recent": [(r["step"], r["t"], r["dt"], r.get("wall", 0.0), st)
                   for r, st in zip(rows[-table_rows:], status[-table_rows:])],
        "recoveries": [f"step {rec.get('at_step', '?')} -> restored "
                       f"{rec.get('restored_step', '?')} "
                       f"({rec.get('error', '')})" for rec in recoveries],
        "counts": (f"retained {len(rows)} steps  warns {status.count('warn')}"
                   f"  trips {status.count('trip')}  recoveries "
                   f"{len(recoveries)}" if rows else ""),
    }


def render_dashboard(rows, recoveries=(), title: str =
                     "simulation health observatory", table_rows: int = 8,
                     spark_width: int = 32, variables=None,
                     telemetry=None) -> str:
    """ASCII dashboard from flight-recorder step rows (dicts)."""
    view = _view(rows, recoveries, variables, table_rows, telemetry)
    last = view["last"]
    lines = [f"=== {title} ===  step {last['step']}  t={last['t']:.6e}s  "
             f"dt={last['dt']:.3e}s" if last
             else f"=== {title} ===\n(no steps recorded)"]
    if view["watchdogs"]:
        lines.append("watchdogs: " + "  ".join(
            f"{k}={v}" for k, v in view["watchdogs"]))
    if view["warning"]:
        lines.append(f"!! {view['warning']}")
    for label, values in view["histories"]:
        lines.append(
            f"{label:<12s} {sparkline(values, spark_width):<{spark_width}s} "
            f"{_fmt_range(values)}"
        )
    if last:
        lines.append(f"{'step':>8s} {'t[s]':>12s} {'dt[s]':>11s} "
                     f"{'wall[s]':>10s}  status")
    for step, t, dt, wall, status in view["recent"]:
        lines.append(f"{step:>8d} {t:>12.5e} {dt:>11.3e} {wall:>10.4f}  "
                     f"{status}")
    lines += [f"recovery: {rec}" for rec in view["recoveries"]]
    if view["counts"]:
        lines.append(view["counts"])
    return "\n".join(lines)


class RunMonitor:
    """Interval-driven live renderer over a flight recorder."""

    def __init__(self, recorder, interval: int = 10, stream=None,
                 table_rows: int = 8, spark_width: int = 32, variables=None,
                 telemetry=None):
        if interval < 1:
            raise ValueError("render interval must be >= 1")
        self.recorder = recorder
        self.interval = int(interval)
        self.stream = stream
        self.table_rows = int(table_rows)
        self.spark_width = int(spark_width)
        self.variables = variables
        #: optional live telemetry backend — lets the dashboard surface
        #: transport-level gauges (oversubscription) without waiting for
        #: a step row to carry a telemetry delta
        self.telemetry = telemetry if telemetry is not None else getattr(
            recorder, "telemetry", None)
        self.renders = 0
        self.last_text = ""

    def render(self) -> str:
        text = render_dashboard(
            [r.as_dict() for r in self.recorder.records],
            recoveries=self.recorder.recoveries,
            table_rows=self.table_rows, spark_width=self.spark_width,
            variables=self.variables, telemetry=self.telemetry,
        )
        self.renders += 1
        self.last_text = text
        if self.stream is not None:
            self.stream.write(text + "\n")
        return text

    def maybe_render(self, step: int) -> str | None:
        """Render when ``step`` hits the interval; None otherwise."""
        if step % self.interval:
            return None
        return self.render()


# ---------------------------------------------------------------------------
# static HTML observatory
# ---------------------------------------------------------------------------
_CSS = """
body { font-family: ui-monospace, monospace; background: #10141a;
       color: #d8dee9; margin: 2em; }
h1 { font-size: 1.3em; } h2 { font-size: 1.05em; margin-top: 1.6em; }
table { border-collapse: collapse; }
th, td { padding: 2px 10px; text-align: right; border-bottom: 1px solid #2a3240; }
th { color: #8fa1b3; } td.name, th.name { text-align: left; }
.ok { color: #a3be8c; } .warn { color: #ebcb8b; } .trip { color: #bf616a; }
.spark { margin: 4px 0; }
pre { background: #161b22; padding: 10px; overflow-x: auto; }
svg { background: #161b22; }
.meta { color: #8fa1b3; }
"""


def _svg_spark(values, width: int = 360, height: int = 48) -> str:
    """Inline SVG polyline sparkline (self-contained, no scripts)."""
    finite = [(i, v) for i, v in enumerate(values) if math.isfinite(v)]
    if not finite:
        return f'<svg width="{width}" height="{height}"></svg>'
    lo = min(v for _, v in finite)
    hi = max(v for _, v in finite)
    span = (hi - lo) or 1.0
    n = max(len(values) - 1, 1)
    pts = " ".join(
        f"{i / n * (width - 4) + 2:.1f},"
        f"{height - 4 - (v - lo) / span * (height - 8):.1f}"
        for i, v in finite
    )
    return (
        f'<svg width="{width}" height="{height}">'
        f'<polyline points="{pts}" fill="none" stroke="#88c0d0" '
        f'stroke-width="1.5"/></svg>'
    )


def html_report(rows, recoveries=(), summary=None,
                title: str = "simulation health observatory",
                variables=None, telemetry=None) -> str:
    """Self-contained HTML observatory from flight-recorder rows."""
    esc = _html.escape
    view = _view(rows, recoveries, variables, telemetry=telemetry)
    last = view["last"]
    parts = [
        "<!doctype html>",
        f"<html><head><meta charset='utf-8'><title>{esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{esc(title)}</h1>",
        f"<p class='meta'>step {last['step']} &middot; t = {last['t']:.6e} s "
        f"&middot; dt = {last['dt']:.3e} s</p>" if last
        else "<p class='meta'>no steps recorded</p>",
    ]
    if view["watchdogs"]:
        parts.append("<h2>watchdogs</h2><p>" + " &nbsp; ".join(
            f"<span class='{esc(sev)}'>{esc(name)}: {esc(sev)}</span>"
            for name, sev in view["watchdogs"]) + "</p>")
    if view["warning"]:
        parts.append(f"<p class='warn'>{esc(view['warning'])}</p>")
    if view["histories"]:
        parts.append("<h2>histories</h2>")
    for label, values in view["histories"]:
        parts.append(
            f"<div class='spark'>{_svg_spark(values)}<br>"
            f"<span class='meta'>{esc(label)} {_fmt_range(values)}"
            f"</span></div>"
        )
    if view["recent"]:
        parts.append(
            "<h2>recent steps</h2><table><tr><th>step</th><th>t [s]</th>"
            "<th>dt [s]</th><th>wall [s]</th><th class='name'>status</th></tr>"
        )
        parts += [
            f"<tr><td>{step}</td><td>{t:.5e}</td><td>{dt:.3e}</td>"
            f"<td>{wall:.4f}</td><td class='name {esc(status)}'>"
            f"{esc(status)}</td></tr>"
            for step, t, dt, wall, status in view["recent"]
        ]
        parts.append("</table>")
    if view["recoveries"]:
        parts.append("<h2>recoveries</h2><ul>")
        parts += [f"<li>{esc(rec)}</li>" for rec in view["recoveries"]]
        parts.append("</ul>")
    if view["counts"]:
        parts.append(f"<p class='meta'>{esc(view['counts'])}</p>")
    if summary:
        parts.append(
            "<h2>summary</h2><p class='meta'>"
            + " &middot; ".join(f"{esc(str(k))}: {esc(str(v))}"
                                for k, v in sorted(summary.items())
                                if k != "kind")
            + "</p>"
        )
    parts.append("</body></html>")
    return "\n".join(parts)


def replay_report(fs, jsonl_path: str) -> dict:
    """Rebuild the observatory views offline from a flight-record dump.

    Returns ``{"parsed", "ascii", "html"}`` — the post-mortem a workflow
    actor renders from the black box of a run that no longer exists.
    """
    from repro.observability.recorder import FlightRecorder

    parsed = FlightRecorder.load(fs, jsonl_path)
    ascii_view = render_dashboard(
        parsed["steps"], recoveries=parsed["recoveries"],
        title="flight-record replay",
    )
    html_view = html_report(
        parsed["steps"], recoveries=parsed["recoveries"],
        summary=parsed.get("summary"), title="flight-record replay",
    )
    return {"parsed": parsed, "ascii": ascii_view, "html": html_view}
