"""Live metrics endpoint: the telemetry registry over localhost HTTP.

The paper's runs are watched from outside the job: the workflow and
the humans behind it poll, they do not attach debuggers.
:class:`MetricsEndpoint` gives a running solver that surface with the
standard library only — a daemon-thread ``ThreadingHTTPServer`` bound
to localhost on an ephemeral port, serving

* ``/metrics`` — the metrics registry in Prometheus text exposition
  format (:func:`prometheus_text`), ready for any off-the-shelf
  scraper,
* ``/snapshot.json`` — the full telemetry snapshot (spans + metrics +
  trace when tracing is on) as JSON,
* ``/healthz`` — a liveness probe.

The endpoint holds a reference to the telemetry backend and renders at
request time; it adds zero per-step cost to the solver loop.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

__all__ = [
    "MetricsEndpoint",
    "prometheus_text",
]

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str) -> str:
    """Prometheus-legal metric name: illegal characters collapse to
    ``_`` and everything is namespaced under ``repro_``."""
    clean = _NAME_SANITIZE.sub("_", str(name))
    if not clean.startswith("repro_"):
        clean = "repro_" + clean
    return clean


def _fmt(value: float) -> str:
    value = float(value)
    return repr(int(value)) if value == int(value) else repr(value)


def prometheus_text(snapshot: dict) -> str:
    """Prometheus text exposition of a metrics-registry snapshot
    (the plain-data dict from ``MetricsRegistry.snapshot()``).

    Counters map to ``counter``, gauges to ``gauge``, histograms to the
    standard ``_bucket``/``_sum``/``_count`` triple with cumulative
    ``le`` labels ending at ``+Inf``.
    """
    lines = []
    for name, value in sorted(snapshot.get("counters", {}).items()):
        pname = metric_name(name)
        lines.append(f"# TYPE {pname} counter")
        lines.append(f"{pname} {_fmt(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        pname = metric_name(name)
        lines.append(f"# TYPE {pname} gauge")
        lines.append(f"{pname} {_fmt(value)}")
    for name, hist in sorted(snapshot.get("histograms", {}).items()):
        pname = metric_name(name)
        lines.append(f"# TYPE {pname} histogram")
        running = 0
        for bound, count in zip(hist["buckets"], hist["counts"]):
            running += int(count)
            lines.append(f'{pname}_bucket{{le="{bound:g}"}} {running}')
        running += int(hist["counts"][len(hist["buckets"])])
        lines.append(f'{pname}_bucket{{le="+Inf"}} {running}')
        lines.append(f"{pname}_sum {_fmt(hist['sum'])}")
        lines.append(f"{pname}_count {int(hist['count'])}")
    return "\n".join(lines) + ("\n" if lines else "")


class _Handler(BaseHTTPRequestHandler):
    endpoint: "MetricsEndpoint"  # set on the per-server subclass

    def _reply(self, body: str, content_type: str, status: int = 200):
        payload = body.encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type + "; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self):  # noqa: N802 (http.server API)
        ep = self.endpoint
        path = self.path.split("?", 1)[0]
        try:
            if path in ("/metrics", "/"):
                self._reply(ep.metrics_text(), "text/plain")
            elif path == "/snapshot.json":
                self._reply(ep.snapshot_json(), "application/json")
            elif path == "/healthz":
                self._reply("ok\n", "text/plain")
            else:
                self._reply(f"unknown path {path}\n", "text/plain", 404)
        except BrokenPipeError:  # client went away mid-reply
            pass

    def log_message(self, fmt, *args):  # silence per-request stderr spam
        pass


class MetricsEndpoint:
    """Localhost HTTP server over a telemetry backend.

    Parameters
    ----------
    telemetry:
        The :class:`~repro.telemetry.Telemetry` whose registry is
        served; rendered at request time, so scrapes always see the
        live values.
    host, port:
        Bind address; ``port=0`` (default) picks an ephemeral port —
        read it back from :attr:`port` after :meth:`start`.

    Use as a context manager, or call :meth:`start`/:meth:`stop`.
    """

    def __init__(self, telemetry, host: str = "127.0.0.1", port: int = 0):
        self.telemetry = telemetry
        self.host = host
        self._requested_port = int(port)
        self._server = None
        self._thread = None

    # -- renderers (also usable without the server) ----------------------
    def metrics_text(self) -> str:
        return prometheus_text(self.telemetry.metrics.snapshot())

    def snapshot_json(self) -> str:
        from repro.telemetry import export

        return export.to_json(self.telemetry)

    # -- lifecycle -------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._server is not None

    @property
    def port(self) -> int | None:
        return self._server.server_address[1] if self._server else None

    def start(self) -> "MetricsEndpoint":
        if self._server is not None:
            return self
        handler = type("BoundHandler", (_Handler,), {"endpoint": self})
        self._server = ThreadingHTTPServer(
            (self.host, self._requested_port), handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-metrics-endpoint",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsEndpoint":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
