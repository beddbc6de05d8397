"""Distributed tracing: context propagation, stitched timelines,
Perfetto export, critical-path analysis, and the live metrics endpoint.

The contract under test (ISSUE 10):

* every message-plane operation carries a compact ``(id, logical)``
  trace context *beside* the payload — enabling tracing never changes
  a byte of what a solver exchanges,
* per-process trace logs stitch into one causally-ordered global
  timeline (Lamport clocks for order, wall clocks for duration),
* the exported Chrome-trace/Perfetto JSON validates and carries flow
  arrows binding each send to its receive across rank pids,
* the trace-derived per-rank chemistry shares agree with the chemistry
  balancer's independently-measured ``rank_seconds`` within 5%,
* the metrics registry is scrapable over localhost HTTP in Prometheus
  text format.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.core.config import resolve
from repro.observability import timeline
from repro.observability.endpoint import (
    MetricsEndpoint,
    metric_name,
    prometheus_text,
)
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.tracing import (
    DRIVER_RANK,
    TraceContext,
    TraceEvent,
    TraceLog,
    classify_tag,
)

pytestmark = pytest.mark.tracing


def parse_prometheus_text(text: str) -> dict:
    """Parse a Prometheus exposition back to ``{name: value}`` samples
    (labels kept inside the name key): the inverse of
    :func:`prometheus_text`."""
    out: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        out[name] = float(value)
    return out


class FakeClock:
    """Settable wall clock for deterministic durations."""

    def __init__(self, t: float = 0.0):
        self.t = float(t)

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += float(dt)


# ---------------------------------------------------------------------------
# TraceLog unit behaviour
# ---------------------------------------------------------------------------
class TestTraceLog:
    def test_span_nesting_parents_and_duration(self):
        clock = FakeClock()
        log = TraceLog(clock=clock)
        outer = log.begin_span("STEP")
        clock.advance(1.0)
        inner = log.begin_span("RHS")
        clock.advance(2.0)
        log.end_span(inner)
        clock.advance(0.5)
        log.end_span(outer, steps=3)
        assert log.active == 0
        inner_ev, outer_ev = log.events  # appended at close time
        assert inner_ev.name == "RHS" and outer_ev.name == "STEP"
        assert inner_ev.parent == outer_ev.id
        assert outer_ev.parent is None
        assert inner_ev.duration == pytest.approx(2.0)
        assert outer_ev.duration == pytest.approx(3.5)
        assert outer_ev.attrs == {"steps": 3}

    def test_lamport_recv_jumps_past_sender(self):
        log = TraceLog(clock=FakeClock())
        # sender rank 0 builds up a large clock
        for _ in range(10):
            log.end_span(log.begin_span("W", rank=0))
        ctx = log.record_send(0, 1, 3, 64)
        recv = log.record_recv(1, 0, 3, 64, ctx=ctx)
        send = next(e for e in log.events if e.kind == "send")
        assert recv.logical > send.logical
        assert recv.parent == send.id

    def test_recv_without_context_has_no_parent(self):
        log = TraceLog(clock=FakeClock())
        ev = log.record_recv(1, 0, 3, 64)
        assert ev.parent is None and ev.logical == 1

    def test_per_rank_sequence_and_clock_monotone(self):
        log = TraceLog(clock=FakeClock())
        for _ in range(4):
            log.record_send(2, 0, 1, 8)
        evs = [e for e in log.events if e.rank == 2]
        assert [e.seq for e in evs] == [0, 1, 2, 3]
        assert [e.logical for e in evs] == sorted(e.logical for e in evs)

    def test_event_dict_roundtrip(self):
        log = TraceLog(clock=FakeClock())
        sid = log.begin_span("X", rank=3)
        ev = log.end_span(sid, cells=7)
        back = TraceEvent(**json.loads(json.dumps(ev.as_dict())))
        assert back == ev

    def test_snapshot_is_json_serializable(self):
        log = TraceLog(clock=FakeClock())
        ctx = log.record_send(0, 1, 5, 16)
        log.record_recv(1, 0, 5, 16, ctx=ctx)
        snap = json.loads(json.dumps(log.snapshot()))
        assert snap["rank"] == DRIVER_RANK
        assert len(snap["events"]) == 2

    def test_reset_refuses_open_spans(self):
        log = TraceLog(clock=FakeClock())
        log.begin_span("OPEN")
        with pytest.raises(RuntimeError, match="OPEN"):
            log.reset()

    def test_reset_clears_everything(self):
        log = TraceLog(clock=FakeClock())
        log.end_span(log.begin_span("A"))
        log.reset()
        assert log.events == [] and log.active == 0
        # ids restart: fresh ground truth after reset
        sid = log.begin_span("B")
        assert sid == 1


class TestResolution:
    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACING", "1")
        assert resolve("tracing", False) is False
        monkeypatch.delenv("REPRO_TRACING")
        assert resolve("tracing", True) is True

    def test_env_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACING", raising=False)
        assert resolve("tracing") is False
        for raw in ("1", "on", "TRUE", "yes"):
            monkeypatch.setenv("REPRO_TRACING", raw)
            assert resolve("tracing") is True
        monkeypatch.setenv("REPRO_TRACING", "0")
        assert resolve("tracing") is False

    def test_classify_tag(self):
        assert classify_tag(0) == "halo"
        assert classify_tag(42) == "halo"
        assert classify_tag(700) == "chemlb.ship"
        assert classify_tag(9101) == "chemlb.ship"
        assert classify_tag(9102) == "profile.fusion"
        assert classify_tag(50700) == "chemlb.reply"
        assert classify_tag(200) == "message"


class TestTelemetryIntegration:
    def test_tracing_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACING", raising=False)
        tel = Telemetry()
        assert tel.tracing is False and tel.tracelog is None
        assert NULL_TELEMETRY.tracing is False
        assert NULL_TELEMETRY.tracelog is None

    def test_spans_record_trace_events(self):
        tel = Telemetry(tracing=True)
        with tel.span("STEP"):
            with tel.span("RHS"):
                pass
        names = [e.name for e in tel.tracelog.events]
        assert names == ["RHS", "STEP"]
        rhs, step = tel.tracelog.events
        assert rhs.parent == step.id
        # aggregate span statistics are unaffected by tracing
        assert tel.tracer.stats["STEP"].count == 1

    def test_enable_tracing_idempotent_and_late(self):
        tel = Telemetry()
        log = tel.enable_tracing(rank=2)
        assert tel.enable_tracing() is log
        assert log.rank == 2
        with tel.span("LATE"):
            pass
        assert [e.name for e in log.events] == ["LATE"]

    def test_snapshot_carries_trace_events(self):
        tel = Telemetry(tracing=True)
        with tel.span("A"):
            pass
        snap = tel.snapshot()
        assert len(snap["trace"]["events"]) == 1

    def test_reset_clears_tracelog(self):
        tel = Telemetry(tracing=True)
        with tel.span("A"):
            pass
        tel.reset()
        assert tel.tracelog.events == []


# ---------------------------------------------------------------------------
# transport piggyback (in-process message plane — shared by the
# multiprocessing backend, which inherits the driver-owned mailboxes)
# ---------------------------------------------------------------------------
class TestTransportPiggyback:
    def _world(self, size=2, telemetry=None, injector=None):
        from repro.parallel.comm import InProcessTransport

        return InProcessTransport(size, fault_injector=injector,
                                  telemetry=telemetry)

    def test_send_recv_records_matched_pair(self):
        tel = Telemetry(tracing=True)
        world = self._world(telemetry=tel)
        payload = np.arange(6, dtype=np.float64)
        world.comm(0).Send(payload, dest=1, tag=7)
        out = world.comm(1).Recv(source=0, tag=7)
        assert np.array_equal(out, payload)  # payload untouched
        send, recv = tel.tracelog.events
        assert (send.kind, recv.kind) == ("send", "recv")
        assert recv.parent == send.id
        assert recv.logical > send.logical
        assert send.attrs["bytes"] == payload.nbytes
        assert send.name == recv.name == "halo"

    def test_tracing_enabled_after_construction(self):
        tel = Telemetry()
        world = self._world(telemetry=tel)
        world.comm(0).Send(np.zeros(2), dest=1, tag=0)
        world.comm(1).Recv(source=0, tag=0)
        assert tel.tracelog is None
        tel.enable_tracing()  # transports look the log up per call
        world.comm(0).Send(np.zeros(2), dest=1, tag=0)
        world.comm(1).Recv(source=0, tag=0)
        assert [e.kind for e in tel.tracelog.events] == ["send", "recv"]

    def test_tracing_off_is_invisible(self):
        tel = Telemetry()
        world = self._world(telemetry=tel)
        world.comm(0).Send(np.ones(3), dest=1, tag=1)
        assert np.array_equal(world.comm(1).Recv(source=0, tag=1), np.ones(3))
        assert not world._trace_ctx

    def test_dropped_message_not_traced(self):
        from repro.resilience.faults import FaultInjector

        inj = FaultInjector()
        inj.add("mpi.send", mode="drop", probability=1.0, count=1)
        tel = Telemetry(tracing=True)
        world = self._world(telemetry=tel, injector=inj)
        world.comm(0).Send(np.arange(4.0), dest=1, tag=2)
        assert world.dropped == 1
        assert tel.tracelog.events == []  # mirrors the message log

    def test_reset_channels_clears_sidecar(self):
        tel = Telemetry(tracing=True)
        world = self._world(telemetry=tel)
        world.comm(0).Send(np.zeros(2), dest=1, tag=0)
        world.reset_channels()
        assert not world._trace_ctx
        # a fresh exchange still pairs correctly (no stale contexts)
        world.comm(0).Send(np.ones(2), dest=1, tag=0)
        world.comm(1).Recv(source=0, tag=0)
        assert tel.tracelog.events[-1].parent == tel.tracelog.events[-2].id

    def test_gather_bytes_produces_flows(self):
        tel = Telemetry(tracing=True)
        world = self._world(size=3, telemetry=tel)
        out = world.gather_bytes([b"a", b"bb", b"ccc"], root=0)
        assert out == [b"a", b"bb", b"ccc"]
        recvs = [e for e in tel.tracelog.events if e.kind == "recv"]
        assert len(recvs) == 2
        assert all(r.parent is not None for r in recvs)


# ---------------------------------------------------------------------------
# stitching
# ---------------------------------------------------------------------------
class TestStitch:
    def test_cross_log_recv_parent_resolution(self):
        # SPMD shape: the send lives in the sender's log, the receive in
        # the receiver's; ids collide across logs
        a, b = TraceLog(clock=FakeClock(), rank=0), TraceLog(
            clock=FakeClock(), rank=1)
        ctx = a.record_send(0, 1, 4, 32)
        b.record_recv(1, 0, 4, 32, ctx=ctx)
        b.record_send(1, 0, 9, 8)  # id 2 in log b — a collision candidate
        events = timeline.stitch([a.snapshot(), b.snapshot()])
        ids = [e["id"] for e in events]
        assert len(set(ids)) == len(ids)  # globally unique after stitch
        send = next(e for e in events if e["kind"] == "send"
                    and e["rank"] == 0)
        recv = next(e for e in events if e["kind"] == "recv")
        assert recv["parent"] == send["id"]

    def test_causal_sort_send_before_recv(self):
        log = TraceLog(clock=FakeClock())
        for i in range(5):
            ctx = log.record_send(0, 1, i, 8)
            log.record_recv(1, 0, i, 8, ctx=ctx)
        events = timeline.stitch([log.snapshot()])
        pos = {e["id"]: i for i, e in enumerate(events)}
        for e in events:
            if e["kind"] == "recv":
                assert pos[e["parent"]] < pos[e["id"]]

    def test_span_parents_stay_intra_log(self):
        log = TraceLog(clock=FakeClock())
        outer = log.begin_span("OUTER")
        log.end_span(log.begin_span("INNER"))
        log.end_span(outer)
        events = timeline.stitch([log.snapshot()])
        by_name = {e["name"]: e for e in events}
        assert by_name["INNER"]["parent"] == by_name["OUTER"]["id"]

    def test_accepts_live_logs_and_event_lists(self):
        log = TraceLog(clock=FakeClock())
        log.end_span(log.begin_span("A"))
        assert timeline.stitch([log])[0]["name"] == "A"
        assert timeline.stitch([log.snapshot()["events"]])[0]["name"] == "A"


# ---------------------------------------------------------------------------
# Chrome-trace export + schema validation
# ---------------------------------------------------------------------------
class TestChromeExport:
    def _sample_events(self):
        clock = FakeClock(10.0)
        log = TraceLog(clock=clock)
        sid = log.begin_span("STEP", rank=0)
        ctx = log.record_send(0, 1, 3, 128)
        clock.advance(0.25)
        log.end_span(sid)
        log.record_recv(1, 0, 3, 128, ctx=ctx)
        return timeline.stitch([log.snapshot()])

    def test_export_validates_and_binds_flows(self):
        trace = timeline.export_chrome_trace(self._sample_events(),
                                             title="unit")
        stats = timeline.validate_chrome_trace(trace)
        assert stats["by_phase"]["X"] == 1
        assert stats["flows"] == 1
        assert trace["otherData"]["title"] == "unit"
        starts = [e for e in trace["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in trace["traceEvents"] if e["ph"] == "f"]
        assert starts[0]["id"] == finishes[0]["id"]
        assert starts[0]["pid"] != finishes[0]["pid"]  # crosses ranks

    def test_pid_mapping_one_per_rank(self):
        log = TraceLog(clock=FakeClock())  # driver lane
        log.end_span(log.begin_span("D"))
        log.end_span(log.begin_span("R", rank=3))
        trace = timeline.export_chrome_trace(timeline.stitch([log]))
        meta = {e["args"]["name"]: e["pid"]
                for e in trace["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert meta == {"driver": 0, "rank 3": 4}

    def test_timestamps_relative_microseconds(self):
        trace = timeline.export_chrome_trace(self._sample_events())
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert slices[0]["ts"] == pytest.approx(0.0)
        assert slices[0]["dur"] == pytest.approx(0.25e6)

    def test_validate_rejects_malformed(self):
        with pytest.raises(ValueError, match="traceEvents"):
            timeline.validate_chrome_trace({"events": []})
        with pytest.raises(ValueError, match="unknown phase"):
            timeline.validate_chrome_trace({"traceEvents": [{"ph": "Q"}]})
        with pytest.raises(ValueError, match="missing field"):
            timeline.validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "a", "pid": 0,
                                  "tid": 0, "ts": 0.0}]})
        with pytest.raises(ValueError, match="no matching start"):
            timeline.validate_chrome_trace(
                {"traceEvents": [{"ph": "f", "bp": "e", "name": "m",
                                  "pid": 0, "tid": 0, "ts": 0.0, "id": 9}]})


# ---------------------------------------------------------------------------
# metrics endpoint
# ---------------------------------------------------------------------------
class TestPrometheusText:
    def test_names_sanitized_and_prefixed(self):
        assert metric_name("transport.bytes") == "repro_transport_bytes"
        assert metric_name("repro_x") == "repro_x"

    def test_counters_gauges_histograms(self):
        tel = Telemetry()
        tel.counter("io.writes").inc(3)
        tel.gauge("solver.dt").set(1.5e-8)
        tel.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        text = prometheus_text(tel.metrics.snapshot())
        samples = parse_prometheus_text(text)
        assert samples["repro_io_writes"] == 3
        assert samples["repro_solver_dt"] == pytest.approx(1.5e-8)
        assert samples['repro_h_bucket{le="1"}'] == 0
        assert samples['repro_h_bucket{le="2"}'] == 1
        assert samples['repro_h_bucket{le="+Inf"}'] == 1
        assert samples["repro_h_count"] == 1
        assert "# TYPE repro_io_writes counter" in text

    def test_empty_snapshot(self):
        assert prometheus_text(
            {"counters": {}, "gauges": {}, "histograms": {}}) == ""


class TestMetricsEndpoint:
    def _get(self, ep, path):
        url = f"http://{ep.host}:{ep.port}{path}"
        with urllib.request.urlopen(url, timeout=5) as resp:
            return resp.status, resp.read().decode()

    def test_serves_metrics_and_snapshot(self):
        tel = Telemetry()
        tel.counter("steps").inc(7)
        with MetricsEndpoint(tel) as ep:
            assert ep.running and ep.port > 0
            status, body = self._get(ep, "/metrics")
            assert status == 200
            assert parse_prometheus_text(body)["repro_steps"] == 7
            # live values: scrape again after another increment
            tel.counter("steps").inc(1)
            _, body = self._get(ep, "/metrics")
            assert parse_prometheus_text(body)["repro_steps"] == 8
            _, snap = self._get(ep, "/snapshot.json")
            assert json.loads(snap)["metrics"]["counters"]["steps"] == 8
            status, body = self._get(ep, "/healthz")
            assert (status, body) == (200, "ok\n")
        assert not ep.running

    def test_unknown_path_404(self):
        with MetricsEndpoint(Telemetry()) as ep:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._get(ep, "/nope")
            assert err.value.code == 404

    def test_dashboard_route_404_without_dashboard(self):
        with MetricsEndpoint(Telemetry()) as ep:
            with pytest.raises(urllib.error.HTTPError) as err:
                self._get(ep, "/dashboard")
            assert err.value.code == 404

    def test_trace_snapshot_over_http(self):
        tel = Telemetry(tracing=True)
        with tel.span("STEP"):
            pass
        with MetricsEndpoint(tel) as ep:
            _, snap = self._get(ep, "/snapshot.json")
        events = json.loads(snap)["trace"]["events"]
        assert [e["name"] for e in events] == ["STEP"]


# ---------------------------------------------------------------------------
# end-to-end: the pinned parallel scenario under tracing
# ---------------------------------------------------------------------------
def _run_lifted_jet(transport: str, tracing: bool, monkeypatch, steps=None):
    from repro.analysis.golden import (
        LIFTED_JET_PARALLEL_DT,
        LIFTED_JET_PARALLEL_STEPS,
        lifted_jet_parallel_solver,
    )

    monkeypatch.delenv("REPRO_TRACING", raising=False)
    solver = lifted_jet_parallel_solver(transport, tracing=tracing)
    try:
        for _ in range(steps or LIFTED_JET_PARALLEL_STEPS):
            solver.step(LIFTED_JET_PARALLEL_DT)
        u = np.array(solver.state.u, copy=True)
        events = solver.trace_events() if tracing else []
        trace = solver.export_timeline() if tracing else None
    finally:
        solver.close()
    return u, events, trace


@pytest.mark.slow
class TestLiftedJetTracing:
    def test_tracing_is_bitwise_invisible(self, monkeypatch):
        u_off, _, _ = _run_lifted_jet("inprocess", False, monkeypatch)
        u_on, _, _ = _run_lifted_jet("inprocess", True, monkeypatch)
        assert np.array_equal(u_off, u_on), (
            "enabling tracing perturbed the solution"
        )

    @pytest.mark.parametrize("transport", ["inprocess", "multiprocessing"])
    def test_stitched_perfetto_timeline(self, transport, monkeypatch):
        from repro.parallel.comm import transport_unavailable_reason

        reason = transport_unavailable_reason(transport)
        if reason:
            pytest.skip(reason)
        _, events, trace = _run_lifted_jet(
            transport, True, monkeypatch)
        # one stitched stream covering driver + all 4 ranks
        assert {e["rank"] for e in events} == {-1, 0, 1, 2, 3}
        stats = timeline.validate_chrome_trace(trace)
        assert stats["flows"] > 0
        assert set(stats["pids"]) == {0, 1, 2, 3, 4}
        # chemlb shipment flow arrows connect sender and receiver pids
        by_id = {}
        for ev in trace["traceEvents"]:
            if ev["ph"] == "s" and ev["name"] == "chemlb.ship":
                by_id.setdefault(ev["id"], {})["s"] = ev["pid"]
            elif ev["ph"] == "f" and ev["name"] == "chemlb.ship":
                by_id.setdefault(ev["id"], {})["f"] = ev["pid"]
        crossings = [v for v in by_id.values()
                     if "s" in v and "f" in v and v["s"] != v["f"]]
        assert crossings, "no chemlb shipment flow arrows cross ranks"

    def test_export_writes_loadable_json(self, tmp_path, monkeypatch):
        from repro.analysis.golden import (
            LIFTED_JET_PARALLEL_DT,
            lifted_jet_parallel_solver,
        )

        monkeypatch.delenv("REPRO_TRACING", raising=False)
        solver = lifted_jet_parallel_solver("inprocess", tracing=True)
        try:
            solver.step(LIFTED_JET_PARALLEL_DT)
            path = tmp_path / "timeline.json"
            solver.export_timeline(path)
        finally:
            solver.close()
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
        timeline.validate_chrome_trace(trace)

    def test_rank_telemetry_workers_join_the_timeline(self, monkeypatch):
        """With per-rank telemetry the workers' own kernel spans stitch
        into the global timeline on their rank lanes."""
        from repro.analysis.golden import (
            LIFTED_JET_PARALLEL_DT,
            lifted_jet_parallel_solver,
        )

        monkeypatch.delenv("REPRO_TRACING", raising=False)
        solver = lifted_jet_parallel_solver("inprocess", tracing=True,
                                            rank_telemetry=True)
        try:
            solver.step(LIFTED_JET_PARALLEL_DT)
            events = solver.trace_events()
        finally:
            solver.close()
        worker_spans = [e for e in events
                        if e["kind"] == "span" and e["rank"] >= 0]
        assert worker_spans, "no worker-side spans reached the timeline"
