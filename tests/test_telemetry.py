"""Tests for the unified telemetry layer: span nesting and exclusive-time
accounting, metric instrument semantics, exporter round-trips, the no-op
backend, and the instrumented hot paths (solver kernels, halo exchange,
I/O substrate, workflow actors, profiler export)."""

import io
import json

import numpy as np
import pytest

from repro.telemetry import (
    DEFAULT_BUCKETS,
    NULL_TELEMETRY,
    MetricsRegistry,
    MonitorWriter,
    NullTelemetry,
    Telemetry,
    Tracer,
    parse_monitor_text,
    profile_report,
)
from repro.telemetry import get_telemetry, resolve
from tests.helpers import (
    parse_profile_report,
    set_default_telemetry as set_default,
    uniform_state,
)


class FakeClock:
    """Deterministic clock: advances by an explicit tick() call only."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt=1.0):
        self.t += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture(autouse=True)
def _isolate_process_default():
    """Tests that install a process default must not leak it."""
    yield
    set_default(None)


class TestSpans:
    def test_single_span_inclusive_equals_exclusive(self, clock):
        tr = Tracer(clock=clock)
        with tr.span("a"):
            clock.tick(2.0)
        assert tr.stats["a"].inclusive == 2.0
        assert tr.stats["a"].exclusive == 2.0
        assert tr.stats["a"].count == 1

    def test_nested_exclusive_subtracts_child(self, clock):
        tr = Tracer(clock=clock)
        with tr.span("outer"):
            clock.tick(1.0)
            with tr.span("inner"):
                clock.tick(3.0)
            clock.tick(1.0)
        assert tr.stats["outer"].inclusive == 5.0
        assert tr.stats["outer"].exclusive == 2.0
        assert tr.stats["inner"].inclusive == 3.0
        assert tr.stats["inner"].exclusive == 3.0

    def test_exclusive_subtracts_only_direct_children(self, clock):
        tr = Tracer(clock=clock)
        with tr.span("a"):
            with tr.span("b"):
                with tr.span("c"):
                    clock.tick(4.0)
        # a's direct child b has inclusive 4; a gets exclusive 0, not -4
        assert tr.stats["a"].exclusive == 0.0
        assert tr.stats["b"].exclusive == 0.0
        assert tr.stats["c"].exclusive == 4.0

    def test_sibling_children_both_subtracted(self, clock):
        tr = Tracer(clock=clock)
        with tr.span("p"):
            with tr.span("c1"):
                clock.tick(1.0)
            clock.tick(2.0)
            with tr.span("c2"):
                clock.tick(3.0)
        assert tr.stats["p"].inclusive == 6.0
        assert tr.stats["p"].exclusive == 2.0

    def test_recursion_aggregates_per_name(self, clock):
        tr = Tracer(clock=clock)
        with tr.span("f"):
            clock.tick(1.0)
            with tr.span("f"):
                clock.tick(2.0)
        # name table: two calls, inclusive 3 + 2, exclusive 1 + 2
        assert tr.stats["f"].count == 2
        assert tr.stats["f"].inclusive == 5.0
        assert tr.stats["f"].exclusive == 3.0

    def test_depth(self, clock):
        tr = Tracer(clock=clock)
        assert tr.depth == 0
        with tr.span("a"):
            with tr.span("b"):
                assert tr.depth == 2
        assert tr.depth == 0

    def test_span_exits_on_exception(self, clock):
        tr = Tracer(clock=clock)
        with pytest.raises(RuntimeError, match="boom"):
            with tr.span("x"):
                clock.tick(1.0)
                raise RuntimeError("boom")
        assert tr.depth == 0
        assert tr.stats["x"].count == 1
        # a later span is not misattributed as a child of "x"
        with tr.span("y"):
            clock.tick(1.0)
        assert tr.depth == 0 and tr.stats["y"].exclusive == 1.0

    def test_end_without_begin_raises(self):
        tr = Tracer()
        with pytest.raises(RuntimeError, match="without matching begin"):
            tr._end({})

    def test_reset_refuses_active_spans(self, clock):
        tr = Tracer(clock=clock)
        with pytest.raises(RuntimeError, match="active spans"):
            with tr.span("a"):
                tr.reset()
        tr.reset()
        assert tr.stats == {}

    def test_span_counters_reach_metrics(self, clock):
        tel = Telemetry(clock=clock)
        with tel.span("halo", bytes=512, messages=2):
            clock.tick(1.0)
        assert tel.metrics.counter("halo.bytes").value == 512
        assert tel.metrics.counter("halo.messages").value == 2

    def test_accessor_dicts_sorted(self, clock):
        tr = Tracer(clock=clock)
        for name in ("zeta", "alpha", "mid"):
            with tr.span(name):
                clock.tick(1.0)
        spans = tr.snapshot()["spans"]
        assert list(spans) == ["alpha", "mid", "zeta"]
        assert {k: row["count"] for k, row in spans.items()} == {
            "alpha": 1, "mid": 1, "zeta": 1}

class TestMetrics:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert reg.counter("n") is c  # create-on-first-use, then cached

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("n")
        with pytest.raises(ValueError, match="cannot decrease"):
            c.inc(-1)

    def test_gauge_last_value_wins(self):
        g = MetricsRegistry().gauge("dt")
        g.set(1e-8)
        g.set(2e-8)
        assert g.value == 2e-8
        assert g.updates == 2

    def test_histogram_bucket_edges(self):
        h = MetricsRegistry().histogram("t", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.0, 1.5, 4.0, 9.0):
            h.observe(v)
        # bisect_left: a value equal to a bound lands in that bound's bucket
        assert h.counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.total == pytest.approx(16.0)
        assert h.mean == pytest.approx(3.2)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError, match="ascending"):
            MetricsRegistry().histogram("t", buckets=(2.0, 1.0))
        with pytest.raises(ValueError, match="ascending"):
            MetricsRegistry().histogram("u", buckets=(1.0, 1.0))

    def test_histogram_reregistration_same_buckets_ok(self):
        reg = MetricsRegistry()
        h1 = reg.histogram("t", buckets=(1.0, 2.0))
        assert reg.histogram("t", buckets=(1.0, 2.0)) is h1

    def test_histogram_reregistration_different_buckets_raises(self):
        reg = MetricsRegistry()
        reg.histogram("t", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="different buckets"):
            reg.histogram("t", buckets=(1.0, 3.0))

    def test_default_buckets_ascending(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_snapshot_sorted_and_jsonable(self):
        reg = MetricsRegistry()
        reg.counter("z").inc(3)
        reg.counter("a").inc(1)
        reg.gauge("g").set(0.5)
        reg.histogram("h", buckets=(1.0,)).observe(0.2)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["counters"]["z"] == 3
        assert snap["gauges"]["g"] == 0.5
        assert snap["histograms"]["h"]["counts"] == [1, 0]
        json.dumps(snap)  # must be plain data

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.counter("a").value == 0


class TestExporters:
    def _traced(self, clock):
        tel = Telemetry(clock=clock)
        with tel.span("INTEGRATE"):
            clock.tick(1.0)
            with tel.span("DERIVATIVES"):
                clock.tick(3.0)
            with tel.span("FILTER"):
                clock.tick(2.0)
        return tel

    def test_profile_report_round_trip(self, clock):
        tel = self._traced(clock)
        text = tel.profile_report()
        rows = parse_profile_report(text)
        assert set(rows) == {"INTEGRATE", "DERIVATIVES", "FILTER"}
        assert rows["DERIVATIVES"]["exclusive"] == pytest.approx(3.0)
        assert rows["INTEGRATE"]["exclusive"] == pytest.approx(1.0)
        assert rows["INTEGRATE"]["inclusive"] == pytest.approx(6.0)
        assert rows["DERIVATIVES"]["calls"] == 1
        assert sum(r["percent"] for r in rows.values()) == pytest.approx(
            100.0, abs=0.2)

    def test_profile_report_sorted_by_exclusive(self, clock):
        text = self._traced(clock).profile_report()
        names = [line.split()[-1] for line in text.splitlines()
                 if line.split() and line.split()[0].endswith("%")]
        assert names == ["DERIVATIVES", "FILTER", "INTEGRATE"]

    def test_profile_report_empty_tracer(self):
        assert profile_report(Tracer().snapshot()["spans"]) == ""

    def test_json_round_trip(self, clock):
        """A snapshot is plain data: JSON carries it without loss."""
        tel = self._traced(clock)
        tel.counter("halo.bytes").inc(1024)
        back = json.loads(json.dumps(tel.snapshot(), indent=2))
        assert back == tel.snapshot()
        assert set(back) == {"spans", "metrics"}
        assert back["spans"]["DERIVATIVES"]["exclusive"] == 3.0
        assert back["spans"]["INTEGRATE"]["inclusive"] == 6.0
        assert back["metrics"]["counters"]["halo.bytes"] == 1024

    def test_monitor_writer_round_trip(self):
        w = MonitorWriter()
        w.write_step(3, 1.5e-6, {"rho": (0.9, 1.1), "rho_E": (-2.0, 3.0e5)})
        w.write_step(4, 2.0e-6, {"rho": (0.89, 1.12)})
        rows = parse_monitor_text(w.text())
        assert len(rows) == 3
        assert rows[0] == {"step": 3, "variable": "rho", "min": 0.9, "max": 1.1}
        assert rows[2]["step"] == 4
        assert w.steps_recorded == 2

    def test_monitor_lines_parse_like_minmaxparser(self):
        """Every line must survive the workflow MinMaxParser's unguarded
        int(parts[0]) — i.e. no headers, exactly one record per line."""
        w = MonitorWriter()
        w.write_step(0, 0.0, {"rho": (1.0, 1.0)})
        w.write_step(1, 1e-8, {"rho": (0.99, 1.01)})
        for line in w.text().splitlines():
            parts = line.split()
            assert len(parts) == 5
            int(parts[0])
            float(parts[2]), float(parts[3]), float(parts[4])

    def test_monitor_writer_stream(self):
        buf = io.StringIO()
        w = MonitorWriter(stream=buf)
        w.write_step(7, 0.0, {"rho": (1.0, 2.0)})
        assert buf.getvalue() == w.text()


class TestBackendSelection:
    def test_null_backend_records_nothing(self):
        tel = NullTelemetry()
        with tel.span("a", bytes=10):
            pass
        tel.counter("c").inc(5)
        tel.gauge("g").set(1.0)
        tel.histogram("h").observe(0.1)
        assert tel.profile_report() == ""
        assert tel.snapshot() == {
            "spans": {},
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        }

    def test_env_variable_enables_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "on")
        set_default(None)
        assert get_telemetry().enabled
        monkeypatch.setenv("REPRO_TELEMETRY", "0")
        set_default(None)
        assert not get_telemetry().enabled

    def test_env_default_is_null(self, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        set_default(None)
        assert get_telemetry() is NULL_TELEMETRY

    def test_tracing_is_refused(self):
        assert Telemetry(tracing=False).enabled
        with pytest.raises(ValueError, match="distributed tracing was removed"):
            Telemetry(tracing=True)

    def test_resolve_explicit_wins(self):
        tel = Telemetry()
        assert resolve(tel) is tel
        set_default(tel)
        assert resolve(None) is tel

    def test_null_backend_overhead_is_small(self):
        """The disabled hot path (one shared no-op context manager) must
        stay within a small constant factor of a bare loop."""
        import timeit

        tel = NULL_TELEMETRY
        span = tel.span  # the form hot code uses

        def with_span():
            with span("KERNEL"):
                pass

        def bare():
            pass

        n = 20000
        t_span = min(timeit.repeat(with_span, number=n, repeat=3))
        t_bare = min(timeit.repeat(bare, number=n, repeat=3))
        # generous ceiling: a no-op context manager is a few hundred ns
        assert t_span < 50 * max(t_bare, 1e-9) + 0.05


class TestSolverIntegration:
    @pytest.fixture(scope="class")
    def traced_run(self, h2_mech, h2_air_stoich):
        from repro.core import Grid, S3DSolver, SolverConfig, State
        from repro.core.config import periodic_boundaries
        from repro.transport import ConstantLewisTransport
        from repro.util.constants import P_ATM

        grid = Grid((16, 16), (1e-3, 1e-3), periodic=(True, True))
        xx, yy = grid.meshgrid()
        T = 900.0 + 400.0 * np.exp(
            -((xx - 5e-4) ** 2 + (yy - 5e-4) ** 2) / (2 * (2e-4) ** 2))
        Y = h2_air_stoich[:, None, None] * np.ones((1, 16, 16))
        from repro.util.constants import P_ATM as p0
        rho = h2_mech.density(p0, T, Y)
        state = State.from_primitive(h2_mech, grid, rho, [1.0, 0.0], T, Y)
        cfg = SolverConfig(boundaries=periodic_boundaries(2), dt=2e-8,
                           filter_interval=1, filter_alpha=0.2,
                           telemetry=True)
        solver = S3DSolver(state, cfg, transport=ConstantLewisTransport(h2_mech),
                           reacting=True)
        solver.monitor_writer = MonitorWriter()
        with solver.telemetry.span("RUN"):  # the root of every kernel span
            for _ in range(3):
                solver.step()
                solver.record_monitor()
        return solver

    def test_kernel_set_matches_perfmodel_inventory(self, traced_run):
        from repro.perfmodel.kernels import s3d_kernel_inventory

        inventory = {k.name for k in s3d_kernel_inventory()}
        traced = set(traced_run.telemetry.tracer.stats)
        assert inventory <= traced

    def test_profile_report_parses(self, traced_run):
        rows = parse_profile_report(traced_run.profile_report())
        assert "REACTION_RATES" in rows
        assert rows["INTEGRATE"]["calls"] == 3
        assert all(r["exclusive"] >= 0 for r in rows.values())

    def test_exclusive_sums_to_root_inclusive(self, traced_run):
        """Total exclusive time over all spans equals the inclusive time
        of the root span — the TAU invariant that makes the flat
        profile's percentages sum to the traced wall time."""
        tr = traced_run.telemetry.tracer
        total_excl = sum(s.exclusive for s in tr.stats.values())
        assert total_excl == pytest.approx(tr.stats["RUN"].inclusive,
                                           rel=1e-9)

    def test_solver_metrics(self, traced_run):
        m = traced_run.telemetry.metrics
        assert m.counter("solver.steps").value == 3
        assert m.gauge("solver.dt").value == pytest.approx(2e-8)

    def test_monitor_lines_match_state_minmax(self, traced_run):
        rows = parse_monitor_text(traced_run.monitor_writer.text())
        names = traced_run.state.variable_names()
        assert len(rows) == 3 * len(names)
        mm = traced_run.state.min_max()
        last = {r["variable"]: r for r in rows if r["step"] == 3}
        for name, (lo, hi) in mm.items():
            assert last[name]["min"] == pytest.approx(lo, rel=1e-12)
            assert last[name]["max"] == pytest.approx(hi, rel=1e-12)

    def test_config_telemetry_false_is_noop(self, h2_mech, h2_air_stoich):
        from repro.core import Grid, S3DSolver, SolverConfig, ic
        from repro.core.config import periodic_boundaries
        from repro.util.constants import P_ATM

        grid = Grid((16,), (1.0,), periodic=(True,))
        state = uniform_state(h2_mech, grid, p=P_ATM, T=300.0, Y=h2_air_stoich)
        cfg = SolverConfig(boundaries=periodic_boundaries(1), dt=1e-8,
                           telemetry=False)
        solver = S3DSolver(state, cfg, transport=None, reacting=False)
        solver.step()
        assert not solver.telemetry.enabled
        assert solver.profile_report() == ""

    def test_explicit_instance_beats_config(self, h2_mech, h2_air_stoich):
        from repro.core import Grid, S3DSolver, SolverConfig, ic
        from repro.core.config import periodic_boundaries
        from repro.util.constants import P_ATM

        grid = Grid((16,), (1.0,), periodic=(True,))
        state = uniform_state(h2_mech, grid, p=P_ATM, T=300.0, Y=h2_air_stoich)
        cfg = SolverConfig(boundaries=periodic_boundaries(1), dt=1e-8,
                           telemetry=False)
        tel = Telemetry()
        solver = S3DSolver(state, cfg, transport=None, reacting=False,
                           telemetry=tel)
        solver.step()
        assert solver.telemetry is tel
        assert "INTEGRATE" in tel.tracer.stats


class TestParallelIntegration:
    def test_halo_bytes_counter_matches_message_log(self):
        from repro.parallel import CartesianDecomposition, HaloExchanger, InProcessTransport

        tel = Telemetry()
        d = CartesianDecomposition((16, 12), (2, 2), periodic=(True, True))
        world = InProcessTransport(4)
        h = HaloExchanger(d, world, width=3, telemetry=tel)
        a = np.random.default_rng(0).random((16, 12))
        h.exchange(d.scatter(a))
        assert tel.metrics.counter("halo.bytes").value == world.log.total_bytes
        assert tel.metrics.counter("halo.messages").value == world.log.count
        assert "HALO_EXCHANGE" in tel.tracer.stats

    def test_parallel_solver_traces_integrate(self, h2_mech):
        from repro.core import Grid
        from repro.parallel import CartesianDecomposition, InProcessTransport
        from repro.parallel.solver import ParallelPeriodicSolver
        from repro.util.constants import P_ATM

        # a decomposed axis needs >= 5 points per rank: 24 / 2 = 12
        tel = Telemetry()
        grid = Grid((24, 24), (1e-3, 1e-3), periodic=(True, True))
        d = CartesianDecomposition((24, 24), (2, 2), periodic=(True, True))
        world = InProcessTransport(4)
        par = ParallelPeriodicSolver(h2_mech, grid, d, world, telemetry=tel)
        Y = np.zeros(h2_mech.n_species)
        Y[h2_mech.index("N2")] = 1.0
        state = uniform_state(h2_mech, grid, p=P_ATM, T=300.0, Y=Y)
        par.set_state(state.u)
        par.step(1e-8)
        assert "INTEGRATE" in tel.tracer.stats
        assert tel.metrics.counter("halo.bytes").value > 0


class TestIOIntegration:
    def _fs(self):
        from repro.io import SimFileSystem
        from repro.io.filesystem import FSConfig

        return SimFileSystem(FSConfig(name="t", lock_unit=512, n_servers=4))

    def test_mpiio_write_counters(self):
        from repro.io import BlockLayout, collective_write, independent_write

        tel = Telemetry()
        layout = BlockLayout((8, 8, 4), (2, 2, 1))
        a = np.random.default_rng(1).random((8, 8, 4))
        independent_write(self._fs(), layout, a, "indep", telemetry=tel)
        assert tel.metrics.counter("io.mpiio.bytes").value == layout.total_bytes
        assert tel.metrics.counter("io.mpiio.requests").value > 0
        assert tel.metrics.histograms["io.open_time"].count == 1

        tel2 = Telemetry()
        collective_write(self._fs(), layout, a, "coll", telemetry=tel2)
        assert tel2.metrics.counter("io.mpiio.bytes").value == layout.total_bytes
        assert tel2.metrics.counter("io.mpiio.shuffle_bytes").value >= 0
        assert tel2.metrics.histograms["io.mpiio.write_time"].count == 1

    def test_writebehind_counters(self):
        from repro.io import TwoStageWriteBehind

        tel = Telemetry()
        fs = self._fs()
        w = TwoStageWriteBehind(fs, "wb", n_ranks=2, telemetry=tel)
        payload = b"x" * 2048
        w.write(0, 0, payload)
        w.write(1, 2048, payload)
        w.close()
        assert tel.metrics.counter("io.writebehind.bytes").value == 4096
        assert tel.metrics.counter("io.writebehind.flushes").value > 0
        assert tel.metrics.histograms["io.writebehind.close_time"].count == 1
        assert fs.file_bytes("wb") == payload + payload

    def test_checkpoint_span_and_counters(self):
        from repro.io import S3DCheckpoint

        tel = Telemetry()
        ck = S3DCheckpoint(proc_shape=(2, 1, 1), block=(4, 4, 4), telemetry=tel)
        arrays = [np.random.default_rng(2).random(ck.global_shape + (m,))
                  if m > 1 else np.random.default_rng(2).random(ck.global_shape)
                  for _, m in __import__("repro.io.s3dio",
                                         fromlist=["CHECKPOINT_VARS"]).CHECKPOINT_VARS]
        ck.write_checkpoint(self._fs(), "independent", arrays, 0)
        assert tel.metrics.counter("io.checkpoint.count").value == 1
        assert tel.metrics.counter("io.checkpoint.bytes").value == \
            ck.bytes_per_checkpoint
        assert "CHECKPOINT" in tel.tracer.stats


class TestWorkflowIntegration:
    def test_director_actor_spans_and_counters(self):
        from repro.workflow import ProcessNetworkDirector, Token, Workflow
        from repro.workflow.actor import Actor

        class Source(Actor):
            inputs: list = []
            outputs = ["out"]

            def __init__(self):
                super().__init__("src")
                self.n = 0

            def fire(self, inputs):
                if self.n >= 3:
                    return None
                self.n += 1
                return {"out": Token(self.n)}

        class Sink(Actor):
            inputs = ["in"]
            outputs: list = []

            def __init__(self):
                super().__init__("sink")
                self.got = []

            def fire(self, inputs):
                self.got.append(inputs["in"].value)
                return None

        tel = Telemetry()
        wf = Workflow()
        src, sink = Source(), Sink()
        wf.add(src)
        wf.add(sink)
        wf.connect("src", "out", "sink", "in")
        director = ProcessNetworkDirector(wf, telemetry=tel)
        director.run()
        assert sink.got == [1, 2, 3]
        assert tel.tracer.stats["actor.sink"].count == 3
        # sources are polled every round, including empty ones
        assert tel.tracer.stats["actor.src"].count >= 3
        assert tel.metrics.counter("workflow.firings").value == director.firings
        assert tel.metrics.counter("workflow.rounds").value == director.rounds


class TestMergeAndDelta:
    """Delta snapshots only carry what changed, and summed over the
    intervals they add up to the full snapshots."""

    def _loaded(self, clock, spans=1, x=2.0, g=1.0, h=(0.1,)):
        tel = Telemetry(clock=clock)
        for _ in range(spans):
            with tel.span("K"):
                clock.tick(1.0)
        tel.counter("x").inc(x)
        tel.gauge("g").set(g)
        for v in h:
            tel.histogram("h").observe(v)
        return tel

    def test_delta_snapshot_only_reports_changes(self, clock):
        tel = self._loaded(clock, spans=1, x=2.0)
        first = tel.snapshot(delta=True)
        assert first["metrics"]["counters"]["x"] == pytest.approx(2.0)
        # nothing happened: empty delta
        quiet = tel.snapshot(delta=True)
        assert quiet["metrics"]["counters"] == {}
        assert quiet["spans"] == {}
        tel.counter("x").inc(5.0)
        with tel.span("K"):
            clock.tick(2.0)
        d = tel.snapshot(delta=True)
        assert d["metrics"]["counters"] == {"x": pytest.approx(5.0)}
        assert d["spans"]["K"]["count"] == 1
        assert d["spans"]["K"]["exclusive"] == pytest.approx(2.0)

    def test_delta_does_not_disturb_full_snapshot(self, clock):
        tel = self._loaded(clock, x=2.0)
        tel.snapshot(delta=True)
        tel.counter("x").inc(1.0)
        assert tel.snapshot()["metrics"]["counters"]["x"] == pytest.approx(3.0)

    def test_null_snapshot_accepts_delta_kwarg(self):
        out = NULL_TELEMETRY.snapshot(delta=True)
        assert out["spans"] == {} and out["metrics"]["counters"] == {}

    def test_reset_clears_delta_baseline(self, clock):
        tel = self._loaded(clock, x=2.0)
        tel.snapshot(delta=True)
        tel.reset()
        tel.counter("x").inc(7.0)
        d = tel.snapshot(delta=True)
        assert d["metrics"]["counters"]["x"] == pytest.approx(7.0)

    def test_merge_of_deltas_equals_delta_of_merge(self, clock):
        """The fusion-path invariant: accumulating per-interval delta
        snapshots from two backends reconstructs exactly what their
        final full snapshots report together — no activity is double
        counted or lost at the snapshot boundaries."""

        def act(tel, spans, x, hvals):
            for _ in range(spans):
                with tel.span("K"):
                    clock.tick(1.0)
            tel.counter("x").inc(x)
            for v in hvals:
                tel.histogram("h").observe(v)

        a, b = Telemetry(clock=clock), Telemetry(clock=clock)
        deltas = []
        # interval 1
        act(a, spans=2, x=1.0, hvals=(0.1,))
        act(b, spans=1, x=2.0, hvals=(0.2, 0.3))
        deltas += [a.snapshot(delta=True), b.snapshot(delta=True)]
        # interval 2 (uneven: only a makes progress)
        act(a, spans=3, x=4.0, hvals=())
        deltas += [a.snapshot(delta=True), b.snapshot(delta=True)]

        # sum the deltas by hand
        span_count = sum(d["spans"].get("K", {}).get("count", 0)
                         for d in deltas)
        span_excl = sum(d["spans"].get("K", {}).get("exclusive", 0.0)
                        for d in deltas)
        x_total = sum(d["metrics"]["counters"].get("x", 0.0) for d in deltas)
        h_count = sum(d["metrics"]["histograms"].get("h", {}).get("count", 0)
                      for d in deltas)
        h_sum = sum(d["metrics"]["histograms"].get("h", {}).get("sum", 0.0)
                    for d in deltas)

        full = [a.snapshot(), b.snapshot()]
        assert sum(s["spans"]["K"]["count"] for s in full) == span_count == 6
        assert sum(s["spans"]["K"]["exclusive"] for s in full) == (
            pytest.approx(span_excl))
        assert sum(s["metrics"]["counters"]["x"] for s in full) == (
            pytest.approx(x_total)) == pytest.approx(7.0)
        hists = [s["metrics"]["histograms"]["h"] for s in full]
        assert sum(h["count"] for h in hists) == h_count == 3
        assert sum(h["sum"] for h in hists) == pytest.approx(h_sum)


    def test_summed_deltas_equal_full_snapshot(self, clock):
        """Every interval's delta, summed field by field (a gauge at the
        last value it reported), rebuilds the full snapshot exactly."""
        tel = Telemetry(clock=clock)
        total = {"spans": {}, "metrics": {"counters": {}, "gauges": {},
                                          "histograms": {}}}

        def add(into, d):
            for k, v in d.items():
                if isinstance(v, dict):
                    add(into.setdefault(k, {}), v)
                elif k == "buckets":
                    into[k] = v
                elif isinstance(v, list):
                    into[k] = [a + b for a, b in
                               zip(into.get(k, [0] * len(v)), v)]
                else:
                    into[k] = into.get(k, 0) + v

        for i in range(5):
            for _ in range(i % 3):
                with tel.span("K"):
                    clock.tick(0.5)
                    with tel.span("L"):
                        clock.tick(0.25)
            if i != 2:
                tel.counter("x").inc(i + 1.0)
            tel.gauge("g").set(float(i // 2))
            for v in (0.002, 0.2)[: i % 3]:
                tel.histogram("h").observe(v)
            d = tel.snapshot(delta=True)
            gauges = d["metrics"].pop("gauges")
            add(total, d)
            total["metrics"]["gauges"].update(gauges)
        assert total == tel.snapshot()


class TestStepPhaseSpans:
    """The solver's step phases are spans on its telemetry backend and
    nothing else: no second timing namespace beside them."""

    def test_solver_phases_are_spans_not_timers(self, h2_mech,
                                                h2_air_stoich):
        from repro.core import Grid, S3DSolver, SolverConfig, ic
        from repro.core.config import periodic_boundaries
        from repro.util.constants import P_ATM

        grid = Grid((16,), (1.0,), periodic=(True,))
        state = ic.pressure_pulse(h2_mech, grid, p0=P_ATM, T0=300.0,
                                  Y=h2_air_stoich, amplitude=1e-3, width=0.05)
        cfg = SolverConfig(boundaries=periodic_boundaries(1), dt=5e-8,
                           telemetry=True)
        s = S3DSolver(state, cfg, transport=None, reacting=False)
        s.checkpoint_hook = lambda step, t, state: None
        s.run(2, checkpoint_interval=1)
        stats = s.telemetry.tracer.stats
        assert {name: stats[name].count for name in
                ("INTEGRATE", "FILTER", "CHECKPOINT")} == {
            "INTEGRATE": 2, "FILTER": 2, "CHECKPOINT": 2}
        hists = s.telemetry.snapshot()["metrics"]["histograms"]
        assert not [name for name in hists if name.startswith("timer.")]
        assert not hasattr(s, "timers")
