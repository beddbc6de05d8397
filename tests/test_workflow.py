"""Tests for the Kepler-style workflow substrate (§9)."""

import numpy as np
import pytest

from repro.telemetry import Telemetry
from repro.workflow import (
    Actor,
    ActorFiringError,
    Dashboard,
    Environment,
    ProcessFile,
    ProcessNetworkDirector,
    ProvenanceStore,
    RemoteError,
    Token,
    Transfer,
    Workflow,
)
from repro.workflow.actors import Collector
from repro.workflow.s3d_pipeline import (
    build_s3d_workflow,
    make_environment,
    run_s3d_workflow,
    simulate_s3d_run,
)


class FunctionActor(Actor):
    """Wrap a plain callable as a 1-in/1-out actor."""

    inputs = ["in"]
    outputs = ["out"]

    def __init__(self, name: str, fn):
        super().__init__(name)
        self.fn = fn

    def fire(self, inputs: dict) -> dict:
        tok = inputs["in"]
        return {"out": tok.derive(self.fn(tok.value), self.name)}


class _Counter(Actor):
    inputs: list = []
    outputs = ["out"]

    def __init__(self, name, n):
        super().__init__(name)
        self.n = n
        self.i = 0

    def fire(self, inputs):
        if self.i >= self.n:
            return None
        self.i += 1
        return {"out": Token(self.i)}


class TestEngine:
    def test_function_actor(self):
        actor = FunctionActor("inc", lambda x: x + 1)
        out = actor.fire({"in": Token(41)})
        assert out["out"].value == 42
        assert out["out"].provenance[0][0] == "inc"

    def test_linear_pipeline(self):
        wf = Workflow()
        wf.add(_Counter("src", 3))
        wf.add(FunctionActor("double", lambda x: 2 * x))
        wf.add(Collector("sink"))
        wf.connect("src", "out", "double", "in")
        wf.connect("double", "out", "sink", "in")
        ProcessNetworkDirector(wf).run()
        assert [t.value for t in wf.actors["sink"].items] == [2, 4, 6]

    def test_fan_out(self):
        wf = Workflow()
        wf.add(_Counter("src", 2))
        wf.add(Collector("a"))
        wf.add(Collector("b"))
        wf.connect("src", "out", "a", "in")
        wf.connect("src", "out", "b", "in")
        ProcessNetworkDirector(wf).run()
        assert len(wf.actors["a"].items) == 2
        assert len(wf.actors["b"].items) == 2

    def test_validation_catches_unwired(self):
        wf = Workflow()
        wf.add(FunctionActor("f", lambda x: x))
        with pytest.raises(ValueError, match="unconnected"):
            wf.validate()

    def test_duplicate_actor_name(self):
        wf = Workflow()
        wf.add(Collector("x"))
        with pytest.raises(ValueError):
            wf.add(Collector("x"))

    def test_bad_port_names(self):
        wf = Workflow()
        wf.add(_Counter("src", 1))
        wf.add(Collector("sink"))
        with pytest.raises(ValueError, match="no output port"):
            wf.connect("src", "nope", "sink", "in")
        with pytest.raises(ValueError, match="no input port"):
            wf.connect("src", "out", "sink", "nope")

    def test_provenance_chain(self):
        wf = Workflow()
        wf.add(_Counter("src", 1))
        wf.add(FunctionActor("f", lambda x: x + 1))
        wf.add(FunctionActor("g", lambda x: x * 10))
        wf.add(Collector("sink"))
        wf.connect("src", "out", "f", "in")
        wf.connect("f", "out", "g", "in")
        wf.connect("g", "out", "sink", "in")
        ProcessNetworkDirector(wf).run()
        token = wf.actors["sink"].items[0]
        assert token.value == 20
        assert [a for a, _ in token.provenance] == ["f", "g"]


class TestEnvironment:
    def test_transfer_moves_bytes(self):
        env = Environment()
        env.add_machine("a")
        env.add_machine("b")
        env["a"].write("f", b"data")
        env.transfer("a", "f", "b", "f")
        assert env["b"].read("f") == b"data"
        assert env.transfer_bytes == 4

    def test_missing_file(self):
        env = Environment()
        env.add_machine("a")
        with pytest.raises(RemoteError):
            env["a"].read("missing")

    def test_fault_injection(self):
        env = Environment()
        env.add_machine("a")
        env.add_machine("b")
        env["a"].write("f", b"x")
        env.fail_next("transfer", 1)
        with pytest.raises(RemoteError):
            env.transfer("a", "f", "b", "f")
        # next one succeeds
        env.transfer("a", "f", "b", "f")
        assert env.failures_injected == 1

    def test_unknown_command(self):
        env = Environment()
        env.add_machine("a")
        with pytest.raises(RemoteError):
            env.execute("a", "nothere")

    def test_streams_speed_up(self):
        env = Environment(link_bandwidth=1e6, link_latency=0.0)
        env.add_machine("a")
        env.add_machine("b")
        env["a"].write("f", b"x" * 10**6)
        t1 = env.transfer("a", "f", "b", "f1", streams=1)
        t4 = env.transfer("a", "f", "b", "f2", streams=4)
        assert t4 == pytest.approx(t1 / 4)


class TestS3DPipeline:
    def test_end_to_end(self):
        env = make_environment()
        simulate_s3d_run(env, n_checkpoints=3)
        wf, taps, d = run_s3d_workflow(env)
        # 3 checkpoints x 2 restart files -> 3 morphs of group 2
        assert len(taps["restart_done"].items) == 3
        # all netcdf converted and imaged
        assert len(taps["images"].items) == 6
        # data landed everywhere
        assert env["hpss"].listdir("morph/")
        assert env["sandia"].listdir("morph/")
        assert env["ucdavis"].listdir("netcdf/")

    def test_completion_log_gates_watcher(self):
        """Files without a COMPLETE entry are never picked up."""
        env = make_environment()
        env["jaguar"].write("restart/0000/part0.dat", b"partial")
        env["jaguar"].write("s3d.log", b"")  # nothing complete
        wf, taps, d = run_s3d_workflow(env)
        assert len(taps["restart_done"].items) == 0

    def test_fault_routes_errors(self):
        env = make_environment()
        simulate_s3d_run(env, n_checkpoints=1)
        env.fail_next("convert", 100)  # persistent failure
        wf, taps, d = run_s3d_workflow(env)
        assert len(taps["conversion_errors"].items) == 2
        assert len(taps["images"].items) == 0

    def test_restart_skips_completed(self):
        """The ProcessFile/Transfer checkpointing: a rebuilt workflow
        does not repeat finished work but retries failures."""
        env = make_environment()
        simulate_s3d_run(env, n_checkpoints=2)
        # exactly enough injected failures to exhaust every convert
        # attempt in run 1 (4 files x 4 attempts), none left for run 2
        env.fail_next("convert", 16)
        ck = {}
        run_s3d_workflow(env, checkpoints=ck)
        bytes_before = env.transfer_bytes
        # restart with the failure gone
        wf2, taps2, d2 = run_s3d_workflow(env, checkpoints=ck)
        assert wf2.actors["move_netcdf"].skipped == 4
        assert len(taps2["images"].items) == 4
        # transfers were not repeated for the already-moved inputs
        assert wf2.actors["move_restart"].skipped == 4

    def test_minmax_series_parsed(self):
        env = make_environment()
        simulate_s3d_run(env, n_checkpoints=2)
        wf, taps, d = run_s3d_workflow(env)
        rows = [r for t in taps["dashboard_series"].items for r in t.value]
        vars_seen = {r["variable"] for r in rows}
        assert vars_seen == {"T", "rho"}

    def test_workflow_isolated_from_simulation(self):
        """Workflow failures never modify jaguar's files (§9)."""
        env = make_environment()
        simulate_s3d_run(env, n_checkpoints=1)
        before = dict(env["jaguar"].files)
        env.fail_next("transfer", 3)
        run_s3d_workflow(env)
        assert env["jaguar"].files == before


class _Boom(Actor):
    """Pass-through actor that raises on selected values."""

    inputs = ["in"]
    outputs = ["out"]

    def __init__(self, name, should_fail):
        super().__init__(name)
        self.should_fail = should_fail
        self.calls = 0

    def fire(self, inputs):
        self.calls += 1
        token = inputs["in"]
        if self.should_fail(token.value, self.calls):
            raise RuntimeError(f"boom on {token.value}")
        return {"out": token.derive(token.value, self.name)}


class _FailingSource(Actor):
    inputs: list = []
    outputs = ["out"]

    def fire(self, inputs):
        raise RuntimeError("source exploded")


def _two_machine_env():
    env = Environment()
    env.add_machine("a")
    env.add_machine("b")
    env["a"].register("op", lambda m, src, dst: m.write(dst, b"processed"))
    env["a"].write("f.dat", b"data")
    return env


class TestActorRetryBranches:
    """The RemoteError except-branches of ProcessFile and Transfer."""

    def test_processfile_retries_then_succeeds(self):
        env = _two_machine_env()
        tel = Telemetry()
        pf = ProcessFile("conv", env, "a", "op", telemetry=tel)
        env.fail_next("op", 2)
        out = pf.fire({"file": Token("f.dat")})
        assert "file" in out and pf.checkpoint["conv:f.dat"] == "done"
        retries = [e for e in pf.log if e[0] == "retry"]
        assert len(retries) == 2
        assert tel.metrics.counter("workflow.process.retries").value == 2

    def test_processfile_exhausts_retries_emits_error_token(self):
        env = _two_machine_env()
        tel = Telemetry()
        class _TwoRetries(ProcessFile):
            MAX_RETRIES = 2

        pf = _TwoRetries("conv", env, "a", "op", telemetry=tel)
        env.fail_next("op", 100)
        out = pf.fire({"file": Token("f.dat")})
        assert set(out) == {"errors"}
        assert "injected failure" in out["errors"].value
        assert pf.checkpoint["conv:f.dat"] == "failed"
        assert pf.log[-1][0] == "failed"
        assert tel.metrics.counter("workflow.process.failures").value == 1
        # all 1 + max_retries attempts hit the except branch
        assert tel.metrics.counter("workflow.process.retries").value == 3

    def test_transfer_retries_then_succeeds(self):
        env = _two_machine_env()
        tel = Telemetry()
        mv = Transfer("move", env, "a", "b", telemetry=tel)
        env.fail_next("transfer", 2)
        out = mv.fire({"file": Token("f.dat")})
        assert out["file"].value == "f.dat"
        assert env["b"].read("f.dat") == b"data"
        assert mv.checkpoint["move:f.dat"] == "done"
        assert tel.metrics.counter("workflow.transfer.retries").value == 2

    def test_transfer_exhausts_retries_returns_none(self):
        env = _two_machine_env()
        tel = Telemetry()
        class _OneRetry(Transfer):
            MAX_RETRIES = 1

        mv = _OneRetry("move", env, "a", "b", telemetry=tel)
        env.fail_next("transfer", 100)
        out = mv.fire({"file": Token("f.dat")})
        assert out is None
        assert not env["b"].exists("f.dat")
        assert mv.checkpoint["move:f.dat"] == "failed"
        assert mv.log[-1] == ("failed", "f.dat")
        assert tel.metrics.counter("workflow.transfer.retries").value == 2


class TestDirectorFaultHandling:
    def _pipeline(self, boom, n=3):
        wf = Workflow()
        wf.add(_Counter("src", n))
        wf.add(boom)
        wf.add(Collector("sink"))
        wf.connect("src", "out", boom.name, "in")
        wf.connect(boom.name, "out", "sink", "in")
        return wf, ProcessNetworkDirector(wf)

    def test_raise_mode_names_actor_and_round(self):
        boom = _Boom("boom", lambda v, calls: True)
        wf, d = self._pipeline(boom)
        with pytest.raises(ActorFiringError,
                           match="'boom' failed in round 0") as exc_info:
            d.run()
        err = exc_info.value
        assert err.actor_name == "boom"
        assert err.round_no == 0
        assert isinstance(err.original, RuntimeError)

    def test_raise_mode_names_failing_source(self):
        wf = Workflow()
        wf.add(_FailingSource("watcher"))
        wf.add(Collector("sink"))
        wf.connect("watcher", "out", "sink", "in")
        d = ProcessNetworkDirector(wf)
        with pytest.raises(ActorFiringError, match="watcher"):
            d.run()
        assert d.failures and d.failures[0][1] == "watcher"


class TestProvenance:

    def test_record_token(self):
        ps = ProvenanceStore()
        t = Token("x").derive("y", "convert").derive("z", "plot")
        ps.record_token("image.png", t)
        assert [(r.artifact, r.activity) for r in ps.records] == [
            ("image.png", "plot")]
        assert len(ps) == 1

    def test_morph_provenance_tracks_all_parts(self):
        env = make_environment()
        simulate_s3d_run(env, n_checkpoints=1)
        wf, taps, d = run_s3d_workflow(env)
        token = taps["restart_done"].items[0]
        acts = [a for a, _ in token.provenance]
        assert "morph" in acts and "archive" in acts


class TestDashboard:
    def test_job_lifecycle(self):
        db = Dashboard()
        db.submit_job("123", "jaguar", "chen")
        db.set_job_state("123", "running")
        assert db.jobs_on("jaguar")[0].state == "running"
        with pytest.raises(ValueError):
            db.set_job_state("123", "exploded")

    def test_series_and_trace(self):
        db = Dashboard()
        db.update_series([
            {"step": 100, "variable": "T", "min": 300.0, "max": 1500.0},
            {"step": 200, "variable": "T", "min": 300.0, "max": 1600.0},
        ])
        steps, lo, hi = db.trace("T")
        assert steps == [100, 200]
        assert (lo[-1], hi[-1]) == (300.0, 1600.0)

    def test_render_text(self):
        db = Dashboard()
        db.submit_job("1", "jaguar", "chen")
        db.update_series([{"step": 1, "variable": "rho", "min": 0.1, "max": 1.0}])
        text = db.render_text()
        assert "jaguar" in text and "rho" in text
