"""Tests for the simulation health observatory.

Covers the watchdog edge cases the issue calls out (NaN mid-RK-stage vs
end-of-step, mass fractions exactly at the 0/1 bounds, dt exactly at
the CFL limit, deterministic wall-time outliers), the flight recorder's
JSONL round-trip and fault-injected dump path, trip-to-rollback via the
resilience supervisor, cross-rank profile fusion against the perfmodel
imbalance statistic, the render layer (ASCII/HTML, offline replay),
and the null path's bitwise identity.
"""

import json

import numpy as np
import pytest

from repro.core import Grid, S3DSolver, SolverConfig, ic
from repro.core.config import periodic_boundaries, resolve
from repro.core.state import State
from repro.io import SimFileSystem, lustre
from repro.observability import (
    BoundsWatchdog,
    CFLMarginWatchdog,
    ConservationWatchdog,
    FlightRecorder,
    HealthMonitor,
    NaNSentinel,
    NULL_HEALTH,
    RunMonitor,
    SCHEMA_VERSION,
    StepContext,
    StepRecord,
    WallTimeAnomalyWatchdog,
    WatchdogTripError,
    fuse_profiles,
    html_report,
    replay_report,
    sparkline,
    worst_severity,
)
from repro.parallel.comm import InProcessTransport
from repro.parallel.decomp import CartesianDecomposition
from repro.parallel.solver import ParallelPeriodicSolver
from repro.resilience import FaultInjector
from repro.telemetry import Telemetry
from repro.util.constants import P_ATM
from tests.helpers import parse_profile_report


def _pulse_solver(mech, Y, n=32, observability=None, **cfg_kwargs):
    grid = Grid((n,), (1.0,), periodic=(True,))
    state = ic.pressure_pulse(mech, grid, p0=P_ATM, T0=300.0, Y=Y,
                              amplitude=1e-3, width=0.05)
    cfg = SolverConfig(boundaries=periodic_boundaries(1), dt=5e-8,
                       filter_interval=2, filter_alpha=0.2,
                       observability=observability, **cfg_kwargs)
    return S3DSolver(state, cfg, transport=None, reacting=False)


@pytest.fixture
def solver(air_mech, air_y):
    return _pulse_solver(air_mech, air_y, observability="on")


class TestModeResolution:
    def test_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBSERVABILITY", raising=False)
        assert resolve("observability") == "off"

    def test_env_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBSERVABILITY", "full")
        assert resolve("observability") == "full"

    @pytest.mark.parametrize("value,expected", [
        ("on", "on"), ("full", "full"), ("OFF", "off"),
    ])
    def test_values(self, value, expected):
        assert resolve("observability", value) == expected

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="observability"):
            resolve("observability", "sometimes")

    def test_config_validate_rejects_typo(self, air_mech):
        grid = Grid((16,), (1.0,), periodic=(True,))
        cfg = SolverConfig(boundaries=periodic_boundaries(1), dt=1e-8,
                           observability="paranoid-ish")
        with pytest.raises(ValueError, match="observability"):
            cfg.validate(grid)

    def test_off_gives_null_monitor(self, air_mech, air_y):
        s = _pulse_solver(air_mech, air_y, observability="off")
        assert s.health is NULL_HEALTH
        assert not s.health.enabled

    def test_full_arms_conservation_on_periodic(self, air_mech, air_y):
        s = _pulse_solver(air_mech, air_y, observability="full")
        names = [w.name for w in s.health.watchdogs]
        assert "conservation" in names
        assert s.health.record_telemetry_delta is False  # telemetry off

    def test_severity_lattice(self):
        assert worst_severity(["ok", "warn", "ok"]) == "warn"
        assert worst_severity(["warn", "trip"]) == "trip"
        assert worst_severity([]) == "ok"


class TestNaNSentinel:
    def test_end_of_step_nan_trips(self, solver):
        solver.step()
        solver.state.u[0, 5] = np.nan
        solver.state.mark_modified()
        with pytest.raises(WatchdogTripError) as err:
            solver.health.check(5e-8)
        events = err.value.events
        assert events[0].watchdog == "nan_sentinel"
        assert "rho" in events[0].message
        assert solver.health.trips == 1

    def test_inf_trips_too(self, solver):
        solver.step()
        solver.state.u[1, 3] = np.inf
        solver.state.mark_modified()
        with pytest.raises(WatchdogTripError):
            solver.health.check(5e-8)

    def test_mid_rk_stage_nan_caught_by_stage_guard(self, air_mech, air_y):
        """A slope poisoned mid-stage trips before end-of-step blending."""
        s = _pulse_solver(air_mech, air_y, observability="full")
        calls = []
        real_rhs = s.rhs

        class PoisoningRHS:
            supports_out = getattr(real_rhs, "supports_out", False)

            def __call__(self, t, u, out=None):
                du = real_rhs(t, u, out=out)
                calls.append(len(calls))
                if len(calls) == 3:  # third RK stage of the first step
                    du[0, 0] = np.nan
                return du

            def __getattr__(self, name):
                return getattr(real_rhs, name)

        s.rhs = PoisoningRHS()
        with pytest.raises(WatchdogTripError) as err:
            s.step()
        assert err.value.events[0].watchdog == "rk_stage_guard"
        assert "stage 2" in err.value.events[0].message
        # the guard fired at stage 3 of 5: the step never completed
        assert len(calls) == 3
        assert s.step_count == 0

    def test_without_stage_guard_nan_survives_to_end_of_step(
            self, air_mech, air_y):
        """mode="on" has no stage guard: a slope poisoned at the final
        RK stage (so no later stage re-evaluates the RHS on NaN input)
        blends into the state and is only caught by the end-of-step
        sentinel. The final ``ck45`` stage weight ``B_5`` is nonzero, so
        the poisoned slope reaches the state."""
        s = _pulse_solver(air_mech, air_y, observability="on")
        calls = []
        real_rhs = s.rhs

        class PoisoningRHS:
            supports_out = getattr(real_rhs, "supports_out", False)

            def __call__(self, t, u, out=None):
                du = real_rhs(t, u, out=out)
                calls.append(len(calls))
                if len(calls) == 5:  # last ck45 stage
                    du[0, 0] = np.nan
                return du

            def __getattr__(self, name):
                return getattr(real_rhs, name)

        s.rhs = PoisoningRHS()
        with pytest.raises(WatchdogTripError) as err:
            s.run(1)
        # all five stages evaluated; step completed; sentinel caught it
        assert err.value.events[0].watchdog == "nan_sentinel"
        assert len(calls) == 5
        assert s.step_count == 1


class TestBoundsWatchdog:
    def test_exactly_zero_and_one_pass(self, air_mech):
        """Pure-stream mass fractions (exactly 0.0 / 1.0) are physical."""
        grid = Grid((16,), (1.0,), periodic=(True,))
        Y = np.zeros((air_mech.n_species, 16))
        Y[0] = 1.0  # pure first species: exactly 1.0 and exactly 0.0
        rho = air_mech.density(P_ATM, 300.0 * np.ones(16), Y)
        state = State.from_primitive(air_mech, grid, rho, [0.0], 300.0, Y)
        cfg = SolverConfig(boundaries=periodic_boundaries(1), dt=1e-8)
        s = S3DSolver(state, cfg, transport=None, reacting=False)
        ctx = StepContext(s, 1e-8)
        event = BoundsWatchdog().check(ctx)
        assert event.severity == "ok"
        assert event.value == 0.0

    def test_small_undershoot_warns_large_trips(self, solver):
        class _Tight(BoundsWatchdog):
            y_warn, y_trip = 1e-6, 1e-2

        dog = _Tight()
        st = solver.state
        # push one transported species slightly negative
        st.u[st.species_slice][0, 0] = -1e-5 * st.u[st.i_rho][0]
        st.mark_modified()
        assert dog.check(StepContext(solver, 1e-8)).severity == "warn"
        st.u[st.species_slice][0, 0] = -0.05 * st.u[st.i_rho][0]
        st.mark_modified()
        assert dog.check(StepContext(solver, 1e-8)).severity == "trip"

    def test_temperature_band(self, solver):
        solver.step()  # populates the Newton temperature cache
        class _Band(BoundsWatchdog):
            t_warn, t_trip = (299.0, 301.0), (100.0, 4000.0)

        class _Off(_Band):
            t_warn = (310.0, 320.0)

        event = _Band().check(StepContext(solver, 5e-8))
        assert event.severity == "ok"  # pulse stays within 1 K of ambient
        assert _Off().check(StepContext(solver, 5e-8)).severity == "warn"


class TestCFLMarginWatchdog:
    def test_dt_exactly_at_limit_is_ok(self, solver):
        """margin == 1.0 (the adaptive-dt steady state) must pass."""
        limit = solver.rhs.stable_dt(cfl=solver.config.cfl)
        event = CFLMarginWatchdog().check(StepContext(solver, limit))
        assert event.severity == "ok"
        assert event.value == pytest.approx(1.0)

    def test_slightly_over_warns(self, solver):
        limit = solver.rhs.stable_dt(cfl=solver.config.cfl)
        event = CFLMarginWatchdog().check(StepContext(solver, 1.05 * limit))
        assert event.severity == "warn"

    def test_far_over_trips(self, solver):
        limit = solver.rhs.stable_dt(cfl=solver.config.cfl)
        event = CFLMarginWatchdog().check(StepContext(solver, 1.5 * limit))
        assert event.severity == "trip"


class TestConservationWatchdog:
    def test_baseline_then_drift(self, solver):
        class _Tight(ConservationWatchdog):
            warn_rel, trip_rel = 1e-12, 1e-3

        dog = _Tight()
        assert dog.check(StepContext(solver, 5e-8)).severity == "ok"
        solver.state.u[0] *= 1.0 + 1e-8  # inject a tiny mass drift
        solver.state.mark_modified()
        assert dog.check(StepContext(solver, 5e-8)).severity == "warn"
        solver.state.u[0] *= 1.01
        solver.state.mark_modified()
        assert dog.check(StepContext(solver, 5e-8)).severity == "trip"

    def test_clean_run_stays_ok(self, air_mech, air_y):
        s = _pulse_solver(air_mech, air_y, observability="full")
        s.run(6)
        assert s.health.status()["conservation"] == "ok"
        assert s.health.warns == 0 and s.health.trips == 0


class TestWallTimeAnomaly:
    def _ctx(self, solver, wall):
        return StepContext(solver, 5e-8, wall_time=wall)

    def test_deterministic_outlier(self, solver):
        """A fabricated 100x wall-time spike warns; steady history ok."""
        class _Short(WallTimeAnomalyWatchdog):
            window, min_samples = 16, 4

        dog = _Short()
        for i in range(8):
            event = dog.check(self._ctx(solver, 0.01 + 1e-4 * (i % 2)))
            assert event.severity == "ok"
        spike = dog.check(self._ctx(solver, 1.0))
        assert spike.severity == "warn"
        assert spike.value > 8.0
        # the spike entered the window but the median absorbs it
        assert dog.check(self._ctx(solver, 0.01)).severity == "ok"

    def test_host_jitter_stays_ok(self, solver):
        """On a quiet history (+-2 %) the deviation floor is 10 % of the
        median: a 1.3x step is jitter, a 2x step warns."""
        def primed():
            dog = WallTimeAnomalyWatchdog()
            for i in range(16):
                assert dog.check(self._ctx(
                    solver, 0.027 * (1.0 + 0.02 * (-1) ** i))).severity == "ok"
            return dog

        assert primed().check(self._ctx(solver, 1.3 * 0.027)).severity == "ok"
        assert primed().check(self._ctx(solver, 2.0 * 0.027)).severity == "warn"

    def test_trip_threshold_optional(self, solver):
        class _Tripping(WallTimeAnomalyWatchdog):
            window, min_samples, k_warn, k_trip = 8, 3, 4.0, 8.0

        dog = _Tripping()
        for _ in range(4):
            dog.check(self._ctx(solver, 0.01))
        assert dog.check(self._ctx(solver, 10.0)).severity == "trip"

    def test_warmup_never_fires(self, solver):
        dog = WallTimeAnomalyWatchdog()
        for wall in (0.01, 5.0, 0.01, 100.0):
            assert dog.check(self._ctx(solver, wall)).severity == "ok"


class TestHealthMonitor:
    def test_cadence(self, air_mech, air_y):
        s = _pulse_solver(air_mech, air_y, observability="off")
        health = HealthMonitor(s, watchdogs=[NaNSentinel()], interval=3)
        s.health = health
        s.run(7)
        assert health.checks == 2  # steps 3 and 6

    def test_check_records_step(self, solver):
        solver.run(4)
        rec = solver.health.recorder
        assert rec.steps_seen == 4
        assert rec.last.step == 4
        assert "rho" in rec.last.extrema
        assert rec.last.watchdogs["nan_sentinel"] == "ok"

    def test_interval_validated(self, solver):
        with pytest.raises(ValueError):
            HealthMonitor(solver, interval=0)

    def test_trip_dumps_before_raising(self, solver, air_mech):
        fs = SimFileSystem(lustre())
        solver.health.attach_sink(fs, "bb.jsonl")
        solver.step()
        solver.state.u[0, 0] = np.nan
        solver.state.mark_modified()
        with pytest.raises(WatchdogTripError):
            solver.health.check(5e-8)
        assert fs.exists("bb.jsonl")
        parsed = FlightRecorder.parse(
            fs.read("bb.jsonl", 0, fs.file_size("bb.jsonl")).decode())
        assert parsed["summary"]["reason"] == "watchdog trip"

    def test_dump_fault_does_not_mask_trip(self, solver):
        inj = FaultInjector(seed=3)
        inj.add("fs.write", count=None, probability=1.0)
        fs = SimFileSystem(lustre(), fault_injector=inj)
        solver.health.attach_sink(fs, "bb.jsonl")
        solver.step()
        solver.state.u[0, 0] = np.nan
        solver.state.mark_modified()
        with pytest.raises(WatchdogTripError):
            solver.health.check(5e-8)
        assert solver.health.dump_error is not None

    def test_telemetry_counters(self, air_mech, air_y):
        s = _pulse_solver(air_mech, air_y, observability="on",
                          telemetry=True)
        s.run(3)
        snap = s.telemetry.snapshot()
        assert snap["metrics"]["counters"]["health.checks"] == 3
        assert "health.cfl_margin" in snap["metrics"]["gauges"]

    def test_null_monitor_is_inert(self):
        assert NULL_HEALTH.on_step(1e-8) == []
        assert NULL_HEALTH.check(1e-8) == []
        assert NULL_HEALTH.status() == {}
        assert NULL_HEALTH.dump() is None
        NULL_HEALTH.on_recovery({})


class TestNullPathIdentity:
    def test_off_is_bitwise_identical_to_full(self, air_mech, air_y):
        """Watchdogs observe; they must never perturb the solution."""
        a = _pulse_solver(air_mech, air_y, observability="off")
        b = _pulse_solver(air_mech, air_y, observability="full")
        a.run(5)
        b.run(5)
        assert np.array_equal(a.state.u, b.state.u)


class TestFlightRecorder:
    def _record(self, step, watchdogs=None):
        return StepRecord(step=step, time=step * 1e-8, dt=1e-8,
                          wall_time=0.01, extrema={"rho": (1.0, 1.2)},
                          rms={"rho": 1.1}, watchdogs=watchdogs or {})

    def test_ring_capacity(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record(self._record(i))
        assert rec.steps_seen == 10
        assert len(rec.records) == 4
        assert rec.records[0].step == 6

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_jsonl_round_trip(self):
        rec = FlightRecorder(capacity=8)
        for i in range(3):
            rec.record(self._record(i, {"nan_sentinel": "ok"}))
        rec.record_recovery({"at_step": 2, "restored_step": 0})
        text = rec.to_jsonl("unit test")
        parsed = FlightRecorder.parse(text)
        assert parsed["header"]["version"] == SCHEMA_VERSION
        assert [s["step"] for s in parsed["steps"]] == [0, 1, 2]
        assert parsed["recoveries"][0]["restored_step"] == 0
        assert parsed["summary"]["reason"] == "unit test"
        assert parsed["summary"]["steps_seen"] == 3

    def test_every_line_is_json(self):
        rec = FlightRecorder(capacity=4)
        rec.record(self._record(1))
        for line in rec.to_jsonl("x").strip().splitlines():
            json.loads(line)  # raises on malformed output

    def test_record_without_telemetry_omits_it(self):
        rec = FlightRecorder(capacity=4)
        rec.record(StepRecord(step=1, time=1e-8, dt=1e-8))
        parsed = FlightRecorder.parse(rec.to_jsonl("x"))
        assert "telemetry" not in parsed["steps"][0]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="not JSON"):
            FlightRecorder.parse('{"kind": "header", "version": 1}\nnope\n')

    @pytest.mark.parametrize("line", ["5", "[1]", '"x"', "null"])
    def test_parse_rejects_json_that_is_not_an_object(self, line):
        with pytest.raises(ValueError, match="line 2 is not a JSON object"):
            FlightRecorder.parse(f'{{"kind": "header", "version": 1}}\n{line}\n')

    def test_parse_rejects_missing_header(self):
        with pytest.raises(ValueError, match="no header"):
            FlightRecorder.parse('{"kind": "step", "step": 1}\n')

    def test_parse_rejects_wrong_version(self):
        with pytest.raises(ValueError, match="schema"):
            FlightRecorder.parse('{"kind": "header", "version": 99}\n')

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown record kind"):
            FlightRecorder.parse(
                '{"kind": "header", "version": 1}\n{"kind": "mystery"}\n'
            )

    def test_dump_through_filesystem(self):
        fs = SimFileSystem(lustre())
        rec = FlightRecorder(capacity=4)
        rec.record(self._record(1))
        rec.dump(fs, "fr.jsonl", reason="test")
        assert rec.dumps == 1
        loaded = FlightRecorder.load(fs, "fr.jsonl")
        assert loaded["steps"][0]["step"] == 1

    def test_dump_counts_telemetry(self):
        tel = Telemetry()
        fs = SimFileSystem(lustre())
        rec = FlightRecorder(capacity=4, telemetry=tel)
        rec.record(self._record(1))
        rec.dump(fs, "fr.jsonl")
        counters = tel.snapshot()["metrics"]["counters"]
        assert counters["flightrecorder.dumps"] == 1
        assert counters["flightrecorder.bytes"] > 0


class TestTripRecoveryAcceptance:
    """The issue's acceptance path: a seeded NaN (silent corruption via
    the fault-injection campaign) trips the NaN watchdog within one
    monitor interval, dumps a parseable flight record, and
    run_resilient recovers by rollback-and-replay."""

    def test_nan_trip_rolls_back_and_completes(self, air_mech, air_y):
        s = _pulse_solver(air_mech, air_y, observability="on")
        fs = SimFileSystem(lustre())
        inj = FaultInjector(seed=11)
        inj.add("solver.state", after=5, count=1)
        report = s.run_resilient(fs, 12, checkpoint_interval=4, injector=inj)
        assert report.recoveries == 1
        assert "WatchdogTripError" in report.history[0].error
        assert "nan_sentinel" in report.history[0].error
        # trip at step 6 (one step after injection at step 6's start);
        # rollback to the step-4 checkpoint, replay
        assert report.history[0].restored_step == 4
        assert report.replayed_steps == 2
        assert s.step_count == 12
        assert np.isfinite(s.state.u).all()

    def test_recovered_run_matches_undisturbed(self, air_mech, air_y):
        disturbed = _pulse_solver(air_mech, air_y, observability="on")
        fs = SimFileSystem(lustre())
        inj = FaultInjector(seed=5)
        inj.add("solver.state", after=3, count=1)
        disturbed.run_resilient(fs, 10, checkpoint_interval=5, injector=inj)

        clean = _pulse_solver(air_mech, air_y, observability="off")
        clean.run_resilient(SimFileSystem(lustre()), 10,
                            checkpoint_interval=5)
        assert np.array_equal(disturbed.state.u, clean.state.u)

    def test_flight_record_captures_trip_and_recovery(self, air_mech, air_y):
        s = _pulse_solver(air_mech, air_y, observability="on")
        fs = SimFileSystem(lustre())
        inj = FaultInjector(seed=2)
        inj.add("solver.state", after=4, count=1)
        s.run_resilient(fs, 10, checkpoint_interval=3, injector=inj)
        parsed = FlightRecorder.load(fs, "flight_record.jsonl")
        assert parsed["summary"]["trips"] == 1
        assert parsed["summary"]["recoveries"] == 1
        assert parsed["recoveries"][0]["restored_step"] == 3
        trip_steps = [r for r in parsed["steps"]
                      if r["watchdogs"].get("nan_sentinel") == "trip"]
        assert len(trip_steps) == 1

    def test_watchdog_trip_error_is_typed(self):
        from repro.resilience.supervisor import RECOVERABLE

        assert WatchdogTripError in RECOVERABLE
        err = WatchdogTripError([], step=7, time=1e-6)
        assert err.step == 7
        assert "step 7" in str(err)


class TestFusion:
    def _snapshot(self, spans):
        return {"spans": {k: {"exclusive": v, "inclusive": v, "count": 1}
                          for k, v in spans.items()},
                "metrics": {"counters": {}, "gauges": {}, "histograms": {}}}

    def test_fuse_statistics(self):
        snaps = [self._snapshot({"REACTION": 1.0, "DERIV": 2.0}),
                 self._snapshot({"REACTION": 3.0, "DERIV": 2.0})]
        fused = fuse_profiles(snaps)
        assert list(fused.loads("REACTION")) == [1.0, 3.0]
        assert fused.imbalance("REACTION") == pytest.approx(1.5)
        assert fused.imbalance("DERIV") == pytest.approx(1.0)
        rows = parse_profile_report(fused.profile_report())
        assert rows["REACTION"]["exclusive"] == pytest.approx(2.0)
        assert rows["REACTION"]["calls"] == 2
        assert rows["REACTION"]["imbalance"] == pytest.approx(1.5)

    def test_absent_kernel_counts_as_zero(self):
        snaps = [self._snapshot({"REACTION": 2.0}), self._snapshot({})]
        fused = fuse_profiles(snaps)
        assert list(fused.loads("REACTION")) == [2.0, 0.0]
        assert fused.imbalance("REACTION") == pytest.approx(2.0)

    def test_matches_perfmodel_imbalance(self):
        """The fused imbalance IS chemistry_imbalance — same statistic."""
        from repro.perfmodel.loadbalance import chemistry_imbalance

        loads = [0.5, 1.0, 1.5, 2.0]
        snaps = [self._snapshot({"REACTION_RATES": v}) for v in loads]
        fused = fuse_profiles(snaps)
        expected = chemistry_imbalance(loads)
        assert fused.imbalance("REACTION_RATES") == pytest.approx(expected)

    def test_parallel_run_fusion_consistent_with_loadbalance(
            self, h2_mech, h2_air_stoich):
        """Acceptance: fused profile of a 2x2x1 parallel run agrees with
        the perfmodel imbalance statistic on the same loads."""
        from repro.perfmodel.loadbalance import chemistry_imbalance

        grid = Grid((24, 24), (2e-3, 2e-3), periodic=(True, True))
        xx, yy = grid.meshgrid()
        T = 900.0 + 400.0 * np.exp(
            -((xx - 1e-3) ** 2 + (yy - 1e-3) ** 2) / (2 * (3e-4) ** 2))
        Yf = h2_air_stoich[:, None, None] * np.ones((1, 24, 24))
        rho = h2_mech.density(P_ATM, T, Yf)
        state = State.from_primitive(h2_mech, grid, rho, [1.0, 0.5], T, Yf)
        world = InProcessTransport(4)
        d = CartesianDecomposition((24, 24), (2, 2), periodic=(True, True))
        par = ParallelPeriodicSolver(h2_mech, grid, d, world, reacting=True,
                                     rank_telemetry=True)
        par.set_state(state.u)
        par.run(2, 2e-8)
        fused = par.fused_profile()
        assert fused.n_ranks == 4
        assert "REACTION_RATES" in fused
        loads = fused.loads("REACTION_RATES")
        assert (loads > 0.0).all()
        assert fused.imbalance("REACTION_RATES") == pytest.approx(
            chemistry_imbalance(loads))
        # fusion merges what the ranks return: no message on the wire
        sent = world.log.count
        table = par.fused_profile().profile_report()
        assert world.log.count == sent
        assert "(4 ranks)" in table
        row = parse_profile_report(table)["REACTION_RATES"]
        assert row["imbalance"] == pytest.approx(
            chemistry_imbalance(loads), abs=1e-3)

    def test_fused_profile_requires_rank_telemetry(self, h2_mech):
        grid = Grid((24, 24), (2e-3, 2e-3), periodic=(True, True))
        d = CartesianDecomposition((24, 24), (2, 2), periodic=(True, True))
        par = ParallelPeriodicSolver(h2_mech, grid, d, InProcessTransport(4),
                                     reacting=False)
        with pytest.raises(ValueError, match="rank_telemetry"):
            par.fused_profile()


class TestParallelHealth:
    def test_parallel_watchdogs_on_gathered_state(self, h2_mech,
                                                  h2_air_stoich):
        grid = Grid((24, 24), (2e-3, 2e-3), periodic=(True, True))
        Yf = h2_air_stoich[:, None, None] * np.ones((1, 24, 24))
        T = 900.0 * np.ones((24, 24))
        rho = h2_mech.density(P_ATM, T, Yf)
        state = State.from_primitive(h2_mech, grid, rho, [1.0, 0.5], T, Yf)
        world = InProcessTransport(4)
        d = CartesianDecomposition((24, 24), (2, 2), periodic=(True, True))
        par = ParallelPeriodicSolver(h2_mech, grid, d, world, reacting=False,
                                     observability="on")
        par.set_state(state.u)
        par.run(2, 2e-8)
        status = par.health.status()
        assert status["nan_sentinel"] == "ok"
        assert "cfl_margin" not in status  # explicit-dt solver: no CFL dog

    def test_parallel_nan_trips(self, h2_mech, h2_air_stoich):
        grid = Grid((24, 24), (2e-3, 2e-3), periodic=(True, True))
        Yf = h2_air_stoich[:, None, None] * np.ones((1, 24, 24))
        T = 900.0 * np.ones((24, 24))
        rho = h2_mech.density(P_ATM, T, Yf)
        state = State.from_primitive(h2_mech, grid, rho, [1.0, 0.5], T, Yf)
        world = InProcessTransport(4)
        d = CartesianDecomposition((24, 24), (2, 2), periodic=(True, True))
        par = ParallelPeriodicSolver(h2_mech, grid, d, world, reacting=False,
                                     observability="on")
        par.set_state(state.u)
        par.step(2e-8)
        with pytest.raises(ValueError, match="read-only"):
            par.locals[2][0, 0, 0] = np.nan  # a snapshot, not a handle
        u = par.gather_state()
        u[0, 18, 6] = np.nan  # poison one rank's block
        par.set_state(u)
        assert np.isnan(par.locals[2][0, 6, 6])
        with pytest.raises(WatchdogTripError) as err:
            par.health.check(2e-8)
        assert err.value.events[0].watchdog == "nan_sentinel"


    def test_state_fault_reaches_the_ranks(self, h2_mech, h2_air_stoich):
        """The supervisor's ``solver.state`` site poisons the blocks the
        ranks hold, not the gathered copy, which is read-only (watched,
        the trip and bitwise replay are
        ``test_resilience.py::TestSupervisorContract::
        test_silent_nan_trips_a_watchdog_and_rolls_back``)."""
        grid = Grid((24, 24), (2e-3, 2e-3), periodic=(True, True))
        Yf = h2_air_stoich[:, None, None] * np.ones((1, 24, 24))
        T = 900.0 * np.ones((24, 24))
        rho = h2_mech.density(P_ATM, T, Yf)
        state = State.from_primitive(h2_mech, grid, rho, [1.0, 0.5], T, Yf)
        d = CartesianDecomposition((24, 24), (2, 1), periodic=(True, True))
        par = ParallelPeriodicSolver(h2_mech, grid, d, InProcessTransport(2),
                                     reacting=False, observability="off")
        par.set_state(state.u)
        with pytest.raises(ValueError, match="read-only"):
            par.state.u[0, 0, 0] = np.nan
        inj = FaultInjector(seed=1)
        inj.add("solver.state", after=1)
        report = par.run_resilient(SimFileSystem(lustre()), 2, 2e-8,
                                   policy="respawn", checkpoint_interval=1,
                                   injector=inj)
        assert report.faults_seen == 1 and report.recoveries == 0
        assert np.isnan(par.locals[0][0, 0, 0])

    def test_parallel_stage_guard_catches_mid_stage_nan(self, h2_mech,
                                                        h2_air_stoich):
        """``full`` arms the RK stage guard on the stage loop both
        solvers step through — a rank checks its own slopes: a NaN in
        one rank's slope at one stage trips, through the driver's
        monitor, before the stage is blended into the state."""
        grid = Grid((24, 24), (2e-3, 2e-3), periodic=(True, True))
        Yf = h2_air_stoich[:, None, None] * np.ones((1, 24, 24))
        T = 900.0 * np.ones((24, 24))
        rho = h2_mech.density(P_ATM, T, Yf)
        state = State.from_primitive(h2_mech, grid, rho, [1.0, 0.5], T, Yf)
        d = CartesianDecomposition((24, 24), (2, 1), periodic=(True, True))
        par = ParallelPeriodicSolver(h2_mech, grid, d, InProcessTransport(2),
                                     reacting=False, observability="full")
        par.set_state(state.u)
        par.step(2e-8)  # a clean step passes the guard
        prog, calls = par.world._programs[1], []
        finish = prog.rhs.finish

        def poisoned(ghosts=None):
            du = finish(ghosts)
            calls.append(ghosts)
            if len(calls) == 3:
                du[0, 0, 0] = np.nan
            return du

        prog.rhs.finish = poisoned
        with pytest.raises(WatchdogTripError) as err:
            par.step(2e-8)
        assert err.value.events[0].watchdog == "rk_stage_guard"
        assert "stage 2" in err.value.events[0].message
        assert len(calls) == 3 and par.step_count == 1


class TestRender:
    def test_sparkline_shape(self):
        assert sparkline([1, 2, 3]) == "▁▄█"
        assert sparkline([]) == ""
        assert sparkline([2.0, 2.0]) == "▅▅"
        out = sparkline([1.0, float("nan"), 3.0])
        assert out[1] == "·"
        assert len(sparkline(range(100), width=32)) == 32

    def test_run_monitor_interval(self, air_mech, air_y):
        s = _pulse_solver(air_mech, air_y, observability="on")
        stream = __import__("io").StringIO()
        mon = RunMonitor(s.health.recorder, interval=2, stream=stream)
        s.health.attach_monitor(mon)
        s.run(5)
        assert mon.renders == 2  # steps 2 and 4
        text = stream.getvalue()
        assert "simulation health observatory" in text
        assert "nan_sentinel=ok" in text

    def test_dashboard_contains_step_table_and_sparklines(self, air_mech,
                                                          air_y):
        s = _pulse_solver(air_mech, air_y, observability="on")
        s.run(4)
        text = RunMonitor(s.health.recorder).render()
        assert "step 4" in text
        assert "dt" in text and "wall[s]" in text
        assert "retained 4 steps" in text

    def test_html_report_is_self_contained(self, air_mech, air_y):
        s = _pulse_solver(air_mech, air_y, observability="on")
        s.run(3)
        rows = [r.as_dict() for r in s.health.recorder.records]
        html = html_report(rows)
        assert html.startswith("<!doctype html>")
        assert "<svg" in html and "<style>" in html
        assert "http://" not in html and "https://" not in html  # no CDN
        assert "nan_sentinel" in html

    def test_offline_replay_from_dump(self, air_mech, air_y):
        """Acceptance: the crash dump replays into ASCII + HTML offline."""
        s = _pulse_solver(air_mech, air_y, observability="on")
        fs = SimFileSystem(lustre())
        inj = FaultInjector(seed=4)
        inj.add("solver.state", after=2, count=1)
        s.run_resilient(fs, 8, checkpoint_interval=3, injector=inj)
        rep = replay_report(fs, "flight_record.jsonl")
        assert "flight-record replay" in rep["ascii"]
        assert "recovery" in rep["ascii"]
        assert rep["html"].startswith("<!doctype html>")
        assert rep["parsed"]["summary"]["recoveries"] == 1

    def test_empty_dashboard(self):
        assert "no steps recorded" in RunMonitor(FlightRecorder()).render()


class TestOversubscriptionWarning:
    """Satellite: the transport.oversubscribed gauge surfaces in the
    ASCII dashboard and HTML report with an explicit warning line."""

    def _rows(self, oversub=None):
        rec = FlightRecorder(capacity=4)
        telemetry = None
        if oversub is not None:
            telemetry = {"metrics": {"gauges":
                                     {"transport.oversubscribed": oversub}}}
        rec.record(StepRecord(step=1, time=1e-8, dt=1e-8, wall_time=0.01,
                              extrema={"rho": (1.0, 1.2)}, rms={"rho": 1.1},
                              watchdogs={"nan_sentinel": "ok"},
                              telemetry=telemetry))
        return [r.as_dict() for r in rec.records]

    def test_ascii_warns_from_recorded_rows(self):
        from repro.observability.render import render_dashboard

        text = render_dashboard(self._rows(oversub=3))
        assert "transport oversubscribed: 3 rank(s)" in text
        assert "wall-time signals suspect" in text

    def test_ascii_quiet_without_gauge(self):
        from repro.observability.render import render_dashboard

        assert "oversubscribed" not in render_dashboard(self._rows())

    def test_live_telemetry_preferred(self):
        from repro.observability.render import render_dashboard

        tel = Telemetry()
        tel.gauge("transport.oversubscribed").set(2)
        text = render_dashboard(self._rows(), telemetry=tel)
        assert "transport oversubscribed: 2 rank(s)" in text

    def test_zero_gauge_stays_quiet(self):
        tel = Telemetry()
        tel.gauge("transport.oversubscribed").set(0)
        from repro.observability.render import render_dashboard

        assert "oversubscribed" not in render_dashboard(self._rows(),
                                                        telemetry=tel)

    def test_run_monitor_picks_up_recorder_telemetry(self):
        tel = Telemetry()
        tel.gauge("transport.oversubscribed").set(4)
        rec = FlightRecorder(capacity=4, telemetry=tel)
        rec.record(StepRecord(step=1, time=1e-8, dt=1e-8))
        text = RunMonitor(rec).render()
        assert "transport oversubscribed: 4 rank(s)" in text

    def test_html_report_warns(self):
        tel = Telemetry()
        tel.gauge("transport.oversubscribed").set(2)
        html = html_report(self._rows(), telemetry=tel)
        assert "class='warn'" in html
        assert "transport oversubscribed: 2 rank(s)" in html

    def test_html_report_quiet_without_gauge(self):
        assert "oversubscribed" not in html_report(self._rows())
