"""Distributed run supervision: coordinated checkpoints + rank recovery.

The ISSUE 7 acceptance criteria: a seeded worker kill (or hang)
mid-run must complete via rollback-and-replay to a final state
*bitwise identical* to a fault-free run on the in-process reference
transport and within 1e-12 relative on the multiprocessing backend —
under the ``respawn`` recovery policy (revive the dead ranks on the
same decomposition and replay), with chemistry load balancing on and
off. Policy ``off`` must leave results bitwise identical to a plain
``solver.run``.

Fault schedules are seeded through ``REPRO_FAULT_SEED`` (the CI
recovery lane sweeps {1, 7, 42}) so every run is reproducible and
different lanes exercise different kill sites.

The scenario is a 1-D 64-cell reacting H2/air hot-spot.
"""

import random

import numpy as np
import pytest

from repro.chemistry.mechanisms.builders import h2_li2004
from repro.core.config import SolverConfig, periodic_boundaries, resolve
from repro.core.grid import Grid
from repro.core.state import State
from repro.io import SimFileSystem, lustre
from repro.io.restart import (
    load_state_shard,
    read_checkpoint_manifest,
    save_state_shard,
    verify_state_shard,
    write_checkpoint_manifest,
)
from repro.parallel import shm
from repro.parallel.comm import InProcessTransport, create_transport
from repro.parallel.decomp import CartesianDecomposition
from repro.parallel.shm import MultiprocessingTransport
from repro.parallel.solver import ParallelPeriodicSolver
from repro.resilience import (
    MessageNotFoundError,
    RankFailedError,
    RankUnresponsiveError,
    ResilienceExhaustedError,
    RestartCorruptionError,
)
from repro.resilience.distributed import DistributedCheckpointRing
from repro.resilience.faults import FaultInjector
from repro.telemetry import (NULL_TELEMETRY, MonitorWriter, Telemetry,
                             parse_monitor_text)
from repro.transport import ConstantLewisTransport
from repro.util.constants import P_ATM
from tests.programs import ChainedFailingProgram, SleeperProgram
from tests.tolerances import MP_TRANSPORT_RTOL

pytestmark = pytest.mark.recovery

#: per-lane fault schedule seed (CI sweeps REPRO_FAULT_SEED in {1, 7, 42})
SEED = resolve("fault_seed")
if SEED is None:
    SEED = 7  # this suite's own seed; the CI matrix sets REPRO_FAULT_SEED

N_RANKS = 4
N_STEPS = 4
DT = 2e-8
#: checkpoint every other step, so a kill replays from mid-run
CKPT = 2


def _h2_solver(nprocs=N_RANKS, policy="off", chem="off",
               transport_name="inprocess", faults=None, heartbeat=None,
               telemetry=None):
    """1-D reacting H2/air hot-spot on an ``nprocs``-rank slab."""
    mech = h2_li2004()
    grid = Grid((64,), (4e-3,), periodic=(True,))
    x = grid.coords[0]
    T = 900.0 + 500.0 * np.exp(-((x - 2e-3) ** 2) / (2 * (4e-4) ** 2))
    Y = np.zeros((mech.n_species,) + grid.shape)
    names = list(mech.species_names)
    Y[names.index("H2")] = 0.028
    Y[names.index("O2")] = 0.226
    Y[names.index("N2")] = 1.0 - 0.028 - 0.226
    rho = mech.density(P_ATM, T, Y)
    state = State.from_primitive(mech, grid, rho, [1.0], T, Y)
    decomp = CartesianDecomposition(grid.shape, (nprocs,),
                                    periodic=grid.periodic)
    kwargs = {}
    if transport_name == "multiprocessing" and heartbeat is not None:
        kwargs["heartbeat"] = heartbeat
    world = create_transport(transport_name, size=nprocs,
                             fault_injector=faults, **kwargs)
    solver = ParallelPeriodicSolver(
        mech, grid, decomp, world=world,
        transport=ConstantLewisTransport(mech), reacting=True,
        scheme="ck45", filter_alpha=0.2, chem_load_balance=chem,
        parallel_recovery=policy, telemetry=telemetry,
    )
    solver._owns_world = True  # solver adopts the transport we built
    solver.set_state(state.u)
    return solver


@pytest.fixture(scope="module")
def u_ref():
    """Fault-free reference final state (in-process, 4 ranks)."""
    solver = _h2_solver()
    try:
        solver.run(N_STEPS, DT)
        return np.array(solver.gather_state(), copy=True)
    finally:
        solver.close()


def _kill_injector(mode: str, seed: int = SEED):
    """Seeded single-shot rank kill/hang somewhere in the first ~2 steps
    (``set_state`` and the baseline checkpoint's pull are collective
    calls 1 and 2; a ``ck45`` step with its filter pass is 12 more)."""
    rng = random.Random(seed)
    inj = FaultInjector(seed=seed)
    inj.add("exec.call", mode=mode, count=1, after=2 + rng.randrange(24),
            rank=rng.randrange(N_RANKS))
    return inj


# ---------------------------------------------------------------------------
class TestShardFormat:
    """Rank-sharded checkpoint format (restart v2 + shard magic)."""

    def _fs(self):
        return SimFileSystem(lustre())

    def test_roundtrip_with_cache(self):
        fs = self._fs()
        u = np.arange(13 * 16, dtype=float).reshape(13, 16) * 0.5
        cache = np.linspace(300.0, 1500.0, 16)
        save_state_shard(fs, "a.shard", 7, 1.5e-6, u, cache_block=cache)
        out = load_state_shard(fs, "a.shard")
        assert out["step"] == 7
        assert out["time"] == 1.5e-6
        assert np.array_equal(out["u"], u)
        assert np.array_equal(out["cache"], cache)

    def test_roundtrip_without_cache(self):
        fs = self._fs()
        u = np.random.default_rng(SEED).random((13, 16))
        save_state_shard(fs, "b.shard", 3, 0.0, u)
        out = load_state_shard(fs, "b.shard")
        assert out["cache"] is None
        assert np.array_equal(out["u"], u)
        meta = verify_state_shard(fs, "b.shard")
        assert meta["step"] == 3 and not meta["has_cache"]

    def test_cache_shape_mismatch_rejected(self):
        fs = self._fs()
        u = np.zeros((13, 16))
        with pytest.raises(ValueError, match="cache shape"):
            save_state_shard(fs, "c.shard", 0, 0.0, u,
                             cache_block=np.zeros(15))

    def test_corrupt_payload_fails_checksum(self):
        fs = self._fs()
        u = np.ones((3, 8))
        save_state_shard(fs, "d.shard", 1, 0.0, u)
        from repro.io.filesystem import WriteRequest

        fs.phase_write([WriteRequest(0, "d.shard", fs.file_size("d.shard") - 4,
                                     b"\xde\xad\xbe\xef")])
        with pytest.raises(RestartCorruptionError, match="checksum"):
            verify_state_shard(fs, "d.shard")

    def test_wrong_magic_rejected(self):
        fs = self._fs()
        fs.open("e.shard", n_clients=1)
        from repro.io.filesystem import WriteRequest

        fs.phase_write([WriteRequest(0, "e.shard", 0, b"\x00" * 64)])
        with pytest.raises(RestartCorruptionError, match="not a"):
            verify_state_shard(fs, "e.shard")

    def test_manifest_roundtrip(self):
        fs = self._fs()
        meta = {"step": 4, "time": 8e-8, "n_ranks": 2,
                "shards": ["x.r0.shard", "x.r1.shard"]}
        write_checkpoint_manifest(fs, "x.manifest", meta)
        out = read_checkpoint_manifest(fs, "x.manifest")
        assert out["step"] == 4 and out["shards"] == meta["shards"]

    def test_tampered_manifest_fails_crc(self):
        fs = self._fs()
        write_checkpoint_manifest(fs, "y.manifest", {"step": 4})
        raw = fs.read("y.manifest", 0, fs.file_size("y.manifest"))
        from repro.io.filesystem import WriteRequest

        tampered = raw.replace(b'"step":4', b'"step":9')
        fs.phase_write([WriteRequest(0, "y.manifest", 0, tampered)])
        with pytest.raises(RestartCorruptionError, match="checksum"):
            read_checkpoint_manifest(fs, "y.manifest")

    def test_garbage_manifest_is_descriptive(self):
        fs = self._fs()
        fs.open("z.manifest", n_clients=1)
        from repro.io.filesystem import WriteRequest

        fs.phase_write([WriteRequest(0, "z.manifest", 0, b"\xff\xfenot json")])
        with pytest.raises(RestartCorruptionError, match="manifest"):
            read_checkpoint_manifest(fs, "z.manifest")


# ---------------------------------------------------------------------------
class TestDistributedRing:
    """Two-phase-commit checkpoint ring over per-rank shards."""

    def test_save_commits_shards_and_manifest(self):
        solver = _h2_solver()
        try:
            fs = SimFileSystem(lustre())
            ring = DistributedCheckpointRing(fs, prefix="ck")
            manifest = ring.save(solver)
            names = fs.listdir("ck")
            assert manifest in names
            assert sum(1 for n in names if n.endswith(".shard")) == N_RANKS
            # two-phase commit: no uncommitted temporaries survive a save
            assert not [n for n in names if n.endswith(".tmp")]
            meta = read_checkpoint_manifest(fs, manifest)
            assert meta["n_ranks"] == N_RANKS
            assert tuple(meta["proc_shape"]) == (N_RANKS,)
        finally:
            solver.close()

    def test_ring_keeps_last_k(self):
        solver = _h2_solver()
        try:
            fs = SimFileSystem(lustre())
            ring = DistributedCheckpointRing(fs, prefix="ck", keep=2)
            for _ in range(3):
                ring.save(solver)
                solver.step(DT)
            assert len(ring.entries()) == 2
            assert ring.entries()[-1][0] == 2
            # pruned checkpoints leave neither manifest nor shards behind
            steps_on_disk = {n.split(".")[1] for n in fs.listdir("ck")}
            assert steps_on_disk == {"00000001", "00000002"}
        finally:
            solver.close()

    def test_restore_rolls_back_bitwise(self, u_ref):
        solver = _h2_solver()
        try:
            fs = SimFileSystem(lustre())
            ring = DistributedCheckpointRing(fs, prefix="ck")
            solver.step(DT)
            ring.save(solver)
            saved = np.array(solver.gather_state(), copy=True)
            solver.step(DT)
            solver.step(DT)
            restored = ring.restore(solver)
            assert restored["step"] == 1 and restored["fallbacks"] == 0
            assert solver.step_count == 1
            assert np.array_equal(solver.gather_state(), saved)
            # the replayed trajectory matches the uninterrupted one
            for _ in range(N_STEPS - 1):
                solver.step(DT)
            assert np.array_equal(solver.gather_state(), u_ref)
        finally:
            solver.close()

    def test_torn_checkpoint_is_invisible(self):
        """A checkpoint missing its manifest (torn before commit) is
        skipped whole; restore falls back to the previous one."""
        solver = _h2_solver()
        try:
            fs = SimFileSystem(lustre())
            ring = DistributedCheckpointRing(fs, prefix="ck")
            ring.save(solver)
            solver.step(DT)
            newest = ring.save(solver)
            fs.unlink(newest)  # sever the commit record
            restored = ring.restore(solver)
            assert restored["step"] == 0
            assert restored["fallbacks"] == 1
        finally:
            solver.close()

    def test_corrupt_shard_poisons_whole_checkpoint(self):
        solver = _h2_solver()
        try:
            fs = SimFileSystem(lustre())
            ring = DistributedCheckpointRing(fs, prefix="ck")
            ring.save(solver)
            solver.step(DT)
            ring.save(solver)
            shard = ring.shard_path(1, 2)
            from repro.io.filesystem import WriteRequest

            fs.phase_write([WriteRequest(0, shard,
                                         fs.file_size(shard) - 8,
                                         b"\x00" * 8)])
            restored = ring.restore(solver)
            assert restored["step"] == 0 and restored["fallbacks"] == 1
        finally:
            solver.close()

    def test_empty_ring_exhausts(self):
        solver = _h2_solver()
        try:
            fs = SimFileSystem(lustre())
            ring = DistributedCheckpointRing(fs, prefix="ck")
            with pytest.raises(ResilienceExhaustedError, match="ring"):
                ring.restore(solver)
        finally:
            solver.close()


# ---------------------------------------------------------------------------
def _e2e_workloads():
    """The ledger benchmark's workload builders, loaded from their file
    (``benchmarks/`` is not a package; the module imports only ``repro``)."""
    import importlib.util
    import pathlib
    import sys

    name = "e2e_workloads"
    if name not in sys.modules:
        path = (pathlib.Path(__file__).resolve().parents[1]
                / "benchmarks" / "e2e" / "workloads.py")
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


@pytest.mark.transport
class TestRestoreReplayIsBitwise:
    """The crack the e2e benchmark found: restore-and-replay of the
    2-rank mixture-averaged box differed from the live run by ~2.7e-16
    on seeds 0, 102 and 107, on *both* transports. The ranks padded
    their blocks with ghost cells whose temperatures were Newton-solved
    in the padding rank's batch — whole-batch stopping gives them that
    batch's iteration count, not their owner's — so the ghost-extended
    cache rebuilt from the owners' values at restore was not the cache
    the rank had held. A rank now holds the cache of the cells it owns
    and nothing else: a shard installs as it was saved."""

    @pytest.mark.parametrize("transport_name",
                             ["inprocess", "multiprocessing"])
    @pytest.mark.parametrize("seed", [0, 102, 107, 3])
    def test_replay_equals_the_live_run(self, seed, transport_name):
        """``box2d_h2_par2`` itself, as the benchmark builds it."""
        wl = _e2e_workloads()
        case = wl.build_box2d_h2_par2(wl.Size((96, 48), 0, 0), seed,
                                      NULL_TELEMETRY,
                                      comm_transport=transport_name)
        solver = case.solver
        try:
            ring = DistributedCheckpointRing(SimFileSystem(lustre()))
            solver.run(12, case.dt)
            ring.save(solver)
            in_process = transport_name == "inprocess"
            programs = solver.world._programs if in_process else None
            if programs is not None:
                held = [p.state._t_cache.copy() for p in programs]
            solver.run(3, case.dt)
            live = solver.gather_state()
            ring.restore(solver)
            if programs is not None:
                # everything a rank holds, not just what it checkpoints
                for prog, cache in zip(programs, held):
                    assert np.array_equal(prog.state._t_cache, cache)
            solver.run(3, case.dt)
            assert np.array_equal(solver.gather_state(), live)
        finally:
            case.close()


@pytest.mark.transport
@pytest.mark.parametrize("transport_name", ["inprocess", "multiprocessing"])
class TestAbandonedAdvance:
    """The state lives on the ranks and a step is a suspended generator
    there: recovery must not trip over one the failure left behind."""

    def test_rollback_drops_the_step_a_survivor_holds(self, u_ref,
                                                      transport_name):
        solver = _h2_solver(transport_name=transport_name)
        try:
            ring = DistributedCheckpointRing(SimFileSystem(lustre()))
            solver.step(DT)
            ring.save(solver)
            # a step every rank is in the middle of: posted, suspended
            posted = solver.world.call_all(
                "advance", [(solver.time, DT, True, False)] * N_RANKS)
            assert all(reply is not None for reply in posted)
            in_process = transport_name == "inprocess"
            programs = solver.world._programs if in_process else None
            if programs is not None:
                assert all(p._run is not None for p in programs)
            assert solver.recover("rollback", ring, ())["step"] == 1
            if programs is not None:
                assert all(p._run is None for p in programs)
            solver.run(N_STEPS - 1, DT)
            assert np.array_equal(solver.gather_state(), u_ref)
        finally:
            solver.close()

    def test_kill_inside_a_remainder_recovers(self, u_ref, transport_name):
        """Calls 1-3 are ``set_state``, the baseline checkpoint's pull
        and ``advance``, whose reply left rank 2 computing its reaction
        sources behind the post: the fault strikes as the first
        ``resume`` is dispatched."""
        inj = FaultInjector(seed=SEED)
        inj.add("exec.call", mode="rank_failure", count=1, after=3, rank=2)
        solver = _h2_solver(policy="respawn", transport_name=transport_name,
                            faults=inj)
        try:
            report = solver.run_resilient(SimFileSystem(lustre()), N_STEPS,
                                          DT, checkpoint_interval=CKPT)
            assert report.recoveries == 1
            assert report.history[0].dead_ranks == (2,)
            assert report.history[0].at_step == 0
            assert np.array_equal(solver.gather_state(), u_ref)
        finally:
            solver.close()


# ---------------------------------------------------------------------------
class TestPolicyResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_RECOVERY", "respawn")
        assert resolve("parallel_recovery", "off") == "off"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_PARALLEL_RECOVERY", "respawn")
        assert resolve("parallel_recovery") == "respawn"
        monkeypatch.delenv("REPRO_PARALLEL_RECOVERY")
        assert resolve("parallel_recovery") == "off"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown parallel_recovery"):
            resolve("parallel_recovery", "retreat")

    def test_config_validates_policy(self):
        grid = Grid((16,), (1.0,), periodic=(True,))
        good = SolverConfig(boundaries=periodic_boundaries(1),
                            parallel_recovery="respawn")
        good.validate(grid)
        bad = SolverConfig(boundaries=periodic_boundaries(1),
                           parallel_recovery="retreat")
        with pytest.raises(ValueError, match="unknown parallel_recovery"):
            bad.validate(grid)


# ---------------------------------------------------------------------------
class TestRecoveryInProcess:
    """Seeded kill/hang matrix on the bitwise reference transport."""

    @pytest.mark.parametrize("chem", ["off", "greedy"])
    @pytest.mark.parametrize("policy", ["respawn"])
    @pytest.mark.parametrize("mode", ["rank_failure", "hang"])
    def test_recovered_state_is_bitwise(self, u_ref, mode, policy, chem):
        inj = _kill_injector(mode)
        solver = _h2_solver(policy=policy, chem=chem, faults=inj)
        try:
            fs = SimFileSystem(lustre())
            report = solver.run_resilient(fs, N_STEPS, DT,
                                          checkpoint_interval=CKPT)
            assert report.recoveries >= 1
            assert report.steps_completed == N_STEPS
            assert np.array_equal(solver.gather_state(), u_ref), (
                f"{mode}/{policy}/chemlb={chem}: recovered state diverged "
                f"from the fault-free reference (seed {SEED})"
            )
            ev = report.history[0]
            assert ev.dead_ranks and ev.policy == policy
            assert ev.restored_step <= ev.at_step
        finally:
            solver.close()

    def test_off_policy_is_plain_run(self, u_ref):
        solver = _h2_solver(policy="off")
        solver.monitor_writer = writer = MonitorWriter()
        try:
            fs = SimFileSystem(lustre())
            report = solver.run_resilient(fs, N_STEPS, DT,
                                          checkpoint_interval=CKPT,
                                          monitor_interval=2)
            assert report.clean
            assert report.checkpoints_written == 0
            assert not fs.listdir("parallel")  # zero checkpoint traffic
            assert np.array_equal(solver.gather_state(), u_ref)
            # the loop solver.run steps through: it records the monitor
            rows = parse_monitor_text(writer.text())
            assert sorted({row["step"] for row in rows}) == [2, 4]
        finally:
            solver.close()

    def test_recovery_budget_exhausts(self):
        inj = FaultInjector(seed=SEED)
        inj.add("exec.call", mode="rank_failure", count=50, after=2,
                rank=0)
        solver = _h2_solver(policy="respawn", faults=inj)
        try:
            fs = SimFileSystem(lustre())
            with pytest.raises(ResilienceExhaustedError, match="budget"):
                solver.run_resilient(fs, N_STEPS, DT, checkpoint_interval=CKPT,
                                     max_recoveries=2)
        finally:
            solver.close()

    def test_recovery_counters_recorded(self):
        tel = Telemetry()
        inj = _kill_injector("rank_failure")
        solver = _h2_solver(policy="respawn", faults=inj, telemetry=tel)
        try:
            fs = SimFileSystem(lustre())
            report = solver.run_resilient(fs, N_STEPS, DT,
                                          checkpoint_interval=CKPT)
            assert (tel.counter("resilience.recoveries").value
                    == report.recoveries)
            assert (tel.counter("resilience.ranks_respawned").value
                    == report.ranks_respawned)
            assert tel.counter("resilience.checkpoints_written").value >= 1
        finally:
            solver.close()


# ---------------------------------------------------------------------------
class TestExceptionFidelity:
    """Worker exceptions must surface with cause chain + origin rank."""

    def test_inprocess_preserves_cause_and_rank(self):
        world = InProcessTransport(3)
        world.start_programs(ChainedFailingProgram, [(1,)] * 3)
        with pytest.raises(ValueError, match="reaction rates") as excinfo:
            world.call_all("work")
        assert excinfo.value.rank == 1
        assert isinstance(excinfo.value.__cause__, KeyError)
        world.close()

    @pytest.mark.slow
    def test_multiprocessing_preserves_cause_and_rank(self):
        world = MultiprocessingTransport(2)
        try:
            world.start_programs(ChainedFailingProgram, [(1,)] * 2)
            with pytest.raises(ValueError, match="reaction rates") as excinfo:
                world.call_all("work")
            assert excinfo.value.rank == 1
            cause = excinfo.value.__cause__
            assert isinstance(cause, KeyError)
            assert "chemistry table" in str(cause)
        finally:
            world.close()


# ---------------------------------------------------------------------------
class TestLiveness:
    def test_inprocess_hang_injection_is_typed(self):
        inj = FaultInjector(seed=SEED)
        inj.add("exec.call", mode="hang", count=1, rank=2)
        world = InProcessTransport(3, fault_injector=inj)
        world.start_programs(ChainedFailingProgram, [(99,)] * 3)  # no rank fails
        with pytest.raises(RankUnresponsiveError, match="stopped responding"):
            world.call_all("work")
        assert 2 in world.failed_ranks
        world.close()

    def test_heartbeat_env_and_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", "2.5")
        world = MultiprocessingTransport(1)
        assert world.heartbeat == 2.5
        world.close()
        with pytest.raises(ValueError, match="heartbeat"):
            MultiprocessingTransport(1, heartbeat=-1.0)

    @pytest.mark.slow
    def test_genuine_hang_trips_heartbeat(self):
        """A worker that really blocks (no injection theatre) is killed
        and surfaced as RankUnresponsiveError by the deadline."""
        world = MultiprocessingTransport(2, heartbeat=0.5)
        try:
            world.start_programs(SleeperProgram, [(0, 30.0)] * 2)
            with pytest.raises(RankUnresponsiveError, match="heartbeat"):
                world.call_all("work")
            assert 0 in world.failed_ranks
        finally:
            world.close()


# ---------------------------------------------------------------------------
class TestReviveAndReset:
    def test_inprocess_revive_restarts_program(self):
        world = InProcessTransport(3)
        world.start_programs(ChainedFailingProgram, [(99,)] * 3)
        world.fail_rank(1)
        with pytest.raises(RankFailedError):
            world.call_all("work")
        world.revive_ranks([1])
        assert world.failed_ranks == set()
        assert world.call_all("work") == [0, 1, 2]
        world.close()

    def test_revive_validates_range(self):
        world = InProcessTransport(2)
        with pytest.raises(ValueError, match="out of range"):
            world.revive_ranks([5])
        world.close()

    def test_reset_channels_purges_mailboxes(self):
        world = InProcessTransport(2)
        world.comm(0).Send(np.arange(3.0), dest=1, tag=9)
        world.reset_channels()
        with pytest.raises(MessageNotFoundError):
            world.comm(1).Recv(source=0, tag=9)
        world.close()

    @pytest.mark.slow
    def test_multiprocessing_revive_respawns_worker(self):
        inj = FaultInjector(seed=SEED)
        inj.add("exec.call", mode="rank_failure", count=1,
                rank=1)
        world = MultiprocessingTransport(2, fault_injector=inj)
        try:
            world.start_programs(ChainedFailingProgram, [(99,)] * 2)
            with pytest.raises(RankFailedError):
                world.call_all("work")
            assert 1 in world.failed_ranks
            world.revive_ranks([1])
            world.reset_channels()
            assert world.failed_ranks == set()
            assert world.call_all("work") == [0, 1]
        finally:
            world.close()


# ---------------------------------------------------------------------------
class TestOversubscription:
    def test_warns_once_and_records_gauge(self, monkeypatch):
        import os as _os

        monkeypatch.setattr(_os, "cpu_count", lambda: 1)
        monkeypatch.setattr(shm, "_OVERSUB_WARNED", False)
        tel = Telemetry()
        world = MultiprocessingTransport(2, telemetry=tel)
        try:
            with pytest.warns(RuntimeWarning, match="oversubscribed"):
                world.start_programs(ChainedFailingProgram, [(99,)] * 2)
            assert tel.gauge("transport.oversubscribed").value == 1
        finally:
            world.close()
        # second transport records the gauge but does not warn again
        import warnings as _warnings

        world2 = MultiprocessingTransport(2, telemetry=tel)
        try:
            with _warnings.catch_warnings():
                _warnings.simplefilter("error", RuntimeWarning)
                world2.start_programs(ChainedFailingProgram, [(99,)] * 2)
        finally:
            world2.close()

    def test_no_warning_when_fitting(self, monkeypatch):
        import os as _os

        monkeypatch.setattr(_os, "cpu_count", lambda: 8)
        monkeypatch.setattr(shm, "_OVERSUB_WARNED", False)
        import warnings as _warnings

        world = MultiprocessingTransport(2)
        try:
            with _warnings.catch_warnings():
                _warnings.simplefilter("error", RuntimeWarning)
                world.start_programs(ChainedFailingProgram, [(99,)] * 2)
        finally:
            world.close()


# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestRecoveryMultiprocessing:
    """Real process kills on the one-worker-per-rank backend."""

    def _assert_close(self, u, u_ref):
        scale = np.max(np.abs(u_ref))
        err = np.max(np.abs(u - u_ref)) / scale
        assert err <= MP_TRANSPORT_RTOL, (
            f"relative error {err:.3e} > {MP_TRANSPORT_RTOL}")

    @pytest.mark.parametrize("policy", ["respawn"])
    def test_worker_kill_recovers(self, u_ref, policy):
        inj = _kill_injector("rank_failure")
        solver = _h2_solver(policy=policy,
                            transport_name="multiprocessing", faults=inj)
        try:
            fs = SimFileSystem(lustre())
            report = solver.run_resilient(fs, N_STEPS, DT,
                                          checkpoint_interval=CKPT)
            assert report.recoveries >= 1
            assert report.steps_completed == N_STEPS
            self._assert_close(solver.gather_state(), u_ref)
        finally:
            solver.close()

    def test_real_hang_recovers_via_heartbeat(self, u_ref):
        inj = _kill_injector("hang")
        solver = _h2_solver(policy="respawn",
                            transport_name="multiprocessing", faults=inj,
                            heartbeat=1.0)
        try:
            fs = SimFileSystem(lustre())
            report = solver.run_resilient(fs, N_STEPS, DT,
                                          checkpoint_interval=CKPT)
            assert report.recoveries >= 1
            assert "RankUnresponsiveError" in report.history[0].error
            self._assert_close(solver.gather_state(), u_ref)
        finally:
            solver.close()

    def test_default_transport_from_env(self, u_ref):
        """The CI recovery lane's REPRO_TRANSPORT choice is honoured
        when no backend is named explicitly."""
        expected = resolve("transport")
        inj = _kill_injector("rank_failure")
        solver = _h2_solver(policy="respawn", transport_name=None,
                            faults=inj)
        try:
            assert solver.world.name == expected
            fs = SimFileSystem(lustre())
            report = solver.run_resilient(fs, N_STEPS, DT,
                                          checkpoint_interval=CKPT)
            assert report.recoveries >= 1
            if expected == "inprocess":
                assert np.array_equal(solver.gather_state(), u_ref)
            else:
                self._assert_close(solver.gather_state(), u_ref)
        finally:
            solver.close()
