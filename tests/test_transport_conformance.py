"""Cross-transport conformance suite: the contract every backend passes.

One shared battery — point-to-point ordering, tag and source matching,
rank failure, fault injection, message-log accounting, and the
execution plane — runs against every registered transport backend. A
new backend is done when this file passes for it. The CI transport lane fails on any skip here: a registered backend
that no lane executes is deleted, not skipped.

Also here:
* hypothesis property tests — random message schedules produce
  identical :class:`~repro.parallel.comm.MessageLog` accounting and
  identical payloads across the in-process and multiprocessing
  backends,
* the fault-injection matrix — rank-failure schedules (seeds 1, 7,
  42) raise the same typed exceptions through the multiprocessing
  control plane; ``rank_failure`` is the one mode of the ``mpi.send``
  site, and any other (``drop`` and ``corrupt`` included) raises
  ``ValueError``.
"""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import resolve
from repro.parallel.comm import (
    TRANSPORTS,
    InProcessTransport,
    TransportUnavailableError,
    create_transport,
    transport_unavailable_reason,
)
from repro.resilience.errors import (
    MessageNotFoundError,
    RankFailedError,
    RankUnresponsiveError,
)
from repro.resilience.faults import FaultInjector
from tests.programs import EchoProgram, FailingProgram, ReplyEarlyProgram

pytestmark = pytest.mark.transport


def _log(world) -> list:
    """The message log as ``(source, dest, tag, nbytes)`` tuples."""
    return [(r.source, r.dest, r.tag, r.nbytes) for r in world.log.records]


@pytest.fixture(params=TRANSPORTS)
def make_world(request):
    """Factory building worlds on one backend; skips when unavailable."""
    name = request.param
    reason = transport_unavailable_reason(name)
    if reason is not None:
        pytest.skip(f"{name}: {reason}")
    made = []

    def make(size, fault_injector=None):
        try:
            t = create_transport(name, size=size,
                                 fault_injector=fault_injector)
        except TransportUnavailableError as exc:
            pytest.skip(f"{name}: {exc}")
        made.append(t)
        return t

    make.transport_name = name
    yield make
    for t in made:
        t.close()


class TestPointToPoint:
    def test_send_recv_roundtrip(self, make_world):
        w = make_world(2)
        w.comm(0).Send(np.arange(4.0), dest=1, tag=7)
        np.testing.assert_array_equal(
            w.comm(1).Recv(source=0, tag=7), np.arange(4.0))

    def test_fifo_per_channel(self, make_world):
        w = make_world(2)
        for v in (1.0, 2.0, 3.0):
            w.comm(0).Send(np.array([v]), dest=1, tag=0)
        got = [w.comm(1).Recv(source=0, tag=0)[0] for _ in range(3)]
        assert got == [1.0, 2.0, 3.0]

    def test_tag_matching(self, make_world):
        w = make_world(2)
        w.comm(0).Send(np.array([10.0]), dest=1, tag=5)
        w.comm(0).Send(np.array([20.0]), dest=1, tag=9)
        # tags are independent channels: receive out of send order
        assert w.comm(1).Recv(source=0, tag=9)[0] == 20.0
        assert w.comm(1).Recv(source=0, tag=5)[0] == 10.0

    def test_source_matching(self, make_world):
        w = make_world(3)
        w.comm(0).Send(np.array([1.0]), dest=2, tag=0)
        w.comm(1).Send(np.array([2.0]), dest=2, tag=0)
        assert w.comm(2).Recv(source=1, tag=0)[0] == 2.0
        assert w.comm(2).Recv(source=0, tag=0)[0] == 1.0

    def test_send_copies_buffer(self, make_world):
        w = make_world(2)
        buf = np.zeros(3)
        w.comm(0).Send(buf, dest=1)
        buf[:] = 9.0
        np.testing.assert_array_equal(
            w.comm(1).Recv(source=0), np.zeros(3))

    def test_isend_equivalent_under_phases(self, make_world):
        w = make_world(2)
        w.comm(0).Isend(np.array([4.0]), dest=1, tag=3)
        assert w.comm(1).Recv(source=0, tag=3)[0] == 4.0

    def test_recv_without_message_raises(self, make_world):
        w = make_world(2)
        with pytest.raises(MessageNotFoundError, match="no pending message"):
            w.comm(0).Recv(source=1, tag=0)
        assert not w._mailboxes  # a miss creates no channel

    def test_invalid_ranks(self, make_world):
        w = make_world(2)
        with pytest.raises(ValueError):
            w.comm(5)
        with pytest.raises(ValueError):
            w.comm(0).Send(np.zeros(1), dest=9)
        with pytest.raises(ValueError, match="source rank 7 out of range"):
            w.comm(0).Recv(source=7)

    def test_preserves_dtype_and_shape(self, make_world):
        w = make_world(2)
        a = np.arange(12, dtype=np.int64).reshape(3, 4)
        w.comm(0).Send(a, dest=1, tag=2)
        out = w.comm(1).Recv(source=0, tag=2)
        assert out.dtype == a.dtype and out.shape == a.shape
        np.testing.assert_array_equal(out, a)


class TestAccounting:
    def test_log_totals(self, make_world):
        w = make_world(3)
        w.comm(0).Send(np.zeros(10), dest=1)
        w.comm(1).Send(np.zeros(5), dest=2)
        assert w.log.count == 2
        assert w.log.total_bytes == 15 * 8
        assert _log(w)[0] == (0, 1, 0, 80)

    def test_log_tuples_ordered(self, make_world):
        w = make_world(2)
        w.comm(0).Send(np.zeros(2), dest=1, tag=4)
        w.comm(1).Send(np.zeros(3), dest=0, tag=6)
        assert _log(w) == [(0, 1, 4, 16), (1, 0, 6, 24)]


class TestRankFailure:
    def test_failed_rank_refuses_send(self, make_world):
        w = make_world(2)
        w.fail_rank(1)
        assert w.failed_ranks == {1}
        with pytest.raises(RankFailedError):
            w.comm(0).Send(np.zeros(1), dest=1)

    def test_failed_rank_refuses_recv(self, make_world):
        w = make_world(2)
        w.comm(0).Send(np.zeros(1), dest=1)
        w.fail_rank(1)
        with pytest.raises(RankFailedError):
            w.comm(1).Recv(source=0)

    def test_fail_rank_out_of_range(self, make_world):
        w = make_world(2)
        with pytest.raises(ValueError):
            w.fail_rank(7)


class TestFaultInjection:
    @pytest.mark.parametrize("mode", ["error", "delay", "drop", "corrupt"])
    def test_unimplemented_mode_raises(self, make_world, mode):
        """A spec armed with a mode the site does not implement is a
        misarmed test, not a fault that fired and delivered anyway: a
        message is delivered or its peer is dead."""
        inj = FaultInjector(seed=1)
        inj.add("mpi.send", mode=mode, probability=1.0)
        w = make_world(2, fault_injector=inj)
        with pytest.raises(ValueError, match=f"'mpi.send'.*'{mode}'"):
            w.comm(0).Send(np.zeros(1), dest=1)
        with pytest.raises(MessageNotFoundError):
            w.comm(1).Recv(source=0)
        assert w.log.count == 0

    def test_exec_call_unimplemented_mode_raises(self, make_world):
        """``exec.call`` implements ``rank_failure`` and ``hang``: any
        other mode raises ``ValueError`` naming the site and the mode
        before a rank is failed or a worker killed (it used to kill the
        victim as a ``rank_failure``)."""
        inj = FaultInjector(seed=1)
        inj.add("exec.call", mode="drop", rank=1)
        w = make_world(2, fault_injector=inj)
        w.start_programs(EchoProgram, [(0.0,), (0.0,)])
        with pytest.raises(ValueError, match="'exec.call'.*'drop'"):
            w.call_all("bump")
        assert w.failed_ranks == set()
        assert w.call_all("bump") == [1, 1]

    def test_rank_failure_fault(self, make_world):
        inj = FaultInjector(seed=1)
        inj.add("mpi.send", mode="rank_failure", probability=1.0)
        w = make_world(2, fault_injector=inj)
        with pytest.raises(RankFailedError):
            w.comm(0).Send(np.zeros(1), dest=1)
        assert 0 in w.failed_ranks


class TestExecutionPlane:
    def test_programs_run_and_keep_state(self, make_world):
        w = make_world(3)
        w.start_programs(EchoProgram, [(float(r),) for r in range(3)])
        assert w.call_all("bump") == [1, 1, 1]
        assert w.call_all("bump") == [2, 2, 2]
        assert w.call_all("identity") == [(0, 0.0), (1, 1.0), (2, 2.0)]

    def test_array_payloads_roundtrip(self, make_world):
        w = make_world(2)
        w.start_programs(EchoProgram, [(1.0,), (2.0,)])
        arrs = [np.arange(6.0).reshape(2, 3) + r for r in range(2)]
        res = w.call_all("scale", [(a, 3.0) for a in arrs])
        for r, out in enumerate(res):
            np.testing.assert_array_equal(out, arrs[r] * 3.0 + (r + 1.0))

    def test_call_before_start_raises(self, make_world):
        w = make_world(2)
        with pytest.raises(RuntimeError, match="start_programs"):
            w.call_all("bump")

    def test_typed_exceptions_propagate(self, make_world):
        for kind, exc_type in [("value", ValueError),
                               ("zero", ZeroDivisionError),
                               ("rank", RankFailedError),
                               ("message", MessageNotFoundError)]:
            w = make_world(2)
            w.start_programs(FailingProgram, [(0, kind), (0, kind)])
            with pytest.raises(exc_type, match="deliberate"):
                w.call_all("work")
            w.close()

    def test_failed_rank_program_refuses(self, make_world):
        w = make_world(2)
        w.start_programs(EchoProgram, [(0.0,), (0.0,)])
        w.call_all("bump")
        w.fail_rank(0)
        with pytest.raises(RankFailedError):
            w.call_all("bump")

    def test_per_rank_args_size_mismatch(self, make_world):
        w = make_world(3)
        with pytest.raises(ValueError, match="per-rank args"):
            w.start_programs(EchoProgram, [(0.0,)])

    def test_reply_early_runs_the_remainder_before_the_next_call(
            self, make_world):
        """The reply is what the method yields; the remainder has run
        by the time the rank answers again. The arguments expired with
        the reply: what the remainder copied is intact, what it reads
        through the stale view is NaN — on every backend — and the
        caller's own arrays are untouched."""
        w = make_world(2)
        w.start_programs(ReplyEarlyProgram, [()] * 2)
        arrs = [np.arange(6.0) + r for r in range(2)]
        for n in (1, 2):
            assert w.call_all("work", [(a,) for a in arrs]) == [15.0, 21.0]
            for r, (done, kept, stale) in enumerate(w.call_all("report")):
                assert (done, kept) == (n, 15.0 + 6 * r)
                assert np.isnan(stale)
        np.testing.assert_array_equal(arrs[1], np.arange(6.0) + 1)

    def test_late_failure_is_the_next_reply(self, make_world):
        """An exception raised after the reply left surfaces, typed and
        with its rank, in place of that rank's next call — once — and
        the pipes stay in sync."""
        w = make_world(2)
        w.start_programs(ReplyEarlyProgram, [(1,)] * 2)
        arr = np.ones(4)
        assert w.call_all("work", [(arr,)] * 2) == [4.0, 4.0]
        with pytest.raises(ValueError, match="late failure") as err:
            w.call_all("report")
        assert err.value.rank == 1
        survivor, failed = w.call_all("report")
        assert survivor[:2] == (1, 4.0) and failed == (0, None, None)


class TestMultiprocessingIsolation:
    """Properties specific to the out-of-process backend: ranks really
    live in separate processes, and worker death maps to rank failure."""

    @pytest.fixture(autouse=True)
    def _require_mp(self):
        reason = transport_unavailable_reason("multiprocessing")
        if reason is not None:  # pragma: no cover - always available
            pytest.skip(reason)

    def test_ranks_run_in_distinct_processes(self):
        with create_transport("multiprocessing", size=3) as w:
            w.start_programs(EchoProgram, [(0.0,)] * 3)
            pids = w.call_all("pid")
            assert len(set(pids)) == 3
            assert os.getpid() not in pids

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no CPU affinity interface on this platform")
    def test_one_rank_per_core_round_robin(self):
        """Each worker is confined to one core of the driver's mask
        (short calls woken by the driver otherwise stack on its core)."""
        cores = sorted(os.sched_getaffinity(0))
        with create_transport("multiprocessing", size=3) as w:
            w.start_programs(EchoProgram, [(0.0,)] * 3)
            masks = [os.sched_getaffinity(pid) for pid in w.call_all("pid")]
        assert masks == [{cores[r % len(cores)]} for r in range(3)]
        assert os.sched_getaffinity(0) == set(cores)  # the driver floats

    def test_inprocess_runs_in_driver(self):
        with create_transport("inprocess", size=3) as w:
            w.start_programs(EchoProgram, [(0.0,)] * 3)
            assert set(w.call_all("pid")) == {os.getpid()}

    def test_worker_death_is_rank_failure(self):
        with create_transport("multiprocessing", size=2) as w:
            w.start_programs(EchoProgram, [(0.0,), (0.0,)])
            w._workers[1].proc.terminate()
            w._workers[1].proc.join()
            with pytest.raises(RankFailedError):
                w.call_all("bump")
            assert 1 in w.failed_ranks

    def test_pool_survives_program_exception(self):
        with create_transport("multiprocessing", size=2) as w:
            w.start_programs(FailingProgram, [(0, "value"), (0, "value")])
            with pytest.raises(ValueError):
                w.call_all("work")
            w.start_programs(EchoProgram, [(0.0,), (0.0,)])
            assert w.call_all("bump") == [1, 1]

    def test_large_payload_growth(self):
        with create_transport("multiprocessing", size=1) as w:
            w.start_programs(EchoProgram, [(0.0,)])
            big = np.random.default_rng(3).random((256, 256, 4))  # 2 MiB
            [(out, _)] = w.call_all("roundtrip", [(big,)])
            np.testing.assert_array_equal(out, big)

    def test_the_reply_does_not_wait_for_the_remainder(self):
        """...and a worker killed inside a remainder is found dead by
        the next call."""
        with create_transport("multiprocessing", size=2) as w:
            w.start_programs(ReplyEarlyProgram, [(1, 30.0)] * 2)
            t0 = time.perf_counter()
            assert w.call_all("work", [(np.ones(3),)] * 2) == [3.0, 3.0]
            assert time.perf_counter() - t0 < 5.0
            w._workers[1].proc.kill()
            with pytest.raises(RankFailedError) as err:
                w.call_all("report")
            assert err.value.rank == 1 and w.failed_ranks == {1}

    def test_heartbeat_covers_a_remainder_still_running(self):
        with create_transport("multiprocessing", size=2,
                              heartbeat=0.5) as w:
            w.start_programs(ReplyEarlyProgram, [(0, 30.0)] * 2)
            assert w.call_all("work", [(np.ones(3),)] * 2) == [3.0, 3.0]
            with pytest.raises(RankUnresponsiveError, match="heartbeat"):
                w.call_all("report")
            assert w.failed_ranks == {0}

    def test_message_plane_spawns_no_workers(self):
        with create_transport("multiprocessing", size=4) as w:
            w.comm(0).Send(np.zeros(8), dest=3)
            w.comm(3).Recv(source=0)
            assert w._workers is None


class TestRegistry:
    def test_resolve_explicit(self):
        assert resolve("transport", "inprocess") == "inprocess"
        with pytest.raises(ValueError, match="unknown transport"):
            resolve("transport", "carrier-pigeon")

    def test_resolve_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "multiprocessing")
        assert resolve("transport") == "multiprocessing"
        monkeypatch.delenv("REPRO_TRANSPORT")
        assert resolve("transport") == "inprocess"

    def test_available_contains_reference(self):
        assert [n for n in TRANSPORTS
                if transport_unavailable_reason(n) is None] == [
                    "inprocess", "multiprocessing"]

    def test_default_is_inprocess(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        with create_transport(size=2) as w:
            assert isinstance(w, InProcessTransport)
            assert w.name == "inprocess"

    def test_deleted_mpi4py_transport_is_unknown(self):
        with pytest.raises(ValueError, match="'inprocess', 'multiprocessing'"):
            create_transport("mpi4py", size=2)


# ---------------------------------------------------------------------------
# hypothesis: random schedules behave identically across backends
# ---------------------------------------------------------------------------
_send_op = st.tuples(
    st.integers(min_value=0, max_value=2),   # source
    st.integers(min_value=0, max_value=2),   # dest
    st.integers(min_value=0, max_value=4),   # tag
    st.integers(min_value=1, max_value=64),  # length
)


def _both_worlds():
    return [create_transport(name, size=3)
            for name in ("inprocess", "multiprocessing")]


class TestScheduleEquivalence:
    @given(schedule=st.lists(_send_op, min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_logs_and_payloads_identical(self, schedule):
        w_in, w_mp = _both_worlds()
        try:
            for i, (src, dst, tag, n) in enumerate(schedule):
                payload = np.arange(n, dtype=float) + i
                w_in.comm(src).Send(payload, dest=dst, tag=tag)
                w_mp.comm(src).Send(payload, dest=dst, tag=tag)
            assert _log(w_in) == _log(w_mp)
            for src, dst, tag, _ in schedule:
                got_in = w_in.comm(dst).Recv(source=src, tag=tag)
                got_mp = w_mp.comm(dst).Recv(source=src, tag=tag)
                np.testing.assert_array_equal(got_in, got_mp)
            for w in (w_in, w_mp):  # every message received, none left
                for src, dst, tag, _ in schedule:
                    with pytest.raises(MessageNotFoundError):
                        w.comm(dst).Recv(source=src, tag=tag)
        finally:
            w_in.close()
            w_mp.close()


# ---------------------------------------------------------------------------
# fault-injection matrix: typed failures agree, seeds {1, 7, 42}
# ---------------------------------------------------------------------------
FAULT_SEEDS = (1, 7, 42)


class TestFaultMatrix:
    @pytest.mark.parametrize("seed", FAULT_SEEDS)
    def test_rank_failure_same_typed_exception(self, seed):
        outcomes = []
        for name in ("inprocess", "multiprocessing"):
            inj = FaultInjector(seed=seed)
            inj.add("mpi.send", mode="rank_failure", probability=0.15,
                    rank=2)
            w = create_transport(name, size=4, fault_injector=inj)
            try:
                sent = 0
                failed_at = None
                for i in range(60):
                    try:
                        w.comm(i % 4).Send(np.zeros(4), dest=(i + 1) % 4)
                        sent += 1
                    except RankFailedError:
                        failed_at = i
                        break
                outcomes.append((sent, failed_at, tuple(w.failed_ranks)))
            finally:
                w.close()
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2] == (2,)

    @pytest.mark.parametrize("seed", FAULT_SEEDS)
    def test_worker_exception_types_match_inprocess(self, seed):
        """The mp control plane re-raises the same types the in-process
        backend raises for the same failing programs."""
        rng = np.random.default_rng(seed)
        kind = ["value", "zero", "rank", "message"][int(rng.integers(4))]
        raised = []
        for name in ("inprocess", "multiprocessing"):
            w = create_transport(name, size=2)
            try:
                w.start_programs(FailingProgram, [(1, kind), (1, kind)])
                with pytest.raises(Exception) as excinfo:
                    w.call_all("work")
                raised.append((type(excinfo.value).__name__,
                               str(excinfo.value)))
            finally:
                w.close()
        assert raised[0] == raised[1]
