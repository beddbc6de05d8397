"""Module-level rank programs used by the transport conformance suite.

Execution-plane factories must be picklable *by reference* so
out-of-process backends (multiprocessing) can ship them to
workers — hence these live at module level rather than inside tests.
They double as minimal examples of the rank-program protocol: a
factory ``f(rank, *args) -> program`` (the class itself) plus ordinary
methods invoked via :meth:`~repro.parallel.comm.Transport.call_all`.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.resilience.errors import MessageNotFoundError, RankFailedError

__all__ = [
    "ChainedFailingProgram",
    "EchoProgram",
    "FailingProgram",
    "ReplyEarlyProgram",
    "SleeperProgram",
]


class EchoProgram:
    """Stateful echo worker: proves where and how often it runs.

    ``pid()`` exposes the hosting process id (distinct across ranks on
    a true multi-core backend, identical on the in-process reference),
    ``bump()`` proves state persists between calls, and
    ``scale(arr, k)`` exercises the array payload path both ways.
    """

    def __init__(self, rank: int, base: float = 0.0):
        self.rank = rank
        self.base = float(base)
        self.calls = 0

    def pid(self) -> int:
        return os.getpid()

    def bump(self) -> int:
        self.calls += 1
        return self.calls

    def identity(self):
        return (self.rank, self.base)

    def scale(self, arr, k):
        self.calls += 1
        return np.asarray(arr) * k + self.base

    def roundtrip(self, arr):
        """Return the payload untouched plus a checksum (tuple path)."""
        a = np.asarray(arr)
        return a, float(a.sum())


class FailingProgram:
    """Raises a chosen exception type — exercises typed propagation,
    including the resilience taxonomy fault-handling code matches on."""

    EXCEPTIONS = {
        "value": ValueError,
        "zero": ZeroDivisionError,
        "runtime": RuntimeError,
        "rank": RankFailedError,
        "message": MessageNotFoundError,
    }

    def __init__(self, rank: int, failing_rank: int = 0, kind: str = "value"):
        self.rank = rank
        self.failing_rank = failing_rank
        self.kind = kind

    def work(self):
        if self.rank == self.failing_rank:
            raise self.EXCEPTIONS[self.kind](
                f"rank {self.rank} deliberate {self.kind} failure"
            )
        return self.rank


class ChainedFailingProgram:
    """Raises a typed exception explicitly chained from a root cause
    (``raise ... from ...``) — exercises ``__cause__``-chain and
    originating-rank propagation fidelity across transports, so
    recovery decisions see the real failure site."""

    def __init__(self, rank: int, failing_rank: int = 0):
        self.rank = rank
        self.failing_rank = failing_rank

    def work(self):
        if self.rank == self.failing_rank:
            try:
                raise KeyError("missing chemistry table entry")
            except KeyError as root:
                raise ValueError(
                    f"rank {self.rank} failed to assemble reaction rates"
                ) from root
        return self.rank


class SleeperProgram:
    """Blocks one rank for a configurable time — the genuine-hang probe
    the heartbeat/deadline liveness detection must catch."""

    def __init__(self, rank: int, sleeping_rank: int = 0,
                 seconds: float = 30.0):
        self.rank = rank
        self.sleeping_rank = sleeping_rank
        self.seconds = float(seconds)

    def work(self):
        if self.rank == self.sleeping_rank:
            time.sleep(self.seconds)
        return self.rank


class ReplyEarlyProgram:
    """Replies early: ``work(arr)`` yields its reply — the sum — and
    works on in the remainder, on the copy it took of ``arr``; ``arr``
    itself expired with the reply, and reading it anyway (``stale``, a
    deliberate bug) gives NaN on every backend. On ``late_rank`` the
    remainder takes ``seconds`` and fails, with no reply left to carry
    the failure."""

    def __init__(self, rank: int, late_rank: int = -1, seconds: float = 0.0):
        self.rank = rank
        self.late_rank = late_rank
        self.seconds = float(seconds)
        self.remainders = 0
        self.kept = self.stale = None

    def work(self, arr):
        kept = arr.copy()
        yield float(arr.sum())
        if self.rank == self.late_rank:
            time.sleep(self.seconds)
            raise ValueError(f"rank {self.rank} deliberate late failure")
        self.kept, self.stale = float(kept.sum()), float(arr.sum())
        self.remainders += 1

    def report(self):
        return self.remainders, self.kept, self.stale
