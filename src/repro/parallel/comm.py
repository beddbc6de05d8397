"""Pluggable MPI transport layer.

The communication backend of the parallel substrate is a swappable
layer beneath a fixed message-pattern contract, the structure real DNS
codes of this family use (Pencil Code, nekCRF): one halo/collective
protocol, several executions. :class:`Transport` defines the contract —
buffer-style point-to-point Send/Recv/Isend matched by (source,
tag), rank-failure signaling, the ``mpi.send`` rank-failure fault
site, and an *execution plane* (``start_programs`` / ``call_all``)
that runs per-rank stateful programs wherever the backend executes
ranks.

Backends
--------
* :class:`InProcessTransport` (name ``"inprocess"``, the default) — the
  deterministic single-process reference. All ranks execute
  cooperatively in the driver process; results are bit-exact and every
  fault schedule replays deterministically.
* :class:`~repro.parallel.shm.MultiprocessingTransport`
  (``"multiprocessing"``) — persistent spawn-safe worker processes, one
  per rank; program payloads move through ``SharedMemory`` buffers and
  a pickled pipe control plane, so rank programs actually run on
  separate cores.

Both are driver-routed: the rank programs own their blocks and one
driver process routes what they post. A real-MPI backend is SPMD and
needs a launcher that does not exist yet (docs/PARALLEL.md).

Selection is the ``transport`` knob of
:data:`repro.core.config.KNOBS` (:func:`create_transport`).

A message is delivered or its peer is dead: the plane models no loss
and no corruption, as an MPI program sees none. Every transfer is
recorded in a :class:`MessageLog` (source, dest, tag, bytes) — the
observable the §4 performance model and the §5 I/O layer consume. The conformance suite (``tests/test_transport_conformance.py``)
is the contract any new backend must pass.
"""

from __future__ import annotations

import inspect
from collections import defaultdict, deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import KNOBS, resolve
from repro.resilience.errors import (
    MessageNotFoundError,
    RankFailedError,
    RankUnresponsiveError,
)
from repro.resilience.faults import resolve_injector
from repro.telemetry import resolve as resolve_telemetry

__all__ = [
    "TRANSPORTS",
    "MessageRecord",
    "MessageLog",
    "RankComm",
    "Transport",
    "InProcessTransport",
    "TransportUnavailableError",
    "create_transport",
    "transport_unavailable_reason",
]

#: registered transport backend names
TRANSPORTS = KNOBS["transport"].choices


class TransportUnavailableError(RuntimeError):
    """A transport backend cannot run in this environment (e.g. the
    platform has no ``multiprocessing.shared_memory``)."""


@dataclass
class MessageRecord:
    source: int
    dest: int
    tag: int
    nbytes: int


@dataclass
class MessageLog:
    """Accounting of all messages through a :class:`Transport` world."""

    records: list = field(default_factory=list)

    def record(self, source: int, dest: int, tag: int, nbytes: int) -> None:
        self.records.append(MessageRecord(source, dest, tag, nbytes))

    @property
    def total_bytes(self) -> int:
        return sum(r.nbytes for r in self.records)

    @property
    def count(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()


class RankComm:
    """Communicator handle for one rank of a :class:`Transport` world."""

    def __init__(self, world: "Transport", rank: int):
        self.world = world
        self.rank = rank

    @property
    def size(self) -> int:
        return self.world.size

    # -- point to point -------------------------------------------------
    def Send(self, array, dest: int, tag: int = 0) -> None:
        """Deposit a copy of ``array`` into ``dest``'s mailbox."""
        self.world._send(self.rank, dest, tag, np.array(array, copy=True))

    def Recv(self, source: int, tag: int = 0):
        """Pop the oldest matching message; raises if none pending."""
        return self.world._recv(self.rank, source, tag)

    def Isend(self, array, dest: int, tag: int = 0) -> None:
        """Non-blocking send — same as Send under bulk-synchronous phases."""
        self.Send(array, dest, tag)


def _annotate_rank(exc: BaseException, rank: int) -> None:
    """Attach the originating rank to a program exception (best effort:
    some exception types forbid new attributes)."""
    try:
        if getattr(exc, "rank", None) is None:
            exc.rank = rank
    except Exception:
        pass


def _reply_early(result) -> tuple:
    """``(reply, remainder)`` of what a program method returned; a
    plain method has no remainder (``None``)."""
    if inspect.isgenerator(result):
        return next(result), result
    return result, None


def _expire(args) -> None:
    """Poison the array arguments of a reply-early method once it has
    replied (an out-of-process backend reuses their memory for the next
    command): a remainder that still reads one computes NaN on every
    backend instead of racing on one."""
    for a in args:
        if isinstance(a, np.ndarray) and a.dtype.kind == "f":
            a.fill(np.nan)


class Transport:
    """Communication + execution backend for a world of ranks: the
    contract, and what every backend shares (:meth:`comm`);
    :class:`InProcessTransport` implements the rest, and the
    multiprocessing backend specialises it.

    The message-plane contract (identical across backends, asserted by
    the conformance suite):

    * point-to-point: FIFO per (source, dest, tag) channel; ``Recv``
      with no matching pending message raises
      :class:`~repro.resilience.errors.MessageNotFoundError`; a
      ``source`` or ``dest`` outside the world raises ``ValueError``.
    * failure: :meth:`fail_rank` marks a rank dead; every subsequent
      operation touching it raises
      :class:`~repro.resilience.errors.RankFailedError`.
    * faults: the world owns a
      :class:`~repro.resilience.faults.FaultInjector`; sends consult the
      ``mpi.send`` site (``rank_failure`` only: a message is delivered
      or its peer is dead; any other mode raises ``ValueError``).
    * accounting: every delivered send is recorded in
      :attr:`log`, a :class:`MessageLog`, with identical records across
      backends for the same schedule.

    The execution-plane contract: :meth:`start_programs` instantiates
    one stateful *rank program* per rank (``factory(rank, *args)``,
    picklable by reference for out-of-process backends);
    :meth:`call_all` invokes a method on every rank's program — wherever
    the backend runs ranks — and returns per-rank results in rank
    order; exceptions raised inside a program propagate to the caller
    with their original type where the type is importable. A failed
    rank's program raises :class:`RankFailedError` instead of running.

    *Reply early*: a program method written as a generator replies with
    the first value it yields and does the rest of its work — the
    remainder — after the reply has left: an out-of-process backend runs
    it before the rank reads its next command (overlapping whatever the
    driver and the other ranks do with the reply), the in-process
    reference on the spot. Array arguments are valid until the reply
    only (:func:`_expire`) and a reply must not alias them; an exception
    raised in a remainder surfaces in place of that rank's *next* reply.
    """

    #: registry name of the backend
    name = "abstract"

    size: int

    # -- handles -----------------------------------------------------------
    def comm(self, rank: int) -> RankComm:
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        return RankComm(self, rank)

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InProcessTransport(Transport):
    """The deterministic in-process reference backend (``"inprocess"``).

    A simulated MPI world of ``size`` ranks in one process: sends
    deposit numpy arrays into per-destination mailboxes keyed by
    (dest, source, tag); receives pop them in order. Because ranks are
    driven in lockstep phases (post sends, then receive), the
    nearest-neighbour exchange patterns of S3D map 1:1, and every
    result — message log included — is bit-exact run to run.

    Fault injection (off by default, zero-cost when disabled): pass a
    :class:`~repro.resilience.faults.FaultInjector` and arm rules at
    the ``mpi.send`` site — ``rank_failure`` kills the sending rank
    (or ``detail={"rank": r}``); a failed rank makes every subsequent
    operation touching it raise :class:`RankFailedError`.

    Rank programs (:meth:`start_programs`) are plain objects held by
    the driver; :meth:`call_all` runs them serially in rank order —
    rank counts model scaling but buy no wall-clock, which is exactly
    what makes this backend the bitwise reference.
    """

    name = "inprocess"

    def __init__(self, size: int, fault_injector=None, telemetry=None):
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = int(size)
        self.faults = resolve_injector(fault_injector)
        self.telemetry = resolve_telemetry(telemetry)
        self._mailboxes: dict = defaultdict(deque)
        self.log = MessageLog()
        self._failed_ranks: set = set()
        self._programs: list | None = None
        self._build = None  # per-rank program builder, kept for revival
        self._late: dict = {}  # rank -> exception its last remainder raised

    # -- rank failure ------------------------------------------------------
    def fail_rank(self, rank: int) -> None:
        """Mark ``rank`` as failed: every later operation touching it
        raises :class:`RankFailedError` (the MPI world view of a dead
        node)."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        self._failed_ranks.add(rank)

    @property
    def failed_ranks(self) -> set:
        return set(self._failed_ranks)

    def revive_ranks(self, ranks) -> None:
        """Clear failed flags and rebuild the ranks' programs from the
        builder captured at :meth:`start_programs`; revived programs
        start cold, so the caller reinstalls state from a checkpoint."""
        for rank in ranks:
            if not 0 <= rank < self.size:
                raise ValueError(f"rank {rank} out of range [0, {self.size})")
        for rank in sorted(set(int(r) for r in ranks)):
            self._failed_ranks.discard(rank)
            self._late.pop(rank, None)
            if self._programs is not None and self._build is not None:
                self._programs[rank] = self._build(rank)

    def reset_channels(self) -> None:
        """Purge the mailboxes after a mid-exchange failure, so a
        recovered run does not consume the abandoned step's traffic."""
        self._mailboxes.clear()

    def _check_alive(self, rank: int, role: str) -> None:
        if rank in self._failed_ranks:
            raise RankFailedError(f"{role} rank {rank} has failed")

    # -- message-plane internals -------------------------------------------
    def _send(self, source: int, dest: int, tag: int, array) -> None:
        if not 0 <= dest < self.size:
            raise ValueError(f"destination rank {dest} out of range")
        self._check_alive(source, "source")
        self._check_alive(dest, "destination")
        if self.faults.enabled:
            spec = self.faults.decide("mpi.send")
            if spec is not None:
                if spec.mode != "rank_failure":
                    raise ValueError(
                        f"fault site 'mpi.send' has no mode {spec.mode!r}; "
                        f"it implements 'rank_failure' only"
                    )
                victim = int(spec.detail.get("rank", source))
                self.fail_rank(victim)
                raise RankFailedError(
                    f"rank {victim} failed during send "
                    f"({source} -> {dest}, tag {tag})"
                )
        self._mailboxes[(dest, source, tag)].append(array)
        self.log.record(source, dest, tag, array.nbytes)

    def _recv(self, rank: int, source: int, tag: int):
        if not 0 <= source < self.size:
            raise ValueError(f"source rank {source} out of range")
        self._check_alive(rank, "receiving")
        self._check_alive(source, "source")
        box = self._mailboxes.get((rank, source, tag))
        if not box:
            pending = {
                (s, t): len(q)
                for (d, s, t), q in self._mailboxes.items()
                if d == rank and q
            }
            state = (
                ", ".join(f"from rank {s} tag {t}: {n} queued"
                          for (s, t), n in sorted(pending.items()))
                or "mailbox empty"
            )
            raise MessageNotFoundError(
                f"rank {rank}: no pending message from rank {source} with "
                f"tag {tag} (pending for rank {rank}: {state})"
            )
        return box.popleft()

    # -- execution plane ---------------------------------------------------
    def start_programs(self, factory, per_rank_args=None,
                       local_factory=None) -> None:
        """Instantiate one rank program per rank, in the driver process.

        ``factory(rank, *per_rank_args[rank])`` builds rank ``rank``'s
        program. ``local_factory(rank)``, when given, is preferred by
        in-process backends — it may close over live driver-process
        objects (e.g. a shared telemetry backend) that out-of-process
        backends cannot share; those backends ignore it and use the
        picklable ``factory`` path.
        """
        args = per_rank_args or [() for _ in range(self.size)]
        if len(args) != self.size:
            raise ValueError(
                f"need per-rank args for {self.size} ranks, got {len(args)}"
            )
        build = local_factory if local_factory is not None else (
            lambda rank: factory(rank, *args[rank])
        )
        self._build = build
        self._late.clear()
        self._programs = [build(rank) for rank in range(self.size)]

    def _require_programs(self) -> list:
        if self._programs is None:
            raise RuntimeError(
                "no rank programs started; call start_programs() first"
            )
        return self._programs

    def _invoke(self, rank: int, method: str, args):
        """Run one program method to its reply, then its remainder."""
        late = self._late.pop(rank, None)
        if late is not None:
            raise late
        fn = getattr(self._programs[rank], method)
        if inspect.isgeneratorfunction(fn):
            # the caller's arrays must survive the reply; the method's
            # own copies expire with it
            args = [a.copy() if isinstance(a, np.ndarray) else a
                    for a in args]
        try:
            reply, remainder = _reply_early(fn(*args))
            if remainder is not None:
                _expire(args)
                try:
                    for _ in remainder:
                        pass
                except Exception as exc:
                    _annotate_rank(exc, rank)
                    self._late[rank] = exc
            return reply
        except BaseException as exc:
            _annotate_rank(exc, rank)
            raise

    def _begin_call(self, payloads) -> tuple:
        """What every backend's collective call checks first: one
        payload per rank (``None``: none), every rank alive, then the
        ``exec.call`` site, once. Returns the payloads and ``None`` or
        the fault ``(mode, victim)`` (``rank=r``, default 0) for the
        backend to carry out; a mode other than ``rank_failure`` or
        ``hang`` raises ``ValueError`` before a rank is touched."""
        if payloads is None:
            payloads = [() for _ in range(self.size)]
        if len(payloads) != self.size:
            raise ValueError(
                f"need one payload per rank ({self.size}), got {len(payloads)}"
            )
        for rank in range(self.size):
            self._check_alive(rank, "executing")
        spec = self.faults.decide("exec.call") if self.faults.enabled else None
        if spec is None:
            return payloads, None
        if spec.mode not in ("rank_failure", "hang"):
            raise ValueError(
                f"fault site 'exec.call' has no mode {spec.mode!r}; it "
                f"implements 'rank_failure' and 'hang' only"
            )
        return payloads, (spec.mode, int(spec.detail.get("rank", 0)) % self.size)

    def call_all(self, method: str, payloads=None) -> list:
        """Invoke ``method`` on every rank's program, serially in rank
        order; returns per-rank results. An ``exec.call`` fault fails
        its victim: ``rank_failure`` raises :class:`RankFailedError`,
        ``hang`` a :class:`RankUnresponsiveError` — the same typed error
        a real missed heartbeat produces on out-of-process backends."""
        self._require_programs()
        payloads, fault = self._begin_call(payloads)
        if fault is not None:
            mode, victim = fault
            self.fail_rank(victim)
            if mode == "hang":
                raise RankUnresponsiveError(
                    f"rank {victim} stopped responding during a collective "
                    f"call")
            raise RankFailedError(
                f"rank {victim} died during a collective call")
        return [self._invoke(rank, method, payloads[rank])
                for rank in range(self.size)]

    def close(self) -> None:
        """Release backend resources (workers, shared memory). Idempotent."""
        self._programs = None


# ---------------------------------------------------------------------------
# registry / selection
# ---------------------------------------------------------------------------
def transport_unavailable_reason(name: str) -> str | None:
    """None when backend ``name`` can run here, else a human reason
    (the skip-with-reason string the CI transport lane prints)."""
    if resolve("transport", name) == "multiprocessing":
        try:
            import repro.parallel.shm  # noqa: F401
        except ImportError as exc:
            return f"multiprocessing transport cannot be imported: {exc}"
    return None


def create_transport(name: str | None = None, size: int = 1,
                     fault_injector=None, **kwargs) -> Transport:
    """Build a transport backend by the ``transport`` knob.

    Extra keyword arguments are backend-specific (e.g. ``context=`` for
    the multiprocessing backend). Raises
    :class:`TransportUnavailableError` when the backend cannot run in
    this environment.
    """
    name = resolve("transport", name)
    reason = transport_unavailable_reason(name)
    if reason is not None:
        raise TransportUnavailableError(reason)
    if name == "inprocess":
        return InProcessTransport(size, fault_injector=fault_injector,
                                  **kwargs)
    from repro.parallel.shm import MultiprocessingTransport

    return MultiprocessingTransport(size, fault_injector=fault_injector,
                                    **kwargs)
