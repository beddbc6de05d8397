"""Shared-memory multiprocessing transport: ranks on separate cores.

:class:`MultiprocessingTransport` is the ``"multiprocessing"`` backend
of the pluggable transport layer (:mod:`repro.parallel.comm`). The
message plane — mailboxes, fault injection, message-log
accounting — is the driver-owned deterministic machinery inherited from
:class:`~repro.parallel.comm.InProcessTransport`, so every schedule,
fault replay, and byte count is identical to the reference backend.
The *execution plane* is where the backends diverge: rank programs run
in persistent spawn-safe worker processes, one per rank, so
``call_all`` fans per-rank compute
(the RHS evaluations that dominate DNS wall-clock) out across cores.

Data path
---------
Program payloads and results move through per-worker
:class:`~multiprocessing.shared_memory.SharedMemory` segments — the
owned conserved blocks and ghost slabs are written into the worker's
inbound segment and the edge slabs and owned results come back through
the worker's outbound segment, so no large array is ever pickled.
The control plane is a pickled pipe protocol: small command tuples
(method name, array shapes/dtypes/offsets, inline scalars) keep the
per-call overhead to one ``send``/``recv`` pair per worker.

Array arguments reach a program method as *views into the inbound
segment*, which the driver overwrites with the next command's payload:
they are valid until the method's reply only. A method that replies
early (:class:`~repro.parallel.comm.Transport`) copies what its
remainder needs before it yields; the worker poisons the views as the
reply leaves, like the in-process reference does its copies.

Failure semantics
-----------------
Exceptions raised inside a rank program are shipped back as a typed
identity record — module, qualname, message, originating rank, and the
``__cause__`` chain — and re-raised in the driver with their original
type when that type is importable (the resilience taxonomy —
:class:`~repro.resilience.errors.RankFailedError`,
:class:`~repro.resilience.errors.MessageNotFoundError`, … — always is),
so fault handling code behaves identically on every transport and sees
the real failure site (``exc.rank``) and root cause. An exception raised
in a remainder is held and shipped as the rank's next reply (the call it
displaces is not run: one reply per command, always); a worker killed
inside a remainder is found dead by the next dispatch or collect, whose
heartbeat deadline also covers a remainder still running. A worker process
that dies marks its rank failed and raises :class:`WorkerCrashedError`,
a :class:`RankFailedError` subclass; a worker that misses the optional
heartbeat deadline (``heartbeat=`` / ``REPRO_HEARTBEAT``) is killed and
surfaces as :class:`~repro.resilience.errors.RankUnresponsiveError`
instead of blocking the driver forever.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
import warnings
import weakref
from multiprocessing import shared_memory

import numpy as np

from repro.core.config import resolve
from repro.parallel.comm import (
    InProcessTransport,
    _annotate_rank,
    _expire,
    _reply_early,
)
from repro.resilience.errors import RankFailedError, RankUnresponsiveError

__all__ = [
    "MultiprocessingTransport",
    "WorkerCrashedError",
    "WorkerError",
]

#: initial per-direction SharedMemory segment size [bytes]
INITIAL_SEGMENT = 1 << 20

#: warn-once flag for CPU oversubscription (module-level: one warning
#: per process, however many transports are built)
_OVERSUB_WARNED = False

#: array offsets inside a segment are aligned to this many bytes
ALIGN = 64

#: exception modules trusted for typed re-raise in the driver
_SAFE_EXC_PREFIXES = ("builtins", "numpy", "repro.")


class WorkerError(RuntimeError):
    """A rank program raised an exception whose type could not be
    reconstructed in the driver; carries the original type and text."""


class WorkerCrashedError(RankFailedError):
    """A transport worker process died (the multiprocessing view of a
    dead node); the rank is marked failed."""


def _align(offset: int) -> int:
    return (offset + ALIGN - 1) & ~(ALIGN - 1)


def _split_payload(args) -> tuple:
    """Split positional args into shm-bound arrays and inline objects.

    Returns ``(specs, packs, total)``: ``specs`` describes each arg in
    order — ``("arr", shape, dtype_str, offset)`` for numpy arrays
    (packed into shared memory at ``offset``) or ``("obj", value)`` for
    anything else (pickled inline with the control message);
    ``packs`` holds ``(offset, contiguous_array)`` pairs and ``total``
    the segment bytes required.
    """
    specs, packs, offset = [], [], 0
    for a in args:
        if isinstance(a, np.ndarray) and a.dtype != object:
            arr = np.ascontiguousarray(a)
            offset = _align(offset)
            specs.append(("arr", arr.shape, arr.dtype.str, offset))
            packs.append((offset, arr))
            offset += arr.nbytes
        else:
            specs.append(("obj", a))
    return specs, packs, offset


def _write_packs(shm, packs) -> None:
    for offset, arr in packs:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf,
                          offset=offset)
        view[...] = arr


def _read_specs(specs, shm, copy: bool):
    """Rebuild the positional args/results described by ``specs``."""
    out = []
    for spec in specs:
        if spec[0] == "arr":
            _, shape, dtype, offset = spec
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf,
                              offset=offset)
            out.append(np.array(view, copy=True) if copy else view)
        else:
            out.append(spec[1])
    return out


#: maximum ``__cause__`` chain depth shipped back to the driver
_MAX_CAUSE_DEPTH = 4


def _exc_info(exc: BaseException, rank: int, depth: int = 0) -> dict:
    """Picklable identity record of a worker exception, including its
    ``__cause__`` chain and originating rank."""
    info = {
        "module": type(exc).__module__,
        "qualname": type(exc).__qualname__,
        "message": str(exc),
        # scalar arguments (a typed error's fields) travel as they are
        "args": (exc.args if all(isinstance(a, (int, float, str))
                                 for a in exc.args) else None),
        "rank": rank,
        "cause": None,
    }
    if exc.__cause__ is not None and depth < _MAX_CAUSE_DEPTH:
        info["cause"] = _exc_info(exc.__cause__, rank, depth + 1)
    return info


def _rebuild_exception(info: dict):
    """Re-raise-able exception instance from its shipped identity,
    with the ``__cause__`` chain and originating rank restored."""
    module, qualname = info["module"], info["qualname"]
    message = info["message"]
    exc = None
    if module == "builtins" or any(
        module == p or module.startswith(p) for p in _SAFE_EXC_PREFIXES
    ):
        try:
            import importlib

            obj = importlib.import_module(module)
            for part in qualname.split("."):
                obj = getattr(obj, part)
            if isinstance(obj, type) and issubclass(obj, BaseException):
                args = info.get("args")
                exc = obj(message) if args is None else obj(*args)
        except Exception:
            exc = None
    if exc is None:
        exc = WorkerError(f"{module}.{qualname}: {message}")
    if info.get("cause") is not None:
        exc.__cause__ = _rebuild_exception(info["cause"])
    if info.get("rank") is not None:
        _annotate_rank(exc, int(info["rank"]))
    return exc


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _pin_to_core(rank: int) -> None:
    """One rank per core, as S3D runs (§2.6): confine this worker to the
    ``rank``-th core of the mask it inherited (round-robin when ranks
    outnumber cores). A rank's calls are short — a few ms, woken by the
    driver each time — and the kernel's wake-affine placement otherwise
    stacks the workers on the driver's core for whole stretches of a
    run: measured on 2 cores, a 2-rank step was bimodal, 57 or 110 ms,
    and is 57-60 ms pinned."""
    if hasattr(os, "sched_setaffinity"):
        cores = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cores[rank % len(cores)]})


def _worker_main(rank: int, conn) -> None:
    """Worker loop: init a rank program, serve method calls over shm.

    Runs in a spawned process. Messages (all pickled tuples on the
    pipe): ``("init", factory, args)``, ``("attach_in", name)``,
    ``("call", method, specs)``, ``("hang", seconds)`` (sleep without
    replying — the injected-hang probe the heartbeat deadline must
    catch), ``("close",)``. Replies: ``("ok", kind, specs, out_name)``
    or ``("error", info)`` with the exception identity record. A
    remainder runs right after its reply is sent.
    """
    program = None
    late = None  # identity record of what the last remainder raised
    shm_in = None
    shm_out = None
    _pin_to_core(rank)
    try:
        while True:
            msg = conn.recv()
            kind = msg[0]
            if kind == "close":
                break
            if kind == "attach_in":
                if shm_in is not None:
                    shm_in.close()
                shm_in = shared_memory.SharedMemory(name=msg[1])
                continue
            if kind == "hang":
                # injected hang: a reply is owed but never sent — the
                # driver-side deadline is the only way out
                time.sleep(float(msg[1]))
                continue
            try:
                if kind == "init":
                    _, factory, args = msg
                    program = factory(rank, *args)
                    conn.send(("ok", "single", [("obj", None)], None))
                    continue
                if kind != "call":
                    raise RuntimeError(f"unknown worker command {kind!r}")
                if late is not None:
                    late, info = None, late
                    conn.send(("error", info))
                    continue
                _, method, specs = msg
                args = _read_specs(specs, shm_in, copy=False)
                result, remainder = _reply_early(
                    getattr(program, method)(*args))
                if isinstance(result, tuple):
                    out_kind, parts = "tuple", result
                else:
                    out_kind, parts = "single", (result,)
                out_specs, packs, total = _split_payload(parts)
                name = None
                if packs:
                    if shm_out is None or shm_out.size < total:
                        if shm_out is not None:
                            shm_out.close()
                            shm_out.unlink()
                        shm_out = shared_memory.SharedMemory(
                            create=True,
                            size=max(total, INITIAL_SEGMENT,
                                     (shm_out.size * 2) if shm_out else 0),
                        )
                    _write_packs(shm_out, packs)
                    name = shm_out.name
                if remainder is not None:
                    # before the reply leaves: after it the segment is
                    # the driver's to fill with the next command
                    _expire(args)
                conn.send(("ok", out_kind, out_specs, name))
            except BaseException as exc:  # ship to driver, keep serving
                conn.send(("error", _exc_info(exc, rank)))
                continue
            if remainder is not None:
                try:
                    for _ in remainder:
                        pass
                except Exception as exc:
                    late = _exc_info(exc, rank)
    finally:
        if shm_in is not None:
            shm_in.close()
        if shm_out is not None:
            shm_out.close()
            try:
                shm_out.unlink()
            except FileNotFoundError:
                pass
        conn.close()


class _WorkerHandle:
    """Driver-side bookkeeping for one worker process."""

    __slots__ = ("proc", "conn", "shm_in", "shm_out", "busy")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.shm_in = None   # driver-created inbound segment
        self.shm_out = None  # attachment to the worker-created outbound
        self.busy = False

    def release(self) -> None:
        if self.shm_in is not None:
            self.shm_in.close()
            try:
                self.shm_in.unlink()
            except FileNotFoundError:
                pass
            self.shm_in = None
        if self.shm_out is not None:
            self.shm_out.close()
            self.shm_out = None


#: live transports closed by the atexit sweep (weak: close() drops them)
_LIVE: "weakref.WeakSet" = weakref.WeakSet()


@atexit.register
def _close_live_transports() -> None:
    for t in list(_LIVE):
        t.close()


class MultiprocessingTransport(InProcessTransport):
    """Worker-pool transport: shared message plane, parallel execution.

    Parameters
    ----------
    size:
        Rank count; one worker process per rank.
    fault_injector:
        As for :class:`~repro.parallel.comm.InProcessTransport`; the
        injector lives in the driver, so schedules replay exactly as on
        the in-process backend.
    context:
        Multiprocessing start method (default ``"spawn"`` — safe with
        threaded BLAS; ``"fork"``/``"forkserver"`` accepted).
    heartbeat:
        Liveness deadline in seconds for worker replies on the pipe
        control plane. While a dispatched call is outstanding, a worker
        that neither replies nor exits within this window is killed and
        its rank surfaces as
        :class:`~repro.resilience.errors.RankUnresponsiveError` — a
        *hung* node becomes a typed, recoverable failure instead of
        blocking the driver forever. This is the ``heartbeat`` knob
        (``REPRO_HEARTBEAT``); 0 (the default) disables the deadline.
        Program initialization is exempt (spawn + import time is not a
        liveness signal).
    telemetry:
        Telemetry backend for transport-level gauges (e.g.
        ``transport.oversubscribed``).

    Workers are lazy: a transport used only for its message plane (the
    conformance battery, halo exchanges, chemlb shipping) spawns no
    processes. The pool starts on the first :meth:`start_programs`.
    Requesting more ranks than ``os.cpu_count()`` is allowed — ranks
    time-share cores — but warns once per process and records the
    excess in the ``transport.oversubscribed`` gauge.
    """

    name = "multiprocessing"

    def __init__(self, size: int, fault_injector=None,
                 context: str = "spawn", heartbeat: float | None = None,
                 telemetry=None):
        super().__init__(size, fault_injector=fault_injector,
                         telemetry=telemetry)
        self._ctx = multiprocessing.get_context(context)
        self._workers: list | None = None
        self._closed = False
        self.heartbeat = resolve("heartbeat", heartbeat)
        self._factory = None   # pickled program factory, kept for revival
        self._args = None
        _LIVE.add(self)

    # -- pool lifecycle ----------------------------------------------------
    def _spawn_worker(self, rank: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(rank, child_conn),
            name=f"repro-transport-rank{rank}", daemon=True,
        )
        proc.start()
        child_conn.close()
        return _WorkerHandle(proc, parent_conn)

    def _check_oversubscription(self) -> None:
        global _OVERSUB_WARNED
        ncpu = os.cpu_count() or 1
        if self.size <= ncpu:
            return
        self.telemetry.gauge("transport.oversubscribed").set(
            self.size - ncpu)
        if not _OVERSUB_WARNED:
            _OVERSUB_WARNED = True
            warnings.warn(
                f"multiprocessing transport oversubscribed: {self.size} "
                f"ranks on {ncpu} usable CPU core(s); ranks will "
                f"time-share cores and per-call latency grows "
                f"accordingly",
                RuntimeWarning, stacklevel=4,
            )

    def _ensure_workers(self) -> list:
        if self._closed:
            raise RuntimeError("transport is closed")
        if self._workers is None:
            self._check_oversubscription()
            self._workers = [self._spawn_worker(rank)
                             for rank in range(self.size)]
        return self._workers

    def close(self) -> None:
        """Stop workers and release shared memory. Idempotent."""
        if self._closed:
            return
        self._closed = True
        _LIVE.discard(self)
        workers, self._workers = self._workers, None
        if not workers:
            return
        for h in workers:
            try:
                h.conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for h in workers:
            h.proc.join(timeout=5.0)
            if h.proc.is_alive():
                h.proc.terminate()
                h.proc.join(timeout=5.0)
            try:
                h.conn.close()
            except OSError:
                pass
            h.release()

    def __del__(self):  # best-effort: atexit sweep is the reliable path
        try:
            self.close()
        except Exception:
            pass

    # -- shm helpers -------------------------------------------------------
    def _ensure_in_segment(self, h: _WorkerHandle, nbytes: int) -> None:
        if h.shm_in is not None and h.shm_in.size >= nbytes:
            return
        new_size = max(nbytes, INITIAL_SEGMENT,
                       (h.shm_in.size * 2) if h.shm_in is not None else 0)
        new = shared_memory.SharedMemory(create=True, size=new_size)
        h.conn.send(("attach_in", new.name))
        if h.shm_in is not None:
            h.shm_in.close()
            try:
                h.shm_in.unlink()
            except FileNotFoundError:
                pass
        h.shm_in = new

    def _attach_out(self, h: _WorkerHandle, name):
        if name is None:
            return None
        if h.shm_out is None or h.shm_out.name != name:
            if h.shm_out is not None:
                h.shm_out.close()
            h.shm_out = shared_memory.SharedMemory(name=name)
        return h.shm_out

    # -- dispatch/collect --------------------------------------------------
    def _crash(self, rank: int) -> WorkerCrashedError:
        self.fail_rank(rank)
        h = self._workers[rank]
        h.busy = False
        exc = WorkerCrashedError(
            f"worker process for rank {rank} died "
            f"(exitcode {h.proc.exitcode})"
        )
        _annotate_rank(exc, rank)
        return exc

    def _hung(self, rank: int) -> RankUnresponsiveError:
        """A worker missed the heartbeat deadline: kill it, fail the
        rank, and hand back the typed liveness error."""
        self.fail_rank(rank)
        h = self._workers[rank]
        h.busy = False
        h.proc.kill()
        h.proc.join(timeout=5.0)
        exc = RankUnresponsiveError(
            f"worker for rank {rank} missed the {self.heartbeat:g} s "
            f"heartbeat deadline (process killed)"
        )
        _annotate_rank(exc, rank)
        return exc

    def _dispatch(self, rank: int, method: str, args):
        """Send a call to rank's worker; returns None, or the
        WorkerCrashedError when the worker is already dead."""
        h = self._workers[rank]
        try:
            specs, packs, total = _split_payload(args)
            if packs:
                self._ensure_in_segment(h, total)
                _write_packs(h.shm_in, packs)
            h.conn.send(("call", method, specs))
        except (BrokenPipeError, OSError):
            return self._crash(rank)
        h.busy = True
        return None

    def _collect(self, rank: int):
        """Wait for rank's reply; returns the result or the exception.

        With a positive ``heartbeat`` and a dispatched call outstanding
        (``h.busy``), the blocking receive becomes a poll loop against
        a monotonic deadline: a worker that neither replies nor exits
        in time is treated as hung (:meth:`_hung`). Initialization
        replies are exempt — spawn and import time is not liveness.
        """
        h = self._workers[rank]
        try:
            if self.heartbeat > 0 and h.busy:
                deadline = time.monotonic() + self.heartbeat
                while not h.conn.poll(min(0.05, self.heartbeat)):
                    if not h.proc.is_alive():
                        break  # crashed: fall through to the EOF path
                    if time.monotonic() >= deadline:
                        return self._hung(rank)
            reply = h.conn.recv()
        except (EOFError, OSError):
            return self._crash(rank)
        h.busy = False
        if reply[0] == "error":
            return _rebuild_exception(reply[1])
        _, kind, specs, out_name = reply
        shm = self._attach_out(h, out_name)
        parts = _read_specs(specs, shm, copy=True)
        return tuple(parts) if kind == "tuple" else parts[0]

    # -- fault injection (real process-level effects) ----------------------
    def _carry_out(self, fault):
        """``exec.call`` faults (``None`` or ``(mode, victim)``, decided
        by :meth:`_begin_call`) take their *real* effect here: a
        ``rank_failure`` actually kills the victim's worker process (so
        the genuine crash-detection path fires), and a ``hang`` with an
        armed heartbeat makes the worker sleep through its deadline (so
        the genuine liveness path fires). Without live workers or an
        armed heartbeat, fall back to the driver-raised simulation of
        the in-process reference.
        """
        if fault is None:
            return ()
        mode, victim = fault
        if mode == "hang":
            if self.heartbeat > 0 and self._workers is not None:
                return (victim,)
            self.fail_rank(victim)
            raise RankUnresponsiveError(
                f"rank {victim} stopped responding during a collective call"
            )
        if self._workers is not None:
            h = self._workers[victim]
            h.proc.kill()
            h.proc.join(timeout=5.0)
            return ()  # the crash surfaces through dispatch/collect
        self.fail_rank(victim)
        raise RankFailedError(
            f"rank {victim} died during a collective call"
        )

    def _hang_worker(self, rank: int):
        """Send the hang command instead of the scheduled call; the
        worker owes a reply it will never send, so :meth:`_collect`
        times out against the heartbeat deadline."""
        h = self._workers[rank]
        try:
            h.conn.send(("hang", self.heartbeat * 8 + 1.0))
        except (BrokenPipeError, OSError):
            return self._crash(rank)
        h.busy = True
        return None

    # -- revival -----------------------------------------------------------
    def revive_ranks(self, ranks) -> None:
        """Respawn the failed ranks' worker processes and re-initialize
        their programs from the recipe captured at
        :meth:`start_programs`; revived programs start cold, so the
        caller reinstalls state from a checkpoint."""
        if self._closed:
            raise RuntimeError("transport is closed")
        for rank in ranks:
            if not 0 <= rank < self.size:
                raise ValueError(f"rank {rank} out of range [0, {self.size})")
        for rank in sorted(set(int(r) for r in ranks)):
            self._failed_ranks.discard(rank)
            if self._workers is None:
                continue
            h = self._workers[rank]
            if h.proc.is_alive():
                h.proc.kill()
            h.proc.join(timeout=5.0)
            try:
                h.conn.close()
            except OSError:
                pass
            h.release()
            self._workers[rank] = self._spawn_worker(rank)
            if self._programs is not None and self._factory is not None:
                self._workers[rank].conn.send(
                    ("init", self._factory, tuple(self._args[rank]))
                )
                got = self._collect(rank)
                if isinstance(got, BaseException):
                    raise got

    # -- execution plane ---------------------------------------------------
    def start_programs(self, factory, per_rank_args=None,
                       local_factory=None) -> None:
        """Instantiate rank programs inside the worker processes.

        ``factory`` and every entry of ``per_rank_args`` must pickle
        (factories by reference: module-level classes/functions).
        ``local_factory`` — an in-process-only optimization hook — is
        ignored here: worker-resident programs cannot close over driver
        objects.
        """
        args = per_rank_args or [() for _ in range(self.size)]
        if len(args) != self.size:
            raise ValueError(
                f"need per-rank args for {self.size} ranks, got {len(args)}"
            )
        workers = self._ensure_workers()
        # keep the picklable recipe: revive_ranks re-initializes a
        # respawned worker from exactly what the original one got
        self._factory = factory
        self._args = [tuple(a) for a in args]
        crashed = [None] * self.size
        for rank in range(self.size):
            try:
                workers[rank].conn.send(("init", factory, tuple(args[rank])))
            except (BrokenPipeError, OSError):
                crashed[rank] = self._crash(rank)
        errors = []
        for rank in range(self.size):
            got = crashed[rank]
            if got is None:
                got = self._collect(rank)
            if isinstance(got, BaseException):
                errors.append((rank, got))
        if errors:
            rank, exc = errors[0]
            raise exc
        self._programs = ()  # sentinel: programs exist, remotely

    def _require_started(self) -> list:
        if self._programs is None:
            raise RuntimeError(
                "no rank programs started; call start_programs() first"
            )
        return self._ensure_workers()

    def call_all(self, method: str, payloads=None) -> list:
        """Invoke ``method`` on every rank's program, concurrently
        across the worker pool; returns per-rank results in rank order.

        Raises :class:`RankFailedError` without running any program if
        a rank is already failed; a typed exception raised by one
        program is re-raised after every reply is drained (pipes stay
        in sync for subsequent calls).
        """
        self._require_started()
        payloads, fault = self._begin_call(payloads)
        hang = self._carry_out(fault)
        results = [None] * self.size
        for rank in range(self.size):
            if rank in hang:
                results[rank] = self._hang_worker(rank)
            else:
                results[rank] = self._dispatch(rank, method,
                                               tuple(payloads[rank]))
        for rank in range(self.size):
            if results[rank] is None:  # dispatched; drain the reply
                results[rank] = self._collect(rank)
        for got in results:
            if isinstance(got, BaseException):
                raise got
        return results
