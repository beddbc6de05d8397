"""Solver restart.

The §9 workflow moves S3D restart files precisely because runs resume
from them. This module closes the loop on the I/O substrate: a solver's
conserved state is round-tripped, bit for bit, through the simulated
file system.
"""

from __future__ import annotations

import json
import math
import zlib

import numpy as np

from repro.io.filesystem import WriteRequest
from repro.resilience.errors import RestartCorruptionError
from repro.resilience.retry import DEFAULT_RETRY, fs_backoff_sleep
from repro.telemetry import resolve as resolve_telemetry

# ---------------------------------------------------------------------------
# restart format v2: one codec, two magics
# ---------------------------------------------------------------------------
#: a whole solver's conserved state ("S3DR") / one rank's shard of a
#: distributed conserved-state checkpoint ("S3DS")
_STATE_MAGIC = 0x53334452
_SHARD_MAGIC = 0x53334453
_KIND = {_STATE_MAGIC: "restart file", _SHARD_MAGIC: "shard"}
_RESTART_VERSION = 2
#: fixed int64 prefix: magic, version, step, nvar, ndim
_FIXED_HEAD = 5


def _write_file(fs, path: str, payload: bytes, tel, retry) -> None:
    """Open + one-request write of a whole file under the retry policy
    (both phases are idempotent), backoff charged to the simulated FS."""
    policy = retry if retry is not None else DEFAULT_RETRY
    sleep = fs_backoff_sleep(fs)
    open_before = fs.time.open
    policy.call(fs.open, path, n_clients=1, label=f"open:{path}",
                telemetry=tel, sleep=sleep)
    tel.histogram("io.open_time").observe(fs.time.open - open_before)
    policy.call(fs.phase_write, [WriteRequest(0, path, 0, payload)],
                label=f"write:{path}", telemetry=tel, sleep=sleep)


def _write_v2(fs, path: str, magic: int, step: int, time: float, u,
              cache=None, telemetry=None, retry=None) -> None:
    """The one v2 writer. Layout: int64 header ``[magic, version, step,
    nvar, ndim, *shape, payload_nbytes, tcache_flag, crc32]``, float64
    time, the conserved array bytes in C order, then (when
    ``tcache_flag`` is 1) the cached Newton temperature field —
    replaying from a restart must seed the temperature solve with the
    same initial guess the uninterrupted run had, or the replay diverges
    in the last bit. The CRC covers everything after the int64 header
    (time, payload, and cache), so :func:`_read_v2` detects truncation
    and silent corruption before anything is installed.
    """
    tel = resolve_telemetry(telemetry)
    u = np.ascontiguousarray(u, dtype=np.float64)
    body = u.tobytes()
    cache_bytes = b""
    if cache is not None:
        cache = np.ascontiguousarray(cache, dtype=np.float64)
        if cache.shape != u.shape[1:]:
            raise ValueError(
                f"cache shape {cache.shape} does not match block interior "
                f"{u.shape[1:]}"
            )
        cache_bytes = cache.tobytes()
    blob = np.float64(time).tobytes() + body + cache_bytes
    header = np.array(
        [magic, _RESTART_VERSION, int(step), u.shape[0], u.ndim - 1,
         *u.shape[1:], len(body), 1 if cache_bytes else 0, zlib.crc32(blob)],
        dtype=np.int64,
    )
    payload = header.tobytes() + blob
    _write_file(fs, path, payload, tel, retry)
    tel.counter("io.restart.bytes").inc(len(payload))


def _read_v2(fs, path: str, magic: int, with_arrays: bool = True) -> dict:
    """The one validating v2 reader; ``with_arrays=False`` is "verify".

    Checks magic, version, header sanity, payload length against the
    declared shape, truncation, and the CRC *before* deserializing,
    raising :class:`RestartCorruptionError` (a ``ValueError``) naming
    the failing field instead of a bare numpy reshape/frombuffer error.
    Returns ``{"step", "nvar", "shape", "nbytes", "has_cache"}`` plus,
    with arrays, ``"time"`` and read-only views ``"u"`` of shape
    ``(nvar, *shape)`` and ``"cache"`` (or None).
    """
    kind = _KIND[magic]
    if not fs.exists(path):
        raise FileNotFoundError(path)
    fixed = np.frombuffer(fs.read(path, 0, 8 * _FIXED_HEAD), dtype=np.int64)
    if len(fixed) < _FIXED_HEAD or fixed[0] != magic:
        raise RestartCorruptionError(
            f"{path!r} is not a conserved-state {kind} "
            f"(magic {int(fixed[0]) if len(fixed) else 0:#x})"
        )
    if fixed[1] != _RESTART_VERSION:
        raise RestartCorruptionError(
            f"{path!r}: unsupported {kind} format version {int(fixed[1])} "
            f"(expected {_RESTART_VERSION})"
        )
    step, nvar, ndim = int(fixed[2]), int(fixed[3]), int(fixed[4])
    if not 1 <= ndim <= 3 or nvar < 1:
        raise RestartCorruptionError(
            f"{path!r}: corrupt header (nvar = {nvar}, ndim = {ndim})"
        )
    n_head = _FIXED_HEAD + ndim + 3
    header = np.frombuffer(fs.read(path, 0, 8 * n_head), dtype=np.int64)
    shape = tuple(int(x) for x in header[_FIXED_HEAD:_FIXED_HEAD + ndim])
    nbytes, has_cache, crc = (int(x) for x in header[n_head - 3:])
    if has_cache not in (0, 1):
        raise RestartCorruptionError(
            f"{path!r}: corrupt header (tcache flag = {has_cache})"
        )
    expected = 8 * nvar * math.prod(shape)
    if min(shape) < 1 or nbytes != expected:
        raise RestartCorruptionError(
            f"{path!r}: payload length {nbytes} does not match block shape "
            f"{(nvar,) + shape} ({expected} bytes)"
        )
    cache_nbytes = (nbytes // nvar) if has_cache else 0
    total = 8 * (n_head + 1) + nbytes + cache_nbytes
    if fs.file_size(path) < total:
        raise RestartCorruptionError(
            f"{path!r} is truncated: {fs.file_size(path)} bytes on disk, "
            f"{total} expected"
        )
    blob = fs.read(path, 8 * n_head, 8 + nbytes + cache_nbytes)
    if zlib.crc32(blob) != crc & 0xFFFFFFFF:
        raise RestartCorruptionError(
            f"{path!r}: payload checksum mismatch "
            f"(stored {crc:#010x}, computed {zlib.crc32(blob):#010x})"
        )
    out = {"step": step, "nvar": nvar, "shape": shape, "nbytes": nbytes,
           "has_cache": bool(has_cache)}
    if with_arrays:
        words = np.frombuffer(blob, dtype=np.float64)  # no payload copy
        out["time"] = float(words[0])
        out["u"] = words[1:1 + nbytes // 8].reshape((nvar,) + shape)
        out["cache"] = (words[1 + nbytes // 8:].reshape(shape)
                        if has_cache else None)
    return out


def save_solver_state(fs, solver, path: str, telemetry=None,
                      retry=None) -> None:
    """Write a solver's *conserved* state verbatim (bit-exact restart).

    Unlike the primitive-variable checkpoint (which round-trips through
    the EOS), this path serializes the raw conserved array, the solver
    clock and the Newton temperature cache (:func:`_write_v2`), so a
    reload reproduces the run bitwise.
    """
    u = solver.state.u
    t_cache = getattr(solver.state, "_t_cache", None)
    if t_cache is not None and t_cache.shape != u.shape[1:]:
        t_cache = None
    _write_v2(fs, path, _STATE_MAGIC, solver.step_count, solver.time, u,
              t_cache, telemetry, retry)


def load_solver_state(fs, solver, path: str) -> None:
    """Restore a solver's conserved state written by
    :func:`save_solver_state` — bit-identical, including time, step and
    the Newton temperature cache (the next temperature solve must start
    from the guess the saved run would have used). The file is fully
    validated and matched against the live solver's shape first; the
    solver is untouched on any failure.
    """
    u = solver.state.u
    got = _read_v2(fs, path, _STATE_MAGIC)
    if (got["nvar"],) + got["shape"] != u.shape:
        raise RestartCorruptionError(
            f"restart shape {(got['nvar'],) + got['shape']} does not match "
            f"solver state {u.shape}"
        )
    solver.step_count = got["step"]
    solver.time = got["time"]
    u[...] = got["u"]
    solver.state.mark_modified()
    cache = got["cache"]
    solver.state._t_cache = None if cache is None else cache.copy()


def verify_solver_state(fs, path: str) -> dict:
    """Integrity-check a restart file without a solver: returns
    ``{"step", "nvar", "shape", "nbytes", "has_cache"}`` or raises
    :class:`RestartCorruptionError` / ``FileNotFoundError``."""
    return _read_v2(fs, path, _STATE_MAGIC, with_arrays=False)


def save_state_shard(fs, path: str, step: int, time: float, u_block,
                     cache_block=None, telemetry=None, retry=None) -> None:
    """Write one rank's shard of a distributed checkpoint: its owned
    conserved block and (when warm) its owned-interior Newton
    temperature cache, in the v2 layout under the shard magic."""
    _write_v2(fs, path, _SHARD_MAGIC, step, time, u_block, cache_block,
              telemetry, retry)


def load_state_shard(fs, path: str) -> dict:
    """Read back one validated shard: ``{"step", "time", "u", "cache",
    ...}`` with ``u`` of shape ``(nvar, *local_shape)`` and ``cache``
    the interior Newton temperature cache or None (read-only views of
    the file's bytes; whoever installs them copies)."""
    return _read_v2(fs, path, _SHARD_MAGIC)


def verify_state_shard(fs, path: str) -> dict:
    """Integrity-check a shard without materializing its arrays."""
    return _read_v2(fs, path, _SHARD_MAGIC, with_arrays=False)


def write_checkpoint_manifest(fs, path: str, meta: dict, telemetry=None,
                              retry=None) -> None:
    """Write a distributed-checkpoint manifest (canonical JSON + CRC).

    The manifest is the commit record of the two-phase distributed
    checkpoint protocol: it is written only after every shard has been
    verified and renamed into place, and its own integrity is guarded
    by a CRC32 over the canonical JSON encoding (sorted keys, compact
    separators) of everything except the ``crc`` field itself.
    """
    tel = resolve_telemetry(telemetry)
    doc = {k: v for k, v in meta.items() if k != "crc"}
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["crc"] = zlib.crc32(blob.encode())
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    _write_file(fs, path, payload, tel, retry)


def read_checkpoint_manifest(fs, path: str) -> dict:
    """Read and CRC-validate a manifest written by
    :func:`write_checkpoint_manifest`; raises
    :class:`RestartCorruptionError` on tampering or truncation."""
    if not fs.exists(path):
        raise FileNotFoundError(path)
    raw = fs.read(path, 0, fs.file_size(path))
    try:
        doc = json.loads(raw.decode())
    except (ValueError, UnicodeDecodeError) as err:
        raise RestartCorruptionError(
            f"{path!r}: manifest is not parseable JSON ({err})"
        ) from err
    if not isinstance(doc, dict) or not isinstance(doc.get("crc"), int):
        raise RestartCorruptionError(f"{path!r}: manifest has no CRC field")
    crc = doc.pop("crc")
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    if zlib.crc32(blob.encode()) != crc & 0xFFFFFFFF:
        raise RestartCorruptionError(
            f"{path!r}: manifest checksum mismatch"
        )
    return doc
