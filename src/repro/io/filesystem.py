"""Simulated striped parallel file system with lock semantics (§5).

Functionally, files are real byte stores: every write lands and reads
return exactly what was written (the test suite verifies canonical
global-array bytes for every write path). Temporally, a cost model
charges for what dominates on real Lustre/GPFS systems:

* **lock-unit conflicts** — the file is divided into lock units (the
  stripe/block size); when a single I/O phase contains writes from
  multiple clients touching the same unit, those transfers serialize
  and pay a lock-revocation round trip. This is the §5 "false sharing"
  mechanism: unaligned requests conflict at unit boundaries *even when
  they do not conflict in bytes*.
* **striped bandwidth** — units map round-robin onto I/O servers;
  a phase's transfer time is the busiest server's queue.
* **per-request overhead** — every write request pays a fixed cost on
  its issuing client (what makes native independent I/O with its
  thousands of tiny unaligned requests catastrophically slow).
* **open costs** — metadata operations per (file, client) open, with a
  file-system-dependent scaling exponent: GPFS token management makes
  mass file creation far more expensive than Lustre's (the Fig 9
  open-time panel).

The two presets mirror the paper's §5.3 testbeds: Lustre with a
16-stripe, 512 kB layout (Tungsten) and GPFS with 54 NSD servers and
512 kB blocks (Mercury).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.resilience.errors import TornWriteError, TransientIOError
from repro.resilience.faults import resolve_injector


@dataclass
class FSConfig:
    """Cost-model parameters of a simulated parallel file system."""

    name: str
    lock_unit: int = 512 * 1024        # lock granularity [B]
    n_servers: int = 16                # stripe count / NSD servers
    server_bandwidth: float = 80e6     # B/s per server
    client_bandwidth: float = 400e6    # B/s per client link
    request_overhead: float = 3e-4     # s per write request (client side)
    lock_conflict_cost: float = 2e-3   # s per extra client on a hot unit
    open_base: float = 1e-3            # s per file *creation*
    #: file creation cost grows as n_created^(open_exponent - 1): the
    #: GPFS token protocol makes mass file creation superlinear, which
    #: is what ruins file-per-process I/O at scale (Fig 9, open panel)
    open_exponent: float = 1.0
    client_open_cost: float = 5e-5     # s per client joining an open
    #: fraction of server bandwidth that *independent* request streams
    #: to a shared file sustain (collective streams get 1.0). Lustre
    #: handles aligned independent writes well; GPFS's token protocol
    #: does not — the §5.3 observation that write-behind (independent
    #: I/O functions) beats collective on Lustre but loses on GPFS.
    independent_efficiency: float = 1.0


def lustre() -> FSConfig:
    """Tungsten-like Lustre: 16 stripes x 512 kB, cheap opens.

    Lustre's single MDS makes opens linear in count but fast; aligned
    independent writes stream well (low per-request cost).
    """
    return FSConfig(
        name="lustre",
        lock_unit=512 * 1024,
        n_servers=16,
        server_bandwidth=40e6,
        client_bandwidth=110e6,
        request_overhead=2e-4,
        lock_conflict_cost=2.5e-3,
        open_base=8e-4,
        open_exponent=1.0,
        client_open_cost=2e-5,
        independent_efficiency=0.9,
    )


def gpfs() -> FSConfig:
    """Mercury-like GPFS: 54 NSD servers, 512 kB blocks, costly opens.

    GPFS token management makes mass file creation superlinear in the
    number of files x processes, and its per-request cost is higher
    (token acquisition per data request); large collective writes
    amortize this best.
    """
    return FSConfig(
        name="gpfs",
        lock_unit=512 * 1024,
        n_servers=54,
        server_bandwidth=4e6,
        client_bandwidth=110e6,
        request_overhead=9e-4,
        lock_conflict_cost=3e-3,
        open_base=2.2e-3,
        open_exponent=1.35,
        client_open_cost=8e-5,
        independent_efficiency=0.35,
    )


@dataclass
class WriteRequest:
    """One client write inside an I/O phase."""

    client: int
    path: str
    offset: int
    data: bytes


@dataclass
class TimeBreakdown:
    open: float = 0.0
    transfer: float = 0.0
    lock_wait: float = 0.0
    overhead: float = 0.0

    @property
    def total(self) -> float:
        return self.open + self.transfer + self.lock_wait + self.overhead


class SimFileSystem:
    """Functionally-correct file store with a parallel-FS cost model.

    Fault injection (off by default, zero-cost when disabled): pass a
    :class:`~repro.resilience.faults.FaultInjector` and arm rules at
    the sites ``fs.open`` (transient open errors), ``fs.write``
    (``error`` = transient phase failure before any byte lands,
    ``torn`` = a partial phase lands then :class:`TornWriteError`),
    and ``fs.read`` (``error`` = transient read failure, ``stale`` =
    deterministically corrupted bytes returned once).
    """

    def __init__(self, config: FSConfig, fault_injector=None):
        self.config = config
        self.faults = resolve_injector(fault_injector)
        self._files: dict = {}
        self.time = TimeBreakdown()
        self.opens = 0
        self.n_created = 0
        self.conflict_units = 0
        self.requests = 0
        #: logical sizes recorded by the cost-only write path
        self._meta_sizes: dict = {}

    # -- namespace -------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._files

    def open(self, path: str, n_clients: int = 1, create: bool = True) -> None:
        """Charge for ``n_clients`` processes opening ``path``.

        Creating a new file pays a marginal cost that grows as
        ``n_created^(open_exponent - 1)`` (GPFS-style token churn under
        mass creation); each joining client pays ``client_open_cost``.
        """
        cfg = self.config
        if self.faults.enabled and self.faults.decide("fs.open") is not None:
            raise TransientIOError(f"injected open failure for {path!r}")
        fresh = path not in self._files
        cost = 0.0
        if fresh:
            if not create:
                raise FileNotFoundError(path)
            self._files[path] = bytearray()
            self.n_created += 1
            cost += cfg.open_base * self.n_created ** (cfg.open_exponent - 1.0)
        cost += cfg.client_open_cost * n_clients
        self.time.open += cost
        self.opens += n_clients

    def read(self, path: str, offset: int, length: int) -> bytes:
        data = self._files[path]
        out = bytes(data[offset : offset + length])
        if len(out) < length:
            out = out + b"\x00" * (length - len(out))
        # charge a read like a 1-request phase
        self.time.transfer += length / self.config.server_bandwidth / max(
            1, self.config.n_servers
        )
        if self.faults.enabled:
            spec = self.faults.decide("fs.read")
            if spec is not None:
                if spec.mode == "stale":
                    return self.faults.corrupt_bytes(out)
                raise TransientIOError(f"injected read failure for {path!r}")
        return out

    def file_bytes(self, path: str) -> bytes:
        return bytes(self._files[path])

    def write_bytes(self, path: str, data: bytes) -> str:
        """Open-and-write a whole small file from client 0.

        Convenience for single-writer artifacts (flight-recorder dumps,
        HTML reports): one :meth:`open` plus a one-request write phase,
        so accounting and armed ``fs.*`` faults apply exactly as for
        checkpoints. Returns ``path``.
        """
        self.open(path, n_clients=1, create=True)
        self.phase_write([WriteRequest(client=0, path=path, offset=0,
                                       data=bytes(data))])
        return path

    def file_size(self, path: str) -> int:
        return len(self._files[path])

    def listdir(self, prefix: str = "") -> list:
        """Paths starting with ``prefix``, sorted."""
        return sorted(p for p in self._files if p.startswith(prefix))

    def rename(self, old: str, new: str) -> None:
        """Atomic metadata-only rename (the commit step of atomic
        write-then-rename checkpointing); overwrites ``new``."""
        if old not in self._files:
            raise FileNotFoundError(old)
        self._files[new] = self._files.pop(old)
        if old in self._meta_sizes:
            self._meta_sizes[new] = self._meta_sizes.pop(old)
        self.time.open += self.config.open_base

    def unlink(self, path: str) -> None:
        """Remove a file (checkpoint-ring pruning)."""
        if path not in self._files:
            raise FileNotFoundError(path)
        del self._files[path]
        self._meta_sizes.pop(path, None)
        self.time.open += self.config.open_base

    def corrupt(self, path: str, offset: int = 0) -> None:
        """Flip 8 bytes in place from ``offset`` (test/fault-drill helper
        — models silent media corruption of a file at rest)."""
        buf = self._files[path]
        for i in range(offset, min(offset + 8, len(buf))):
            buf[i] ^= 0xFF

    def _tear(self, requests) -> int:
        """Land a prefix of ``requests`` with the last one truncated —
        the on-disk picture a node crash mid-phase leaves behind.
        Returns how many requests (fully or partially) landed."""
        n_landed = max(1, len(requests) // 2)
        for i, r in enumerate(requests[:n_landed]):
            data = r.data if i < n_landed - 1 else r.data[: max(1, len(r.data) // 2)]
            buf = self._files[r.path]
            end = r.offset + len(data)
            if len(buf) < end:
                buf.extend(b"\x00" * (end - len(buf)))
            buf[r.offset : end] = data
        return n_landed

    # -- data path ---------------------------------------------------------
    def phase_write(self, requests, independent: bool = False) -> float:
        """Execute a set of concurrent write requests; returns the
        elapsed (simulated) phase time.

        All requests land functionally, then the phase is charged
        through the one cost model (:meth:`_charge`): per-client request
        overheads, per-server striped transfer queues, and serialization
        on lock units touched by multiple clients — units of one file;
        a phase may write several. ``independent`` marks the stream as
        issued through independent (non-collective) I/O functions, which
        sustain only ``config.independent_efficiency`` of server
        bandwidth.
        """
        if not requests:
            return 0.0
        if self.faults.enabled:
            spec = self.faults.decide("fs.write")
            if spec is not None:
                if spec.mode == "torn":
                    torn = self._tear(requests)
                    raise TornWriteError(
                        f"injected torn write: {torn} of {len(requests)} "
                        "requests landed (last one partial)"
                    )
                raise TransientIOError(
                    f"injected write-phase failure ({len(requests)} requests)"
                )
        files = {}
        for r in requests:
            buf = self._files[r.path]
            end = r.offset + len(r.data)
            if len(buf) < end:
                buf.extend(b"\x00" * (end - len(buf)))
            buf[r.offset : end] = r.data
            files.setdefault(r.path, len(files))
        return self._charge([files[r.path] for r in requests],
                            [r.client for r in requests],
                            [r.offset for r in requests],
                            [len(r.data) for r in requests], independent)

    def phase_write_meta(self, path: str, clients, offsets, lengths,
                         independent: bool = False) -> float:
        """Cost-only write phase from metadata arrays (no payloads).

        The cost of :meth:`phase_write` for benchmark-scale runs: the
        file contents are only extended, not filled. Used by the Fig 9
        driver at full process counts where materializing every byte
        would be prohibitive in Python; the functional path is exercised
        (and byte-verified) by the test suite at reduced scale.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        if not len(offsets):
            return 0.0
        if path not in self._files:
            raise FileNotFoundError(path)
        # track the logical size only — cost-path files are never read
        end = int((offsets + lengths).max())
        self._meta_sizes[path] = max(self._meta_sizes.get(path, 0), end)
        return self._charge(np.zeros(len(offsets), dtype=np.int64), clients,
                            offsets, lengths, independent)

    def _charge(self, files, clients, offsets, lengths, independent) -> float:
        """Charge one write phase of requests ``(client, offset,
        length)`` into files numbered ``files`` (lock units conflict
        only within one file); returns the phase time."""
        cfg = self.config
        files = np.asarray(files, dtype=np.int64)
        clients = np.asarray(clients, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        self.requests += len(offsets)

        # client timelines
        c_over = np.bincount(clients, weights=np.full(len(clients), cfg.request_overhead))
        c_bw = np.bincount(clients, weights=lengths / cfg.client_bandwidth)
        overhead = float((c_over + c_bw).max())

        # per-unit byte accounting and conflicts
        first = offsets // cfg.lock_unit
        last = (offsets + lengths - 1) // cfg.lock_unit
        # expand each request into its units (bounded: most requests span
        # few units)
        n_units = (last - first + 1).astype(np.int64)
        total = int(n_units.sum())
        req_idx = np.repeat(np.arange(len(offsets)), n_units)
        unit_off = np.arange(total) - np.repeat(np.cumsum(n_units) - n_units, n_units)
        units = first[req_idx] + unit_off
        u_lo = units * cfg.lock_unit
        u_hi = u_lo + cfg.lock_unit
        nbytes = (
            np.minimum(offsets[req_idx] + lengths[req_idx], u_hi)
            - np.maximum(offsets[req_idx], u_lo)
        )
        eff = cfg.independent_efficiency if independent else 1.0
        servers = units % cfg.n_servers
        s_time = np.bincount(servers, weights=nbytes / (cfg.server_bandwidth * eff))
        transfer = float(s_time.max()) if len(s_time) else 0.0

        # distinct (file, unit, client) triples, then clients per (file, unit)
        triples = np.unique(np.stack([files[req_idx], units, clients[req_idx]]), axis=1)
        _, counts = np.unique(triples[:2], axis=1, return_counts=True)
        conflicts = counts[counts > 1]
        self.conflict_units += int(len(conflicts))
        lock_wait = float((conflicts - 1).sum()) * cfg.lock_conflict_cost

        self.time.transfer += transfer
        self.time.lock_wait += lock_wait
        self.time.overhead += overhead
        return transfer + lock_wait + overhead

    def elapsed(self) -> float:
        """Total simulated wall time accumulated so far."""
        return self.time.total
