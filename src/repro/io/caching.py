"""MPI-I/O caching (§5.1, Fig 6).

The paper's caching layer sits between the application and the file
system: the shared file is divided into pages the size of the file
system lock unit; page *metadata* is distributed round-robin over the
MPI processes (page i's metadata lives on rank i mod nproc); at most a
*single cached copy* of any page exists; the first process to touch a
page caches it locally, later writers forward their data to the owner;
eviction is local-LRU under a 32 MB bound, flushing only the dirty
high-water range; close() flushes everything.

Because every flush is page-aligned, the file system sees conflict-free
lock-unit-aligned requests — the entire point of the design.

The implementation is functional (bytes land correctly; the invariants
are assertable) with costs charged to the shared network model and the
simulated file system.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.io.filesystem import WriteRequest
from repro.io.network import NetworkModel



@dataclass
class _Page:
    data: bytearray
    dirty_lo: int
    dirty_hi: int  # high-water mark (exclusive); -1/-1 when clean


class MPIIOCache:
    """Collaborative client-side file cache over a simulated FS.

    Parameters
    ----------
    fs:
        The simulated file system.
    path:
        Shared file path (opened on construction by all ranks).
    n_ranks:
        Number of collaborating processes (the communicator size).
    page_size:
        Cache page size; defaults to the FS lock unit (recommended by
        the paper to avoid false sharing).
    """

    #: per-process cache memory bound [bytes] (the paper's 32 MB)
    CACHE_BOUND = 32 * 1024 * 1024

    def __init__(self, fs, path: str, n_ranks: int, page_size: int | None = None):
        self.fs = fs
        self.path = path
        self.n_ranks = int(n_ranks)
        self.page_size = int(page_size or fs.config.lock_unit)
        self.net = NetworkModel()
        fs.open(path, n_clients=self.n_ranks)
        #: global page-owner table (the distributed metadata; owner of
        #: page p's *metadata* is p % n_ranks, tracked for cost only)
        self.page_owner: dict = {}
        #: per-rank LRU page stores
        self.caches = [OrderedDict() for _ in range(self.n_ranks)]
        self.metadata_lookups = 0
        self.remote_forwards = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def metadata_rank(self, page: int) -> int:
        """Round-robin metadata distribution (Fig 6)."""
        return page % self.n_ranks

    def cached_copies(self, page: int) -> int:
        """How many ranks currently cache this page (invariant: <= 1)."""
        return sum(1 for c in self.caches if page in c)

    def _charge_metadata(self, rank: int, page: int) -> None:
        self.metadata_lookups += 1
        meta = self.metadata_rank(page)
        # lock + lookup round trip unless the metadata is local
        if meta != rank:
            self.net.send(rank, meta, 64)
            self.net.send(meta, rank, 64)

    def _evict_if_needed(self, rank: int, flush_requests: list) -> None:
        cache = self.caches[rank]
        while len(cache) * self.page_size > self.CACHE_BOUND:
            page, entry = cache.popitem(last=False)  # LRU
            self.evictions += 1
            self._flush_page(rank, page, entry, flush_requests)
            self.page_owner[page] = None

    def _flush_page(self, rank: int, page: int, entry: _Page, requests: list) -> None:
        if entry.dirty_hi <= entry.dirty_lo:
            return
        off = page * self.page_size + entry.dirty_lo
        payload = bytes(entry.data[entry.dirty_lo : entry.dirty_hi])
        requests.append(WriteRequest(rank, self.path, off, payload))

    # ------------------------------------------------------------------
    def write(self, rank: int, offset: int, data: bytes, flush_requests=None) -> None:
        """One rank writes ``data`` at ``offset`` through the cache."""
        own_flush = flush_requests is None
        if own_flush:
            flush_requests = []
        pos = offset
        view = memoryview(data)
        while view:
            page = pos // self.page_size
            in_page = pos - page * self.page_size
            take = min(len(view), self.page_size - in_page)
            self._charge_metadata(rank, page)
            owner = self.page_owner.get(page)
            if owner is None:
                # first toucher caches the page locally (write-only: no
                # read-in needed for fresh pages)
                self.page_owner[page] = rank
                owner = rank
                self.caches[rank][page] = _Page(
                    bytearray(self.page_size), self.page_size, 0
                )
            if owner != rank:
                self.remote_forwards += 1
                self.net.send(rank, owner, take)
            cache = self.caches[owner]
            entry = cache[page]
            cache.move_to_end(page)
            entry.data[in_page : in_page + take] = view[:take]
            entry.dirty_lo = min(entry.dirty_lo, in_page)
            entry.dirty_hi = max(entry.dirty_hi, in_page + take)
            self._evict_if_needed(owner, flush_requests)
            pos += take
            view = view[take:]
        if own_flush and flush_requests:
            self.fs.phase_write(flush_requests)

    # ------------------------------------------------------------------
    def close(self) -> float:
        """Flush all dirty pages (aligned, conflict-free) and settle costs.

        Returns the elapsed simulated time of the flush phase.
        """
        requests = []
        for rank, cache in enumerate(self.caches):
            for page, entry in cache.items():
                self._flush_page(rank, page, entry, requests)
            cache.clear()
        self.page_owner.clear()
        t = self.fs.phase_write(requests)
        net = self.net.settle()
        # fold interconnect time into the FS clock so callers can read a
        # single elapsed() figure
        self.fs.time.overhead += net
        return t + net
