"""Two-stage write-behind buffering (§5.2, Fig 7).

Write-only fast path (requires MPI_MODE_WRONLY, non-atomic mode):

* **stage 1** — each process keeps one local sub-buffer per remote
  process (default 64 kB each); writes are appended, with their
  (offset, length), to the sub-buffer of the destination process; a
  full sub-buffer is flushed over the network (double buffering makes
  this asynchronous on the real system — here it charges the network
  model).
* **stage 2** — the file's pages are statically distributed
  round-robin: page i lives on rank i mod nproc. Received data is
  scattered into the owner's global page buffers, which are written to
  the file system with *independent* (but page-aligned, disjoint)
  requests at close.

No coherence control is needed at all (write-only pattern); the price
is that almost all data is flushed to a remote second-stage owner — the
paper's explanation for why write-behind loses to collective I/O on
GPFS while winning on Lustre.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.io.filesystem import WriteRequest
from repro.io.network import NetworkModel
from repro.resilience.retry import DEFAULT_RETRY, fs_backoff_sleep
from repro.telemetry import resolve as resolve_telemetry

DEFAULT_SUBBUFFER = 64 * 1024  # 64 kB (paper default)


class TwoStageWriteBehind:
    """Two-stage write-behind writer over a simulated FS.

    Telemetry: ``io.writebehind.bytes`` / ``io.writebehind.flushes``
    counters and an ``io.open_time`` histogram (the Fig 9 observables).
    """

    def __init__(self, fs, path: str, n_ranks: int, page_size: int | None = None,
                 subbuffer_size: int = DEFAULT_SUBBUFFER, telemetry=None,
                 retry=None):
        self.fs = fs
        self.path = path
        self.n_ranks = int(n_ranks)
        self.page_size = int(page_size or fs.config.lock_unit)
        self.subbuffer_size = int(subbuffer_size)
        self.net = NetworkModel()
        self.telemetry = resolve_telemetry(telemetry)
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self._c_bytes = self.telemetry.counter("io.writebehind.bytes")
        self._c_flushes = self.telemetry.counter("io.writebehind.flushes")
        open_before = fs.time.open
        self.retry.call(fs.open, path, n_clients=self.n_ranks,
                        label=f"open:{path}", telemetry=self.telemetry,
                        sleep=fs_backoff_sleep(fs))
        self.telemetry.histogram("io.open_time").observe(fs.time.open - open_before)
        # stage 1: per (rank, destination) accumulation
        self._sub: dict = {
            (r, d): [] for r in range(self.n_ranks) for d in range(self.n_ranks)
        }
        self._sub_fill: dict = {k: 0 for k in self._sub}
        # stage 2: per-rank global page buffers {page: bytearray}
        self._pages: list = [dict() for _ in range(self.n_ranks)]
        self._page_dirty: list = [dict() for _ in range(self.n_ranks)]
        self.stage1_flushes = 0
        self.remote_bytes = 0

    # ------------------------------------------------------------------
    def page_owner(self, page: int) -> int:
        """Round-robin static page distribution (Fig 7)."""
        return page % self.n_ranks

    def _deposit(self, owner: int, offset: int, data: bytes) -> None:
        """Scatter one (offset, data) record into the owner's pages."""
        pos = offset
        view = memoryview(data)
        while view:
            page = pos // self.page_size
            in_page = pos - page * self.page_size
            take = min(len(view), self.page_size - in_page)
            buf = self._pages[owner].setdefault(page, bytearray(self.page_size))
            buf[in_page : in_page + take] = view[:take]
            lo, hi = self._page_dirty[owner].get(page, (self.page_size, 0))
            self._page_dirty[owner][page] = (
                min(lo, in_page), max(hi, in_page + take)
            )
            pos += take
            view = view[take:]

    def _flush_sub(self, rank: int, dest: int) -> None:
        records = self._sub[(rank, dest)]
        if not records:
            return
        nbytes = sum(len(d) for _, d in records) + 16 * len(records)
        self.net.send(rank, dest, nbytes)
        self.remote_bytes += nbytes
        self.stage1_flushes += 1
        self._c_flushes.inc()
        for off, data in records:
            self._deposit(dest, off, data)
        self._sub[(rank, dest)] = []
        self._sub_fill[(rank, dest)] = 0

    # ------------------------------------------------------------------
    def write(self, rank: int, offset: int, data: bytes) -> None:
        """Stage-1 accumulation of one write, split at page boundaries."""
        self._c_bytes.inc(len(data))
        pos = offset
        view = memoryview(data)
        while view:
            page = pos // self.page_size
            in_page = pos - page * self.page_size
            take = min(len(view), self.page_size - in_page)
            dest = self.page_owner(page)
            if dest == rank:
                self._deposit(rank, pos, bytes(view[:take]))
            else:
                self._sub[(rank, dest)].append((pos, bytes(view[:take])))
                self._sub_fill[(rank, dest)] += take
                if self._sub_fill[(rank, dest)] >= self.subbuffer_size:
                    self._flush_sub(rank, dest)
            pos += take
            view = view[take:]

    # ------------------------------------------------------------------
    def close(self) -> float:
        """Flush stage 1 remainders, then write all pages (independent,
        page-aligned, disjoint). Returns the elapsed simulated time."""
        for (rank, dest), records in self._sub.items():
            if records:
                self._flush_sub(rank, dest)
        net = self.net.settle()
        requests = []
        for owner in range(self.n_ranks):
            for page, buf in self._pages[owner].items():
                lo, hi = self._page_dirty[owner][page]
                if hi <= lo:
                    continue
                requests.append(
                    WriteRequest(owner, self.path,
                                 page * self.page_size + lo, bytes(buf[lo:hi]))
                )
            self._pages[owner].clear()
            self._page_dirty[owner].clear()
        t = self.retry.call(self.fs.phase_write, requests, independent=True,
                            label=f"write:{self.path}",
                            telemetry=self.telemetry,
                            sleep=fs_backoff_sleep(self.fs))
        self.fs.time.overhead += net
        self.telemetry.histogram("io.writebehind.close_time").observe(t + net)
        return t + net
