"""MPI-I/O into a shared file: independent and two-phase collective.

* :func:`independent_write` — every rank issues one file-system request
  per contiguous run of its block. For S3D's block-block-block layout
  the runs are short x-lines at arbitrary offsets, so requests conflict
  at lock-unit boundaries everywhere and per-request overhead dominates
  — the paper reports *under 5 MB/s* for this path.

* :func:`collective_write` — ROMIO-style two-phase I/O: the file range
  is split into one contiguous *file domain* per aggregator rank, data
  is redistributed over the (simulated) network to the owning
  aggregator, and each aggregator writes its domain with large
  contiguous requests. Conflicts remain only where domain boundaries
  split a lock unit.
"""

from __future__ import annotations

from collections import defaultdict

from repro.io.filesystem import WriteRequest
from repro.resilience.retry import DEFAULT_RETRY, fs_backoff_sleep
from repro.telemetry import resolve as resolve_telemetry

#: simulated interconnect for redistribution traffic
NETWORK_BANDWIDTH = 200e6  # B/s per link
NETWORK_LATENCY = 2e-5     # s per message


def independent_write(fs, layout, global_array, path: str, telemetry=None,
                      retry=None) -> float:
    """Every rank writes its runs directly (MPI_File_write_at).

    Transient/torn file-system faults are reissued under ``retry`` (a
    :class:`~repro.resilience.retry.RetryPolicy`; the shared default
    when None) — write phases are idempotent, so a replay converges.
    """
    tel = resolve_telemetry(telemetry)
    policy = retry if retry is not None else DEFAULT_RETRY
    sleep = fs_backoff_sleep(fs)
    t0 = fs.elapsed()
    open_before = fs.time.open
    policy.call(fs.open, path, n_clients=layout.n_ranks,
                label=f"open:{path}", telemetry=tel, sleep=sleep)
    tel.histogram("io.open_time").observe(fs.time.open - open_before)
    requests = []
    for rank in range(layout.n_ranks):
        block = layout.local_block(global_array, rank)
        for off, data in layout.rank_requests(rank, block):
            requests.append(WriteRequest(rank, path, off, data))
    policy.call(fs.phase_write, requests, independent=True,
                label=f"write:{path}", telemetry=tel, sleep=sleep)
    elapsed = fs.elapsed() - t0
    tel.counter("io.mpiio.bytes").inc(sum(len(r.data) for r in requests))
    tel.counter("io.mpiio.requests").inc(len(requests))
    tel.histogram("io.mpiio.write_time").observe(elapsed)
    return elapsed


def collective_write(fs, layout, global_array, path: str, telemetry=None,
                     retry=None) -> float:
    """Two-phase collective write (MPI_File_write_all), every rank an
    aggregator.

    Returns elapsed simulated time including the redistribution phase.
    Transient/torn FS faults retry under ``retry`` like
    :func:`independent_write`.
    """
    tel = resolve_telemetry(telemetry)
    policy = retry if retry is not None else DEFAULT_RETRY
    sleep = fs_backoff_sleep(fs)
    t0 = fs.elapsed()
    n_ranks = layout.n_ranks
    open_before = fs.time.open
    policy.call(fs.open, path, n_clients=n_ranks,
                label=f"open:{path}", telemetry=tel, sleep=sleep)
    tel.histogram("io.open_time").observe(fs.time.open - open_before)
    total = layout.total_bytes
    domain = -(-total // n_ranks)  # ceil

    # phase 1: redistribute runs to file-domain owners (network cost)
    shuffle = defaultdict(list)  # aggregator -> [(offset, bytes)]
    net_bytes = defaultdict(float)
    net_msgs = defaultdict(int)
    for rank in range(n_ranks):
        block = layout.local_block(global_array, rank)
        for off, data in layout.rank_requests(rank, block):
            pos = off
            remaining = data
            while remaining:
                agg = min(pos // domain, n_ranks - 1)
                take = min(len(remaining), (agg + 1) * domain - pos)
                shuffle[agg].append((pos, remaining[:take]))
                if agg != rank:
                    net_bytes[rank] += take
                    net_msgs[rank] += 1
                pos += take
                remaining = remaining[take:]
    net_time = max(
        (net_bytes[r] / NETWORK_BANDWIDTH + net_msgs[r] * NETWORK_LATENCY
         for r in range(n_ranks)),
        default=0.0,
    )
    fs.time.overhead += net_time

    # phase 2: aggregators coalesce their domain into large requests
    requests = []
    for agg, pieces in shuffle.items():
        pieces.sort()
        merged_off, merged = None, bytearray()
        for off, data in pieces:
            if merged_off is None:
                merged_off, merged = off, bytearray(data)
            elif off == merged_off + len(merged):
                merged.extend(data)
            else:
                requests.append(WriteRequest(agg, path, merged_off, bytes(merged)))
                merged_off, merged = off, bytearray(data)
        if merged_off is not None:
            requests.append(WriteRequest(agg, path, merged_off, bytes(merged)))
    policy.call(fs.phase_write, requests,
                label=f"write:{path}", telemetry=tel, sleep=sleep)
    elapsed = fs.elapsed() - t0
    tel.counter("io.mpiio.bytes").inc(sum(len(r.data) for r in requests))
    tel.counter("io.mpiio.requests").inc(len(requests))
    tel.counter("io.mpiio.shuffle_bytes").inc(sum(net_bytes.values()))
    tel.histogram("io.mpiio.write_time").observe(elapsed)
    return elapsed
