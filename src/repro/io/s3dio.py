"""The S3D I/O kernel (§5.3, Figs 8-9).

Each checkpoint writes four global arrays — mass (4D, fourth dimension
11), velocity (4D, fourth dimension 3), pressure (3D) and temperature
(3D) — partitioned block-block-block over X-Y-Z with the fourth
dimension unpartitioned. The per-process block is 50x50x50 by default
(~15.26 MB per process per checkpoint), and the shared-file methods
write one file per checkpoint in canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.io.filesystem import SimFileSystem
from repro.io.fortranio import fortran_write_checkpoint
from repro.io.layout import BlockLayout
from repro.io.mpiio import collective_write, independent_write
from repro.io.caching import MPIIOCache
from repro.io.writebehind import TwoStageWriteBehind

#: the four checkpoint variables: (name, fourth_dim)
CHECKPOINT_VARS = (("mass", 11), ("velocity", 3), ("pressure", 1), ("temperature", 1))

WRITE_METHODS = ("fortran", "independent", "collective", "caching", "writebehind")


@dataclass
class S3DCheckpoint:
    """Geometry of the S3D I/O kernel.

    Parameters
    ----------
    proc_shape:
        Process grid (px, py, pz).
    block:
        Per-process block size (default 50^3, the paper's setting).
    telemetry:
        Telemetry backend; checkpoint writes run under a ``CHECKPOINT``
        span and record ``io.checkpoint.bytes`` / ``io.checkpoint.count``
        counters alongside the per-method instruments.
    retry:
        Optional :class:`~repro.resilience.retry.RetryPolicy` threaded
        through to the shared-file write paths so transient injected
        I/O faults are retried instead of aborting the checkpoint.
    """

    proc_shape: tuple
    block: tuple = (50, 50, 50)
    telemetry: object = None
    retry: object = None

    def __post_init__(self):
        from repro.telemetry import resolve as resolve_telemetry

        self.telemetry = resolve_telemetry(self.telemetry)
        self.global_shape = tuple(
            b * p for b, p in zip(self.block, self.proc_shape)
        )
        self.layouts = [
            BlockLayout(self.global_shape, self.proc_shape, fourth_dim=m)
            for _, m in CHECKPOINT_VARS
        ]
        self.n_ranks = self.layouts[0].n_ranks

    @property
    def bytes_per_checkpoint(self) -> int:
        return sum(l.total_bytes for l in self.layouts)

    @property
    def bytes_per_rank(self) -> int:
        return self.bytes_per_checkpoint // self.n_ranks

    def synthetic_arrays(self, seed: int = 0):
        """Deterministic test data for the four variables."""
        rng = np.random.default_rng(seed)
        out = []
        for (name, m) in CHECKPOINT_VARS:
            shape = self.global_shape + ((m,) if m > 1 else ())
            out.append(rng.random(shape))
        return out

    # ------------------------------------------------------------------
    def write_checkpoint(self, fs: SimFileSystem, method: str, arrays,
                         checkpoint_id: int) -> float:
        """Write one checkpoint with the given method; returns elapsed."""
        with self.telemetry.span("CHECKPOINT"):
            elapsed = self._write_checkpoint(fs, method, arrays, checkpoint_id)
        self.telemetry.counter("io.checkpoint.bytes").inc(self.bytes_per_checkpoint)
        self.telemetry.counter("io.checkpoint.count").inc()
        return elapsed

    def _write_checkpoint(self, fs: SimFileSystem, method: str, arrays,
                          checkpoint_id: int) -> float:
        if method == "fortran":
            return fortran_write_checkpoint(
                fs, self.layouts, arrays, checkpoint_id
            )
        t0 = fs.elapsed()
        if method in ("independent", "collective"):
            for (name, _), layout, arr in zip(CHECKPOINT_VARS, self.layouts, arrays):
                path = f"{name}.{checkpoint_id:04d}"
                if method == "independent":
                    independent_write(fs, layout, arr, path,
                                      telemetry=self.telemetry,
                                      retry=self.retry)
                else:
                    collective_write(fs, layout, arr, path,
                                     telemetry=self.telemetry,
                                     retry=self.retry)
            return fs.elapsed() - t0
        if method in ("caching", "writebehind"):
            for (name, _), layout, arr in zip(CHECKPOINT_VARS, self.layouts, arrays):
                path = f"{name}.{checkpoint_id:04d}"
                writer = (
                    MPIIOCache(fs, path, self.n_ranks)
                    if method == "caching"
                    else TwoStageWriteBehind(fs, path, self.n_ranks,
                                             telemetry=self.telemetry,
                                             retry=self.retry)
                )
                flush = [] if method == "caching" else None
                for rank in range(self.n_ranks):
                    block = layout.local_block(arr, rank)
                    for off, data in layout.rank_requests(rank, block):
                        if method == "caching":
                            writer.write(rank, off, data, flush_requests=flush)
                        else:
                            writer.write(rank, off, data)
                if method == "caching" and flush:
                    fs.phase_write(flush)
                writer.close()
            return fs.elapsed() - t0
        raise ValueError(f"unknown method {method!r}; choose from {WRITE_METHODS}")

    def verify(self, fs: SimFileSystem, method: str, arrays, checkpoint_id: int) -> bool:
        """Check that the written file bytes equal the canonical layout."""
        if method == "fortran":
            for rank in range(self.n_ranks):
                path = f"field.{checkpoint_id:04d}.{rank:05d}"
                expected = b"".join(
                    np.ascontiguousarray(
                        layout.local_block(arr, rank).transpose(3, 2, 1, 0)
                    ).tobytes()
                    for layout, arr in zip(self.layouts, arrays)
                )
                if fs.file_bytes(path) != expected:
                    return False
            return True
        for (name, _), layout, arr in zip(CHECKPOINT_VARS, self.layouts, arrays):
            path = f"{name}.{checkpoint_id:04d}"
            if fs.file_bytes(path) != layout.pack_global(arr):
                return False
        return True
