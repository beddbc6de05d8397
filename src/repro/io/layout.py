"""Block-block-block data layout (Fig 8).

S3D checkpoints store each variable as a global array in canonical
(Fortran, x-fastest) order in the shared file; each MPI process owns a
block of the lowest three spatial dimensions, and 4D arrays keep the
fourth (species/component) dimension unpartitioned. Writing a local
block into the canonical file therefore produces one contiguous file
run per (z, y[, m]) line of the block — the non-stripe-aligned request
stream whose lock behaviour §5.3 studies.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.decomp import CartesianDecomposition


class BlockLayout:
    """Maps rank-local blocks of a 3D/4D array to file offsets.

    Parameters
    ----------
    global_shape:
        Spatial dimensions (nx, ny, nz).
    proc_shape:
        Process grid (px, py, pz).
    fourth_dim:
        Length of the unpartitioned 4th dimension (1 for 3D arrays).
    """

    #: bytes per element: S3D's data is double precision
    itemsize = 8

    def __init__(self, global_shape, proc_shape, fourth_dim: int = 1):
        self.decomp = CartesianDecomposition(global_shape, proc_shape)
        self.global_shape = tuple(int(n) for n in global_shape)
        self.fourth_dim = int(fourth_dim)

    @property
    def n_ranks(self) -> int:
        return self.decomp.size

    @property
    def total_bytes(self) -> int:
        nx, ny, nz = self.global_shape
        return nx * ny * nz * self.fourth_dim * self.itemsize

    def local_shape(self, rank: int) -> tuple:
        """(lx, ly, lz, m) block shape owned by ``rank``."""
        return self.decomp.local_shape(rank) + (self.fourth_dim,)

    def local_runs(self, rank: int):
        """Contiguous (file_offset, x_start, y, z, m, length_elems) runs.

        Fortran canonical order: x fastest, then y, z, then the fourth
        dimension outermost. Each x-line of the local block is one
        contiguous run in the file.
        """
        nx, ny, nz = self.global_shape
        sx, sy, sz = self.decomp.local_slices(rank)
        runs = []
        plane = nx * ny
        vol = plane * nz
        lx = sx.stop - sx.start
        for m in range(self.fourth_dim):
            for z in range(sz.start, sz.stop):
                for y in range(sy.start, sy.stop):
                    elem = m * vol + z * plane + y * nx + sx.start
                    runs.append((elem * self.itemsize, sx.start, y, z, m, lx))
        return runs

    def run_offsets(self, rank: int):
        """Vectorized (offsets, run_length_bytes) of a rank's file runs.

        Equivalent to the offsets of :meth:`local_runs` but computed by
        broadcasting; used by the benchmark-scale cost model.
        """
        nx, ny, nz = self.global_shape
        sx, sy, sz = self.decomp.local_slices(rank)
        plane = nx * ny
        vol = plane * nz
        m = np.arange(self.fourth_dim).reshape(-1, 1, 1)
        z = np.arange(sz.start, sz.stop).reshape(1, -1, 1)
        y = np.arange(sy.start, sy.stop).reshape(1, 1, -1)
        elems = m * vol + z * plane + y * nx + sx.start
        lx = sx.stop - sx.start
        return elems.ravel() * self.itemsize, lx * self.itemsize

    def pack_global(self, global_array: np.ndarray) -> bytes:
        """Canonical file bytes of a full array (test oracle).

        ``global_array`` has shape (nx, ny, nz) or (nx, ny, nz, m).
        """
        a = np.asarray(global_array)
        if a.ndim == 3:
            a = a[..., None]
        if a.shape != self.global_shape + (self.fourth_dim,):
            raise ValueError(
                f"array shape {a.shape} != {self.global_shape + (self.fourth_dim,)}"
            )
        # canonical order: x fastest, then y, z, m -> transpose to (m,z,y,x)
        return np.ascontiguousarray(a.transpose(3, 2, 1, 0)).tobytes()

    def local_block(self, global_array: np.ndarray, rank: int) -> np.ndarray:
        a = np.asarray(global_array)
        if a.ndim == 3:
            a = a[..., None]
        return np.ascontiguousarray(a[self.decomp.local_slices(rank)])

    def rank_requests(self, rank: int, block: np.ndarray):
        """(file_offset, bytes) write requests for ``rank``'s block.

        ``block`` has shape ``local_shape(rank)``; returns the canonical
        runs with their payload bytes.
        """
        block = np.asarray(block)
        if block.shape != self.local_shape(rank):
            raise ValueError(
                f"block shape {block.shape} != {self.local_shape(rank)}"
            )
        sx, sy, sz = self.decomp.local_slices(rank)
        out = []
        for off, x0, y, z, m, lx in self.local_runs(rank):
            line = block[:, y - sy.start, z - sz.start, m]
            out.append((off, line.tobytes()))
        return out
