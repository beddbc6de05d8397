"""Parallel I/O substrate: §5 of the paper (Figs 6-9).

A simulated striped parallel file system with POSIX-style lock
semantics stands in for Lustre and GPFS
(:mod:`repro.io.filesystem`); on top of it sit the four write paths
Fig 9 compares:

* :mod:`repro.io.fortranio` — file-per-process Fortran-style writes,
* :mod:`repro.io.mpiio` — MPI-I/O independent writes and two-phase
  collective writes into a shared file,
* :mod:`repro.io.caching` — the paper's MPI-I/O caching layer (Fig 6):
  client-side file pages aligned to the lock granularity, metadata
  distributed round-robin, a single cached copy per page, LRU eviction,
  high-water-mark flushing,
* :mod:`repro.io.writebehind` — the two-stage write-behind scheme
  (Fig 7): per-destination local sub-buffers flushed to round-robin
  global page owners, written through independent I/O.

:mod:`repro.io.layout` implements the Fig 8 block-block-block
partitioning of S3D's 3D/4D checkpoint arrays, and :mod:`repro.io.s3dio`
the checkpoint kernel itself. All write paths are *functionally* real —
the bytes that land in the simulated file are checked against the
canonical global array — while elapsed time comes from the file
system's cost model.
"""

from repro.io.filesystem import SimFileSystem, FSConfig, lustre, gpfs
from repro.io.layout import BlockLayout
from repro.io.fortranio import fortran_write_checkpoint
from repro.io.mpiio import independent_write, collective_write
from repro.io.caching import MPIIOCache
from repro.io.writebehind import TwoStageWriteBehind
from repro.io.s3dio import S3DCheckpoint
from repro.io.restart import (
    load_solver_state,
    save_solver_state,
    verify_solver_state,
)

__all__ = [
    "SimFileSystem",
    "FSConfig",
    "lustre",
    "gpfs",
    "BlockLayout",
    "fortran_write_checkpoint",
    "independent_write",
    "collective_write",
    "MPIIOCache",
    "TwoStageWriteBehind",
    "S3DCheckpoint",
    "save_solver_state",
    "load_solver_state",
    "verify_solver_state",
]
