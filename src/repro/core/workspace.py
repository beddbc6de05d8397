"""Preallocated scratch-array arena for the RHS evaluation.

The paper's §4.1 identifies the diffusive-flux kernel as memory-bound;
on the Python side the analogous tax is allocator traffic — every
``np.empty``/temporary of grid size costs a malloc (an mmap plus page
faults for DNS-sized fields) and a cold first touch. The
:class:`Workspace` arena removes that tax: scratch arrays are requested
by *name* and handed back from a persistent pool, so a steady-state RHS
evaluation performs zero large allocations.

Allocation accounting feeds the ``rhs.bytes_allocated`` telemetry gauge:
it reads the bytes *newly* allocated by the most recent evaluation,
which settles to zero once the arena is warm (the benchmark-regression
harness and the tracemalloc test both key off this).
"""

from __future__ import annotations

import numpy as np

from repro.telemetry import resolve as resolve_telemetry


class Workspace:
    """Name-keyed arena of reusable scratch arrays.

    Parameters
    ----------
    telemetry:
        Telemetry backend used for the ``rhs.bytes_allocated`` gauge and
        the ``workspace.allocations`` counter; resolved like every other
        instrumented component.

    Notes
    -----
    Arrays are keyed by name; requesting the same name with a
    different shape reallocates that slot (the old buffer is dropped).
    Contents are *not* cleared between evaluations — callers own
    initialization, exactly like Fortran work arrays.
    """

    def __init__(self, telemetry=None):
        self.telemetry = resolve_telemetry(telemetry)
        self._arrays: dict = {}
        #: lifetime bytes allocated through this arena
        self.total_bytes_allocated = 0
        #: bytes allocated since :meth:`begin_eval`
        self.eval_bytes_allocated = 0

    # ------------------------------------------------------------------
    def array(self, name: str, shape):
        """A persistent float scratch array of the given shape."""
        shape = tuple(int(s) for s in shape)
        arr = self._arrays.get(name)
        if arr is None or arr.shape != shape:
            arr = np.empty(shape)
            self._arrays[name] = arr
            self.total_bytes_allocated += arr.nbytes
            self.eval_bytes_allocated += arr.nbytes
            self.telemetry.counter("workspace.allocations").inc()
        return arr

    def zeros(self, name: str, shape):
        """Like :meth:`array` but zero-filled on every request."""
        arr = self.array(name, shape)
        arr.fill(0.0)
        return arr

    # ------------------------------------------------------------------
    def begin_eval(self) -> None:
        """Mark the start of one RHS evaluation for allocation tracking."""
        self.eval_bytes_allocated = 0

    def end_eval(self) -> None:
        """Publish the evaluation's newly-allocated bytes (0 when warm)."""
        self.telemetry.gauge("rhs.bytes_allocated").set(
            float(self.eval_bytes_allocated)
        )

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Resident size of the arena in bytes."""
        return sum(arr.nbytes for arr in self._arrays.values())

    def __len__(self) -> int:
        return len(self._arrays)

    def clear(self) -> None:
        """Drop every pooled array (memory returns to the allocator)."""
        self._arrays.clear()
