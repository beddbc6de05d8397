"""Batch-shape-stable reductions for per-cell thermochemistry.

NumPy's ``a.sum(axis=0)`` over a leading species/state axis picks its
accumulation order from the array's memory layout: for a C-contiguous
``(Ns, N)`` array with ``N > 1`` it accumulates row by row in index
order, but when the trailing dimensions collapse (``N == 1``, or a
single cell extracted from a field) the reduction degenerates to a
contiguous 1-D sum and switches to NumPy's unrolled/pairwise kernel.
The two orders round differently in the last ulp, so the same physical
cell can produce different bits depending on how many neighbours it was
batched with.

Per-cell chemistry must not have that property: the implicit kinetics
integrators advance shrinking active subsets, and the chemistry load
balancer ships arbitrary cell blocks between ranks — in both cases a
cell's result has to be a pure function of its own state, not of the
batch it happened to ride in.  :func:`axis0_sum` performs the reduction
in explicit index order, which is bitwise identical to NumPy's own
``N > 1`` row accumulation (verified by the chemistry test battery) and
simply extends that order to every batch shape.
"""
from __future__ import annotations

import numpy as np

__all__ = ["axis0_sum"]


def axis0_sum(a, out=None):
    """Sum ``a`` over axis 0 in strict index order.

    Equivalent to ``a.sum(axis=0)`` up to summation order; unlike the
    NumPy reduction the order never depends on the shape or memory
    layout of the trailing (batch) axes, so extracting one cell from a
    batch and reducing it alone gives bitwise-identical results. With
    ``out`` the sum is accumulated there (it must not overlap ``a``).
    """
    a = np.asarray(a)
    if a.shape[0] == 0:
        return np.zeros(a.shape[1:], dtype=a.dtype)
    if out is None:
        out = np.array(a[0], copy=True)
    else:
        np.copyto(out, a[0])
    for k in range(1, a.shape[0]):
        out += a[k]
    return out
