"""Stencil sweeps in the array's own layout, in cache-sized field groups.

The derivative and filter operators both sweep a 1-D stencil along one
axis of an ``(nfields,) + S`` stack. Transposing the stack so that axis
leads (``moveaxis`` into a padded copy, a transposed temporary and a
staged transposed result) costs three stack-sized scratch arrays per
axis and three extra passes over memory — the materialised
intermediates §4.1 of the paper removes from the diffusive-flux loops.
Here the sweep stays in the native layout: the ghost pad grows along
the requested axis only, a shift along that axis is a shift of the flat
view by the axis stride (:func:`flat_source`) — so every stencil term is
one long contiguous pass, for the strided axes too — the result lands
directly in ``out``, and the stack is walked in groups of fields small
enough that the pad, the accumulator and the term temporary a sweep
needs stay cache-resident.

Grouping never enters the arithmetic (every output element is the same
sequence of IEEE operations on the same inputs whichever fields share a
pass), so results are bitwise those of the per-field reference sweeps.
"""

from __future__ import annotations

import math

import numpy as np

#: byte budget of one sweep group: the stack is swept in groups of whole
#: fields whose source fits in it (at least one field; a stack that fits
#: is one group). A sweep touches five group-sized arrays — source, pad,
#: accumulator, term temporary, destination — and 256 KiB keeps them in a
#: 2 MiB L2: measured best or equal of 128 KiB ... 1 MiB on every stack
#: shape of the ledger workloads but the 2-D jet's (docs/PERFORMANCE.md).
GROUP_BYTES = 1 << 18


class SweepScratch:
    """Named scratch buffers of group size, reused across sweeps.

    A buffer is a flat array handed out as a contiguous view of the
    requested shape and only ever regrown, so alternating stack shapes
    (the RHS sweeps a gradient stack and a flux stack in turn) allocate
    nothing once the largest group has been seen. One instance is shared
    by the per-axis operators of a grid: sweeps run one at a time.
    """

    def __init__(self):
        self._flat: dict = {}

    def view(self, name: str, shape) -> np.ndarray:
        size = math.prod(shape)
        buf = self._flat.get(name)
        if buf is None or buf.size < size:
            buf = self._flat[name] = np.empty(size)
        return buf[:size].reshape(shape)

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._flat.values())

    def __len__(self) -> int:
        return len(self._flat)


def leading(a, axis: int):
    """View of ``a`` with ``axis`` moved to the front (``np.moveaxis``
    without its argument normalisation, which costs more than a small
    sweep's boundary rows)."""
    return a.transpose((axis,) + tuple(range(axis)) + tuple(range(axis + 1, a.ndim)))


def along(axis: int, start, stop=None, step=None):
    """Index selecting ``start:stop:step`` along ``axis`` (all of the others)."""
    return (slice(None),) * axis + (slice(start, stop, step),)


def field_groups(f, out, axis: int, ghosts=None):
    """Yield ``(f_group, out_group, ghosts_group)`` views covering ``f``,
    ``out`` and the ``(lo, hi)`` ghost slabs of the sweep, if any.

    Groups run along the leading axis (the fields of a stack), or along
    the second axis when the sweep axis leads, and hold as many whole
    fields as fit :data:`GROUP_BYTES`.
    """
    gax = 0 if axis else 1
    if f.ndim <= gax or f.nbytes <= GROUP_BYTES:
        yield f, out, ghosts
        return
    nfields = f.shape[gax]
    per = max(1, GROUP_BYTES * nfields // f.nbytes)
    for g in range(0, nfields, per):
        sel = along(gax, g, g + per)
        yield f[sel], out[sel], ghosts and (ghosts[0][sel], ghosts[1][sel])


def sweep_source(f, out):
    """``(source, aliased)`` for a sweep of ``f`` into ``out``.

    ``out`` may be ``f`` itself (the sweep then reads each group from a
    private copy); any other overlap would let one group's result
    clobber the next group's input, so the source is copied whole.
    """
    if not np.may_share_memory(f, out):
        return f, False
    same = (
        f.__array_interface__["data"][0] == out.__array_interface__["data"][0]
        and f.strides == out.strides
    )
    return (f, True) if same else (f.copy(), False)


def flat_source(scratch: SweepScratch, f, axis: int, ghost: int, copy: bool,
                ghosts=None):
    """``(src, flat, stride)``: ``f`` as a C-contiguous array whose flat
    view turns a shift of ``k`` points along ``axis`` into a shift of
    ``k * stride`` elements — every stencil term is then one long
    contiguous 1-D pass, whichever axis is swept.

    ``ghost > 0`` (periodic axes) copies ``f`` into the ghost pad, grown
    by ``ghost`` points at each end of ``axis`` only. The pad ends have
    two fillers: the periodic wrap of ``f`` itself, so that
    ``roll(f, -k)[i] == src[ghost + i + k]`` along the axis, or — when
    ``f`` is one block of a decomposed periodic axis — the ``(lo, hi)``
    slabs ``ghosts``, the ``ghost`` rows its neighbours own beyond
    either end. Everything after the pad is the same sweep, so a block's
    result is bitwise the global operator's on the rows it owns.
    Without a pad ``f`` itself serves when it is already C-contiguous
    and ``copy`` (the caller's ``out`` is ``f``) does not ask for a
    private copy. Flat positions within the stencil reach of a row end
    combine neighbouring rows; callers never read them (ghost rows,
    boundary-closure rows).
    """
    n = f.shape[axis]
    if ghost:
        src = scratch.view("pad", f.shape[:axis] + (n + 2 * ghost,) + f.shape[axis + 1:])
        src[along(axis, ghost, ghost + n)] = f
        lo, hi = ghosts or (f[along(axis, n - ghost, n)], f[along(axis, 0, ghost)])
        src[along(axis, 0, ghost)] = lo
        src[along(axis, ghost + n, None)] = hi
    elif copy or not f.flags.c_contiguous:
        src = scratch.view("pad", f.shape)
        np.copyto(src, f)
    else:
        src = f
    return src, src.reshape(-1), math.prod(f.shape[axis + 1:])


def boundary_ends(scratch: SweepScratch, a, axis: int, width: int):
    """Rows ``0:width`` and ``n-width:n`` of ``a`` along ``axis``, staged
    as one ``(2, width) + rest`` array with that axis second.

    The one-sided boundary closures compute every row of both ends per
    stencil term; staged in one small contiguous copy (exact, so no bits
    change) a term reads both ends in one ufunc call, and reads rows
    rather than strided columns along a strided axis.
    """
    lead = leading(a, axis)
    ends = scratch.view("ends", (2, width) + lead.shape[1:])
    np.copyto(ends[0], lead[:width])
    np.copyto(ends[1], lead[lead.shape[0] - width :])
    return ends


def column(values, ndim: int, axis: int):
    """1-D per-point ``values`` shaped to broadcast along ``axis``."""
    return values.reshape((-1,) + (1,) * (ndim - 1 - axis))
