"""Tenth-order explicit filter (11-point stencil).

S3D applies a 10th-order filter to remove spurious high-frequency
fluctuations that the non-dissipative central scheme would otherwise let
accumulate (§2.6). The filter is constructed from the 10th-difference
operator:

    F(f)_i = f_i - (alpha / 2^10) * sum_{k=-5}^{5} (-1)^k C(10, 5+k) f_{i+k}

With ``alpha = 1`` the Nyquist (odd-even) mode is annihilated exactly
while constants — and all polynomials up to degree 9 — pass through
unchanged, so the formal order of the underlying scheme is preserved.

Near non-periodic boundaries the filter order is reduced progressively
(Gaitonde-Visbal style): the point at distance j from the boundary uses
the centred 2j-th difference filter of half-width j, and the boundary
point itself is left unfiltered. This keeps dissipation active where
the one-sided derivative closures need it most, which is essential for
long-time stability with characteristic boundary conditions.

Like the derivative operator, the filter is allocation-free once warm
and sweeps in the array's own layout, in cache-sized groups of fields
(:mod:`repro.core.stencil`): no transposed copy of the stack, a ghost pad
grown along the filtered axis only, the correction accumulated as long
contiguous passes. Results can land in a caller-supplied ``out`` — which
may alias the input, since a group's correction is fully assembled
before the final subtraction. Stacked ``(nfields, ...)`` arrays filter
via the ``axis`` argument. All paths are bitwise identical to the
original formulation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.stencil import (
    SweepScratch, along, boundary_ends, field_groups, flat_source, leading,
    sweep_source,
)

#: filter stencil half-width
FILTER_HALF_WIDTH = 5

#: 10th-difference coefficients (-1)^k C(10, 5+k) for k = -5..5
#: (j = k + 5, and (-1)^k = -(-1)^j)
_DIFF10 = np.array([-math.comb(10, j) * (-1) ** j for j in range(11)], dtype=float)


class FilterOperator:
    """Explicit 10th-order low-pass filter along one direction."""

    def __init__(self, n: int, periodic: bool = False, alpha: float = 1.0,
                 telemetry=None):
        self.n = int(n)
        self.periodic = bool(periodic)
        # kernel tracing: None when disabled — one attribute test per apply
        self.telemetry = telemetry if (telemetry is not None and telemetry.enabled) else None
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("filter strength alpha must be in [0, 1]")
        self.alpha = float(alpha)
        if not self.periodic:
            self._require_full_stencil()
        #: stencil weights for the correction term, k = -5..5
        self.weights = self.alpha * _DIFF10 / 2.0**10
        # reduced-order boundary filter rows: point j from the boundary
        # uses the 2j-th difference filter (half-width j), j = 1..4
        self._boundary_weights = [
            self.alpha
            * np.array([(-1) ** (k + j) * math.comb(2 * j, k) for k in range(2 * j + 1)])
            / 2.0 ** (2 * j)
            for j in range(1, FILTER_HALF_WIDTH)
        ]
        #: term m's weight of rows j = 0..w-1 ((2w-1, w); row j has terms
        #: m = 0..2j, the rest of the table is never read)
        self._row_terms = np.zeros((2 * FILTER_HALF_WIDTH - 1, FILTER_HALF_WIDTH))
        for j, bw in enumerate(self._boundary_weights, start=1):
            self._row_terms[: 2 * j + 1, j] = bw
        self._scratch = SweepScratch()

    def _require_full_stencil(self):
        if self.n < 2 * FILTER_HALF_WIDTH + 1:
            raise ValueError(
                f"direction needs at least {2 * FILTER_HALF_WIDTH + 1} points "
                f"for the 10th-order filter, got {self.n}"
            )

    def apply(self, f, axis: int = 0, out=None, ghosts=None):
        """Filter ``f`` along ``axis``.

        ``out``, when given, receives the result with no internal result
        allocation and may alias ``f`` (in-place filtering).

        ``ghosts = (lo, hi)``, as for
        :meth:`~repro.core.derivatives.DerivativeOperator.apply`: ``f``
        is one block of a decomposed periodic axis and the
        :data:`FILTER_HALF_WIDTH` rows beyond either end come from its
        neighbours instead of the periodic wrap.
        """
        f = np.asarray(f, dtype=float)
        if f.shape[axis] != self.n:
            raise ValueError(f"axis {axis} has length {f.shape[axis]}, expected {self.n}")
        if out is None:
            out = np.empty_like(f)
        elif out.shape != f.shape:
            raise ValueError(f"out has shape {out.shape}, expected {f.shape}")
        if ghosts is None:
            self._require_full_stencil()
        elif not self.periodic:
            raise ValueError("ghost slabs fill the pad of a periodic operator")
        if self.telemetry is not None:
            with self.telemetry.span("FILTER", points=f.size):
                self._dispatch(f, axis, out, ghosts)
        else:
            self._dispatch(f, axis, out, ghosts)
        return out

    __call__ = apply

    def _dispatch(self, f, axis, out, ghosts):
        axis %= f.ndim
        src, aliased = sweep_source(f, out)
        for f_group, out_group, g_group in field_groups(src, out, axis, ghosts):
            self._sweep(f_group, out_group, axis, aliased, g_group)

    def _sweep(self, f, out, axis, aliased, ghosts=None):
        """One group of fields: ``out <- f - correction``.

        The correction accumulates over the flat view of the source (see
        :func:`~repro.core.stencil.flat_source`) and is fully assembled
        before the one strided pass that subtracts it into ``out``.
        """
        n, w = self.n, FILTER_HALF_WIDTH
        sc = self._scratch
        ghost = w if self.periodic else 0
        src, flat, stride = flat_source(sc, f, axis, ghost, aliased, ghosts)
        reach = w * stride
        size = flat.size
        acc = sc.view("acc", src.shape)
        corr = acc.reshape(-1)[reach : size - reach]
        tmp = sc.view("tmp", corr.shape)
        for k in range(-w, w + 1):
            term = corr if k == -w else tmp
            np.multiply(flat[reach + k * stride : size - reach + k * stride],
                        self.weights[k + w], out=term)
            if k > -w:
                corr += tmp
        if self.periodic:
            centre = along(axis, w, w + n)
            np.subtract(src[centre], acc[centre], out=out)
            return
        interior = along(axis, w, n - w)
        np.subtract(src[interior], acc[interior], out=out[interior])
        # reduced-order rows at distance j = 1..w-1 from each boundary
        # (rows 0 and n-1 keep a zero correction: unfiltered); rows[0, j]
        # is the correction at distance j from the low end, rows[1, j]
        # from the high end. Every row adds its own terms m = 0..2j in
        # ascending order, all rows that have a term m at once: at the
        # low end it reads head row m, at the high end tail row
        # span - 1 - 2j + m
        span = 2 * w - 1
        head, tail = boundary_ends(sc, src, axis, span)
        rows = sc.view("rows", (2, w) + head.shape[1:])
        rows.fill(0.0)
        row = sc.view("row", rows.shape)
        wts = self._row_terms.reshape(self._row_terms.shape + (1,) * (f.ndim - 1))
        for m in range(span):
            j0 = max(1, (m + 1) // 2)  # the first row with a term m
            np.multiply(head[m : m + 1], wts[m, j0:], out=row[0, j0:])
            np.multiply(tail[m : span - 2 * j0 + m : 2][::-1], wts[m, j0:],
                        out=row[1, j0:])
            rows[:, j0:] += row[:, j0:]
        np.subtract(head[:w], rows[0],
                    out=leading(out[along(axis, 0, w)], axis))
        np.subtract(tail[: span - w - 1 : -1], rows[1],
                    out=leading(out[along(axis, n - 1, n - w - 1, -1)], axis))


def filter_operators(grid, alpha: float = 1.0, telemetry=None):
    """One :class:`FilterOperator` per grid direction (sharing one
    :class:`~repro.core.stencil.SweepScratch`, like the derivatives)."""
    filters = [
        FilterOperator(grid.shape[axis], periodic=grid.periodic[axis], alpha=alpha,
                       telemetry=telemetry)
        for axis in range(grid.ndim)
    ]
    for filt in filters[1:]:
        filt._scratch = filters[0]._scratch
    return filters
