"""Structured Cartesian grids, uniform or algebraically stretched.

The paper's jet configurations use uniform spacing in the streamwise and
spanwise directions and an algebraically stretched mesh in the transverse
direction (§6.2, §7.2). Stretching is handled through the coordinate
metric: derivatives are taken in index space and scaled by dxi/dx.
"""

from __future__ import annotations

import numpy as np


def _stretched_coords(n: int, length: float, ratio: float) -> np.ndarray:
    """Symmetric algebraic (tanh) stretching: fine at the centre.

    ``ratio`` > 1 concentrates points near ``length/2``; ratio == 1 is
    uniform. The mapping is x(s) = L/2 (1 + tanh(b(2s-1))/tanh(b)) with b
    chosen so the centre-to-edge spacing ratio is approximately ``ratio``.
    """
    if ratio <= 1.0:
        return np.linspace(0.0, length, n)
    b = np.log(ratio)
    s = np.linspace(0.0, 1.0, n)
    # inverse-tanh mapping: dx/ds is minimal at s = 1/2 (fine centre)
    t = np.tanh(b)
    return 0.5 * length * (1.0 + np.arctanh((2.0 * s - 1.0) * t) / b)


class Grid:
    """A 1-, 2-, or 3-dimensional structured Cartesian grid.

    Parameters
    ----------
    shape:
        Points per direction, e.g. ``(nx, ny)``.
    lengths:
        Physical extents per direction [m].
    periodic:
        Per-direction periodicity flags. Periodic directions exclude the
        duplicate endpoint (spacing L/n); non-periodic include both ends
        (spacing L/(n-1)).
    stretch:
        Per-direction centre-refinement ratios (1.0 = uniform). Only
        non-periodic directions may be stretched.
    """

    def __init__(self, shape, lengths, periodic=None, stretch=None):
        self.shape = tuple(int(n) for n in shape)
        self.ndim = len(self.shape)
        if self.ndim not in (1, 2, 3):
            raise ValueError("Grid supports 1-3 dimensions")
        self.lengths = tuple(float(l) for l in lengths)
        if len(self.lengths) != self.ndim:
            raise ValueError("lengths must match shape")
        self.periodic = tuple(bool(p) for p in (periodic or (False,) * self.ndim))
        stretch = tuple(stretch or (1.0,) * self.ndim)
        if len(self.periodic) != self.ndim or len(stretch) != self.ndim:
            raise ValueError("periodic/stretch must match shape")
        self.coords = []
        self.inv_metric = []  # dxi/dx per direction, shape (n,)
        for axis in range(self.ndim):
            n, length = self.shape[axis], self.lengths[axis]
            if n < 2:
                raise ValueError("need at least 2 points per direction")
            if self.periodic[axis]:
                if stretch[axis] != 1.0:
                    raise ValueError("periodic directions cannot be stretched")
                x = np.arange(n) * (length / n)
            else:
                x = _stretched_coords(n, length, stretch[axis])
            self.coords.append(x)
            # dx/dxi in index space; computed with the same high-order
            # operator the solver uses so the metric is discretely
            # consistent (2nd-order np.gradient loses an order of accuracy
            # at strongly stretched endpoints).
            if self.periodic[axis]:
                dxdxi = np.full(n, length / n)
            else:
                d = np.diff(x)
                if np.allclose(d, d[0], rtol=1e-12):
                    dxdxi = np.full(n, d[0])
                else:
                    from repro.core.derivatives import DerivativeOperator

                    op = DerivativeOperator(n, 1.0, periodic=False)
                    dxdxi = op.apply(x)
            self.inv_metric.append(1.0 / dxdxi)
        #: smallest physical spacing (CFL limiter)
        self.min_spacing = min(
            float(np.min(np.diff(x))) if len(x) > 1 else np.inf for x in self.coords
        )

    def block(self, slices) -> "Grid":
        """The index sub-box ``slices`` of this grid, as a grid.

        Coordinates and metric are *slices* of this grid's, so a
        derivative on a block scales by the very numbers the global
        operator uses (a grid rebuilt from the block's extent would
        differ in the last bit). Periodicity is the global grid's: what
        lies beyond an end the block does not reach is its neighbour's
        rows, supplied to the sweeps as ghost slabs.
        """
        box = object.__new__(Grid)
        box.coords = [x[s] for x, s in zip(self.coords, slices)]
        box.inv_metric = [m[s] for m, s in zip(self.inv_metric, slices)]
        box.shape = tuple(len(x) for x in box.coords)
        box.ndim = self.ndim
        box.periodic = self.periodic
        box.lengths = tuple(
            length * len(x) / n if wraps else float(x[-1] - x[0])
            for length, x, n, wraps in zip(self.lengths, box.coords,
                                           self.shape, self.periodic))
        box.min_spacing = self.min_spacing
        return box

    def spacing(self, axis: int) -> float:
        """Uniform spacing of direction ``axis`` (error if stretched)."""
        d = np.diff(self.coords[axis])
        if d.size and not np.allclose(d, d[0], rtol=1e-10):
            raise ValueError(f"axis {axis} is stretched; no single spacing")
        return float(d[0])

    def meshgrid(self):
        """Coordinate arrays of shape ``self.shape`` (ij indexing)."""
        return np.meshgrid(*self.coords, indexing="ij")

    @property
    def n_points(self) -> int:
        out = 1
        for n in self.shape:
            out *= n
        return out

    def cell_volumes(self) -> np.ndarray:
        """Quadrature weights (trapezoidal) for volume integrals, shape S."""
        weights = []
        for axis in range(self.ndim):
            x = self.coords[axis]
            if self.periodic[axis]:
                w = np.full(len(x), self.lengths[axis] / len(x))
            else:
                w = np.zeros(len(x))
                w[1:] += 0.5 * np.diff(x)
                w[:-1] += 0.5 * np.diff(x)
            weights.append(w)
        out = weights[0]
        for w in weights[1:]:
            out = np.multiply.outer(out, w)
        return out

    def __repr__(self) -> str:
        return (
            f"Grid(shape={self.shape}, lengths={self.lengths}, "
            f"periodic={self.periodic})"
        )
