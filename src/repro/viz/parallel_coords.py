"""Parallel-coordinates brushing interface (§8.2, Fig 15).

Selected points of the multivariate volume are polylines whose vertices
lie on parallel axes (one per variable); brushing an interval on any
axis selects the voxels whose polylines pass through it, and the
selection highlights the corresponding spatial region — the workflow
the paper uses to find, e.g., the negative spatial correlation between
scalar dissipation (chi) and OH near the stoichiometric isosurface.
"""

from __future__ import annotations

import numpy as np


class ParallelCoordinates:
    """Brushing-capable parallel-coordinates model of a multivariate field.

    Parameters
    ----------
    variables:
        Mapping of variable name -> field array; all fields share one
        spatial shape (the voxel grid).
    """

    def __init__(self, variables: dict):
        if not variables:
            raise ValueError("need at least one variable")
        self.names = list(variables)
        shape = None
        self.data = {}
        for name, field in variables.items():
            f = np.asarray(field, dtype=float)
            if shape is None:
                shape = f.shape
            elif f.shape != shape:
                raise ValueError(f"{name} shape {f.shape} != {shape}")
            self.data[name] = f.ravel()
        self.shape = shape
        self.n_points = int(np.prod(shape))
        self.ranges = {
            name: (float(v.min()), float(v.max())) for name, v in self.data.items()
        }
        self._brushes: dict = {}

    # ------------------------------------------------------------------
    def normalized(self, name: str) -> np.ndarray:
        """Axis coordinate of every voxel for variable ``name`` in [0,1]."""
        v = self.data[name]
        lo, hi = self.ranges[name]
        return (v - lo) / (hi - lo) if hi > lo else np.zeros_like(v)

    def brush(self, name: str, lo: float, hi: float) -> None:
        """Select the interval [lo, hi] (raw units) on one axis.

        Brushes on different axes intersect (logical AND), like the
        transfer-function widgets of Fig 15.
        """
        if name not in self.data:
            raise KeyError(name)
        if hi < lo:
            lo, hi = hi, lo
        self._brushes[name] = (float(lo), float(hi))

    def selection(self) -> np.ndarray:
        """Boolean voxel mask (spatial shape) of the brushed region."""
        mask = np.ones(self.n_points, dtype=bool)
        for name, (lo, hi) in self._brushes.items():
            v = self.data[name]
            mask &= (v >= lo) & (v <= hi)
        return mask.reshape(self.shape)

    # ------------------------------------------------------------------
    def polylines(self, n_max: int = 200, seed: int = 0):
        """Sampled polylines of the selection: array (n_lines, n_axes) of
        normalized vertex heights — what the interface draws."""
        idx = np.nonzero(self.selection().ravel())[0]
        if idx.size > n_max:
            idx = np.random.default_rng(seed).choice(idx, size=n_max, replace=False)
        cols = [self.normalized(name)[idx] for name in self.names]
        return np.stack(cols, axis=1)

    def correlation(self, name_a: str, name_b: str) -> float:
        """Pearson correlation of two variables over the selection.

        The Fig 15 use case: chi vs OH near the stoichiometric surface
        comes out negative.
        """
        mask = self.selection().ravel()
        a = self.data[name_a][mask]
        b = self.data[name_b][mask]
        if a.size < 2 or a.std() == 0 or b.std() == 0:
            return float("nan")
        return float(np.corrcoef(a, b)[0, 1])
