"""Flame-surface geometry: contours, wrinkling, pinch-off, lift-off.

Implements the 2D analogues of the §7.3 flame-surface diagnostics:
the c = c* iso-contour is extracted by marching squares, its total
length measures wrinkling-generated surface area, and the number of
disjoint contour pieces counts pinch-off / mutual-annihilation events
(Fig 12). Lift-off height (§6) is the smallest streamwise coordinate
where a chosen radical exceeds a threshold.
"""

from __future__ import annotations

import numpy as np

# marching-squares segment table: for each of the 16 corner-sign cases,
# the edges crossed (edge ids: 0 bottom, 1 right, 2 top, 3 left).
_CASES = {
    0: [], 15: [],
    1: [(3, 0)], 14: [(3, 0)],
    2: [(0, 1)], 13: [(0, 1)],
    4: [(1, 2)], 11: [(1, 2)],
    8: [(2, 3)], 7: [(2, 3)],
    3: [(3, 1)], 12: [(3, 1)],
    6: [(0, 2)], 9: [(0, 2)],
    5: [(3, 2), (0, 1)],  # saddle
    10: [(3, 0), (1, 2)],  # saddle
}


def _edge_point(edge, i, j, f, level, x, y):
    """Linear interpolation of the crossing point on cell edge ``edge``."""
    # cell corners: (i,j) (i+1,j) (i+1,j+1) (i,j+1) in (x, y) index space
    if edge == 0:  # bottom: (i,j)-(i+1,j)
        a, b = f[i, j], f[i + 1, j]
        t = (level - a) / (b - a)
        return x[i] + t * (x[i + 1] - x[i]), y[j]
    if edge == 1:  # right: (i+1,j)-(i+1,j+1)
        a, b = f[i + 1, j], f[i + 1, j + 1]
        t = (level - a) / (b - a)
        return x[i + 1], y[j] + t * (y[j + 1] - y[j])
    if edge == 2:  # top: (i+1,j+1)-(i,j+1)
        a, b = f[i, j + 1], f[i + 1, j + 1]
        t = (level - a) / (b - a)
        return x[i] + t * (x[i + 1] - x[i]), y[j + 1]
    # left: (i,j)-(i,j+1)
    a, b = f[i, j], f[i, j + 1]
    t = (level - a) / (b - a)
    return x[i], y[j] + t * (y[j + 1] - y[j])


def flame_contours(field, grid, level: float):
    """Marching-squares segments of the ``field == level`` contour.

    Returns an array of segments with shape (n_segments, 2, 2):
    [[x0, y0], [x1, y1]] per segment, in physical coordinates.
    """
    f = np.asarray(field, dtype=float)
    if f.ndim != 2:
        raise ValueError("flame_contours requires a 2D field")
    x, y = grid.coords[0], grid.coords[1]
    above = f > level
    # vectorized case index per cell
    c00 = above[:-1, :-1].astype(int)
    c10 = above[1:, :-1].astype(int)
    c11 = above[1:, 1:].astype(int)
    c01 = above[:-1, 1:].astype(int)
    case = c00 + 2 * c10 + 4 * c11 + 8 * c01
    cells = np.argwhere((case > 0) & (case < 15))
    segments = []
    for i, j in cells:
        for e0, e1 in _CASES[int(case[i, j])]:
            p0 = _edge_point(e0, i, j, f, level, x, y)
            p1 = _edge_point(e1, i, j, f, level, x, y)
            segments.append((p0, p1))
    return np.asarray(segments, dtype=float).reshape(-1, 2, 2)


def surface_length(segments) -> float:
    """Total contour length (2D flame 'surface area')."""
    seg = np.asarray(segments, dtype=float)
    if seg.size == 0:
        return 0.0
    d = seg[:, 1, :] - seg[:, 0, :]
    return float(np.sqrt((d * d).sum(axis=1)).sum())


def count_flame_pieces(segments, tol=1e-12) -> int:
    """Number of disjoint contour pieces (pinch-off counter, Fig 12).

    Segments sharing an endpoint (within tolerance) are connected; the
    count of connected components is returned. Endpoints are quantized
    to a tolerance grid for O(n) matching.
    """
    seg = np.asarray(segments, dtype=float)
    if seg.size == 0:
        return 0
    n = seg.shape[0]
    scale = max(np.abs(seg).max(), 1.0)
    q = np.round(seg / (tol * scale * 1e6)).astype(np.int64)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    point_map: dict = {}
    for k in range(n):
        for end in (0, 1):
            key = (q[k, end, 0], q[k, end, 1])
            if key in point_map:
                union(k, point_map[key])
            else:
                point_map[key] = k
    return len({find(k) for k in range(n)})


def liftoff_height(field, grid, threshold: float, axis: int = 0) -> float:
    """Smallest coordinate along ``axis`` where ``field > threshold``.

    The §6 lift-off diagnostic: with ``field`` = OH mass fraction and
    ``axis`` the streamwise direction, this is the flame-base height.
    Returns NaN if the field never exceeds the threshold.
    """
    f = np.asarray(field, dtype=float)
    mask = f > threshold
    hit = mask.any(axis=tuple(a for a in range(f.ndim) if a != axis))
    idx = np.nonzero(hit)[0]
    if idx.size == 0:
        return float("nan")
    return float(grid.coords[axis][idx[0]])
