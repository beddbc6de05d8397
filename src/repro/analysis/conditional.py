"""Conditional statistics: the scatter/conditional-mean machinery of
Figs 11 and 13 (conditional mean and standard deviation of one field
binned on another)."""

from __future__ import annotations

import numpy as np


def conditional_mean(condition, value, bins=20, range_=None, min_count=2):
    """Mean and std of ``value`` conditioned on bins of ``condition``.

    Returns ``(centers, mean, std, count)`` arrays of length ``bins``;
    bins with fewer than ``min_count`` samples give NaN statistics.
    """
    cond = np.asarray(condition, dtype=float).ravel()
    val = np.asarray(value, dtype=float).ravel()
    if cond.shape != val.shape:
        raise ValueError("condition and value must have equal size")
    if range_ is None:
        lo, hi = float(cond.min()), float(cond.max())
        if lo == hi:
            hi = lo + 1.0
    else:
        lo, hi = range_
    edges = np.linspace(lo, hi, bins + 1)
    which = np.clip(np.digitize(cond, edges) - 1, 0, bins - 1)
    count = np.bincount(which, minlength=bins).astype(float)
    s1 = np.bincount(which, weights=val, minlength=bins)
    s2 = np.bincount(which, weights=val * val, minlength=bins)
    with np.errstate(invalid="ignore", divide="ignore"):
        mean = s1 / count
        var = s2 / count - mean**2
    std = np.sqrt(np.maximum(var, 0.0))
    bad = count < min_count
    mean[bad] = np.nan
    std[bad] = np.nan
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers, mean, std, count.astype(int)
