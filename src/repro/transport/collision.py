"""Lennard-Jones collision integrals (Neufeld, Janzen & Aziz 1972 fits).

The reduced collision integrals Omega^(1,1)* and Omega^(2,2)* as functions
of the reduced temperature T* = kT/eps. Accuracy of the fits is ~0.1 % over
0.3 <= T* <= 100, which covers all combustion-relevant conditions.
"""

from __future__ import annotations

import numpy as np


#: The Neufeld fits as data, ``((c0, p0), (c1, b1), ...)`` for
#: ``c0 * t**p0 + sum_k c_k * exp(b_k * t)``; the streamed evaluation
#: kernel of :mod:`repro.transport.mixture` folds its per-species and
#: per-pair constants from the same tables.
OMEGA22_FIT = ((1.16145, -0.14874), (0.52487, -0.77320), (2.16178, -2.43787))
OMEGA11_FIT = (
    (1.06036, -0.15610), (0.19300, -0.47635),
    (1.03587, -1.52996), (1.76474, -3.89411),
)


def _fit(t_star, fit):
    t = np.asarray(t_star, dtype=float)
    (c0, p0), *exps = fit
    total = c0 * t**p0
    for c, b in exps:
        total = total + c * np.exp(b * t)
    return total


def omega22(t_star):
    """Reduced collision integral Omega^(2,2)* (viscosity/conductivity)."""
    return _fit(t_star, OMEGA22_FIT)


def omega11(t_star):
    """Reduced collision integral Omega^(1,1)* (diffusion)."""
    return _fit(t_star, OMEGA11_FIT)
