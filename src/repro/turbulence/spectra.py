"""Model turbulence energy spectra."""

from __future__ import annotations

import numpy as np


def passot_pouquet(k, u_rms: float, k_peak: float):
    """Passot-Pouquet spectrum: E(k) ~ k^4 exp(-2 (k/kp)^2).

    Normalized so that the integral of E(k) equals (3/2) u_rms^2 for a
    3D field (isotropic turbulence kinetic energy).
    """
    k = np.asarray(k, dtype=float)
    q2 = 1.5 * u_rms**2
    # integral of x^4 exp(-2 x^2) dx over [0, inf) = 3 sqrt(pi/2) / 32
    norm = q2 / (k_peak * 3.0 * np.sqrt(np.pi / 2.0) / 32.0)
    x = k / k_peak
    return norm * x**4 * np.exp(-2.0 * x**2)
