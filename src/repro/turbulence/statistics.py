"""Turbulence statistics: the derived quantities of Table 1.

Given a velocity-fluctuation field and a laminar-flame reference, this
module computes u', the dissipation-based turbulence length scale
``lt = u'^3 / eps``, the integral scale from the spanwise velocity
autocorrelation (the paper's ``l33``), and the non-dimensional groups of
Table 1: jet and turbulence Reynolds numbers, Karlovitz number
``(deltaL / lk)^2``, and Damkohler number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def rms_fluctuation(velocity) -> float:
    """Per-component RMS of the fluctuating velocity (mean removed)."""
    comps = [np.asarray(v, dtype=float) for v in velocity]
    var = np.mean([np.mean((v - v.mean()) ** 2) for v in comps])
    return float(np.sqrt(var))


def dissipation_rate(velocity, lengths, nu: float) -> float:
    """Mean TKE dissipation of a periodic field: eps = 2 nu <s_ij s_ij>.

    Gradients are computed spectrally (periodic directions assumed).
    """
    vel = [np.asarray(v, dtype=float) for v in velocity]
    shape = vel[0].shape
    ndim = len(shape)
    ks = [
        2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
        for n, L in zip(shape, lengths)
    ]
    kvec = np.meshgrid(*ks, indexing="ij")
    grads = [[None] * ndim for _ in range(ndim)]
    for a in range(ndim):
        v_hat = np.fft.fftn(vel[a])
        for b in range(ndim):
            grads[a][b] = np.real(np.fft.ifftn(1j * kvec[b] * v_hat))
    sij2 = 0.0
    for a in range(ndim):
        for b in range(ndim):
            s = 0.5 * (grads[a][b] + grads[b][a])
            sij2 = sij2 + np.mean(s * s)
    return float(2.0 * nu * sij2)


def integral_length_scale(v, length: float, axis: int = -1) -> float:
    """Integral scale from the autocorrelation along ``axis``.

    The paper's ``l33``: the integral of the (periodic) autocorrelation
    of one velocity component along one direction, integrated to its
    first zero crossing.
    """
    v = np.asarray(v, dtype=float)
    v = v - v.mean()
    n = v.shape[axis]
    v = np.moveaxis(v, axis, -1)
    # FFT autocorrelation along the last axis, averaged over the rest
    f = np.fft.fft(v, axis=-1)
    acf = np.real(np.fft.ifft(f * np.conj(f), axis=-1))
    acf = acf.reshape(-1, n).mean(axis=0)
    if acf[0] <= 0:
        return 0.0
    r = acf / acf[0]
    dx = length / n
    # integrate to first zero crossing (or half-domain)
    upper = n // 2
    cross = np.nonzero(r[:upper] <= 0.0)[0]
    stop = int(cross[0]) if cross.size else upper
    return float(np.trapezoid(r[: stop + 1], dx=dx))


@dataclass
class TurbulenceScales:
    """Derived turbulence/flame scales (one row of Table 1)."""

    u_rms: float
    dissipation: float
    lt: float            # u'^3 / eps
    l_integral: float    # autocorrelation integral scale (l33)
    kolmogorov: float    # (nu^3/eps)^(1/4)
    re_turb: float       # u' l33 / nu
    karlovitz: float     # (delta_L / l_k)^2
    damkohler: float     # (S_L l33) / (u' delta_L)

    def as_dict(self) -> dict:
        return {
            "u_rms": self.u_rms,
            "dissipation": self.dissipation,
            "lt": self.lt,
            "l_integral": self.l_integral,
            "kolmogorov": self.kolmogorov,
            "Re_t": self.re_turb,
            "Ka": self.karlovitz,
            "Da": self.damkohler,
        }


def turbulence_scales(velocity, lengths, nu: float, flame_speed: float,
                      flame_thickness: float) -> TurbulenceScales:
    """Compute all Table 1 derived quantities for a fluctuation field
    (integral scale along the last, spanwise, axis)."""
    u_rms = rms_fluctuation(velocity)
    eps = dissipation_rate(velocity, lengths, nu)
    lt = u_rms**3 / eps if eps > 0 else np.inf
    l33 = integral_length_scale(velocity[-1], lengths[-1], axis=-1)
    lk = (nu**3 / eps) ** 0.25 if eps > 0 else np.inf
    re_t = u_rms * l33 / nu
    ka = (flame_thickness / lk) ** 2 if np.isfinite(lk) else 0.0
    da = (flame_speed * l33) / (u_rms * flame_thickness) if u_rms > 0 else np.inf
    return TurbulenceScales(
        u_rms=u_rms,
        dissipation=eps,
        lt=lt,
        l_integral=l33,
        kolmogorov=lk,
        re_turb=re_t,
        karlovitz=ka,
        damkohler=da,
    )
