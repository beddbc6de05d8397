"""Divergence-free synthetic turbulence (spectral method).

Velocity fields are synthesized in Fourier space with random phases,
amplitudes drawn from a target model spectrum, and solenoidal projection
(k . u_hat = 0), then inverse-transformed. This is the standard way DNS
codes seed "synthetic turbulence specified at the inflow" (Table 1,
footnote d).
"""

from __future__ import annotations

import numpy as np

from repro.turbulence.spectra import passot_pouquet


def synthetic_velocity_field(shape, lengths, u_rms: float, length_scale: float,
                             seed: int = 0):
    """Generate a periodic, divergence-free random velocity field.

    Parameters
    ----------
    shape, lengths:
        Grid points and physical extents (2 or 3 directions).
    u_rms:
        Target per-component RMS fluctuation [m/s].
    length_scale:
        Energetic length scale; the Passot-Pouquet spectrum peaks near
        ``k_peak = 2 pi / length_scale``.
    seed:
        RNG seed (fields are reproducible).

    Returns a list of ``ndim`` velocity-component arrays. The field is
    solenoidal to spectral accuracy and rescaled so each component has
    exactly ``u_rms`` RMS.
    """
    shape = tuple(int(n) for n in shape)
    ndim = len(shape)
    if ndim not in (2, 3):
        raise ValueError("synthetic turbulence needs 2 or 3 dimensions")
    rng = np.random.default_rng(seed)
    k_peak = 2.0 * np.pi / length_scale

    ks = [
        2.0 * np.pi * np.fft.fftfreq(n, d=L / n)
        for n, L in zip(shape, lengths)
    ]
    kvec = np.meshgrid(*ks, indexing="ij")
    k2 = sum(k * k for k in kvec)
    kmag = np.sqrt(k2)
    kmag_safe = np.where(kmag > 0, kmag, 1.0)

    # random complex field per component
    u_hat = [
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for _ in range(ndim)
    ]
    # solenoidal projection: u -= k (k.u)/k^2
    k_dot_u = sum(k * u for k, u in zip(kvec, u_hat))
    u_hat = [u - k * k_dot_u / np.where(k2 > 0, k2, 1.0) for k, u in zip(kvec, u_hat)]

    # shape amplitudes by the target spectrum: |u_hat| ~ sqrt(E(k)/k^(d-1))
    with np.errstate(divide="ignore", invalid="ignore"):
        amp = np.sqrt(passot_pouquet(kmag_safe, u_rms, k_peak)
                      / kmag_safe ** (ndim - 1))
    amp = np.where(kmag > 0, amp, 0.0)
    current = np.sqrt(sum(np.abs(u) ** 2 for u in u_hat))
    scale = np.where(current > 0, amp / np.where(current > 0, current, 1.0), 0.0)
    # zero the Nyquist planes: they have no conjugate partner, so taking
    # the real part there breaks the solenoidal constraint
    for axis, n in enumerate(shape):
        if n % 2 == 0:
            sl = [slice(None)] * ndim
            sl[axis] = n // 2
            scale[tuple(sl)] = 0.0
    u_hat = [u * scale for u in u_hat]

    vel = [np.real(np.fft.ifftn(u)) for u in u_hat]
    vel = [v - v.mean() for v in vel]
    # one common scale factor (per-component scaling would break the
    # solenoidal projection): match the mean per-component RMS exactly
    mean_rms = np.sqrt(np.mean([np.mean(v * v) for v in vel]))
    if mean_rms > 0:
        vel = [v * (u_rms / mean_rms) for v in vel]
    return vel
