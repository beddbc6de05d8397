"""Numba JIT backend: fused nopython kernels over the NumPy arenas.

The kernels fuse exactly the loops NumPy cannot: the ghost-padded
stencil sweeps become single passes over ``(n, m)`` views (instead of
~8 whole-array slice operations), and the Arrhenius/falloff/third-body
production-rate chains run as one pass per cell over the packed
mechanism arrays from :mod:`repro.backend.packs` — no ``(Nr,)+S`` or
``(Ns,)+S`` temporaries at all. The Newton temperature inversion is the
host solve (:meth:`~repro.backend.ArrayBackend.temperature_from_energy`).

Arrays stay plain NumPy (the arena is shared with the reference
backend); only execution changes. Results are *not* bitwise identical to
the reference — per-cell accumulation order and libm differences move
the last ulp — so this backend is verified by the tolerance-based
conformance battery (≤ 1e-12 relative) in ``tests/test_backend.py``.

The module imports cleanly without numba: the backend registers itself
but reports unavailability, and resolving it raises
:class:`~repro.backend.BackendUnavailable` naming the missing package.
JIT compilation is lazy (first invocation per kernel) and recorded in
``compile_count`` / ``compile_seconds`` for the telemetry gauges.
"""

from __future__ import annotations

import time

import numpy as np

from repro.backend import ArrayBackend, register_backend
from repro.backend.packs import KineticsPack
from repro.util.constants import RU, P_ATM

try:  # pragma: no cover - exercised only where numba is installed
    import numba
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the common container case
    HAVE_NUMBA = False

_TINY = 1e-300


if HAVE_NUMBA:  # pragma: no cover - compiled/executed only with numba

    @njit(cache=True, parallel=True)
    def _deriv_periodic(f, coeffs, inv_metric, out):
        n, m = f.shape
        for i in prange(n):
            im = inv_metric[i]
            for j in range(m):
                acc = 0.0
                for k in range(1, coeffs.shape[0] + 1):
                    acc += coeffs[k - 1] * (f[(i + k) % n, j] - f[(i - k) % n, j])
                out[i, j] = acc * im

    @njit(cache=True, parallel=True)
    def _deriv_boundary(f, coeffs, w_lo, w_hi, inv_metric, out):
        n, m = f.shape
        w = coeffs.shape[0]
        bw = w_lo.shape[0]
        nb = w_lo.shape[1]
        for i in prange(n):
            im = inv_metric[i]
            if i < bw:
                for j in range(m):
                    acc = 0.0
                    for k in range(nb):
                        acc += w_lo[i, k] * f[k, j]
                    out[i, j] = acc * im
            elif i >= n - bw:
                ii = i - (n - bw)
                for j in range(m):
                    acc = 0.0
                    for k in range(nb):
                        acc += w_hi[ii, k] * f[n - nb + k, j]
                    out[i, j] = acc * im
            elif i < w or i >= n - w:
                # rows between the closures and the first full stencil
                for j in range(m):
                    out[i, j] = 0.0
            else:
                for j in range(m):
                    acc = 0.0
                    for k in range(1, w + 1):
                        acc += coeffs[k - 1] * (f[i + k, j] - f[i - k, j])
                    out[i, j] = acc * im

    @njit(cache=True, parallel=True)
    def _filter_periodic(f, weights, out):
        n, m = f.shape
        w = weights.shape[0] // 2
        for i in prange(n):
            for j in range(m):
                corr = 0.0
                for k in range(-w, w + 1):
                    corr += weights[k + w] * f[(i + k) % n, j]
                out[i, j] = f[i, j] - corr

    @njit(cache=True, parallel=True)
    def _filter_boundary(f, weights, bweights, out):
        # bweights: (w-1, 2w+1) padded; row j-1 holds the 2j-th
        # difference filter of half-width j for the point at distance j
        n, m = f.shape
        w = weights.shape[0] // 2
        for i in prange(n):
            if i == 0 or i == n - 1:
                for j in range(m):
                    out[i, j] = f[i, j]
            elif i < w or i >= n - w:
                dist = i if i < w else n - 1 - i
                for j in range(m):
                    corr = 0.0
                    for k in range(-dist, dist + 1):
                        corr += bweights[dist - 1, k + dist] * f[i + k, j]
                    out[i, j] = f[i, j] - corr
            else:
                for j in range(m):
                    corr = 0.0
                    for k in range(-w, w + 1):
                        corr += weights[k + w] * f[i + k, j]
                    out[i, j] = f[i, j] - corr

    @njit(cache=True, parallel=True)
    def _production_rates(
        rho, T, Y, weights, lo, hi, tmid,
        A, b, Ea, fo_kind, fo_A, fo_b, fo_Ea, fo_params,
        tb_kind, tb_eff, tb_scale, reversible, delta_nu,
        fwd_ptr, fwd_idx, fwd_nu, rev_ptr, rev_idx, rev_nu,
        net_ptr, net_idx, net_nu, sp_ptr, sp_idx, sp_nu,
        out,
    ):
        ns = Y.shape[0]
        nr = A.shape[0]
        m = T.shape[0]
        for c in prange(m):
            t = T[c]
            logt = np.log(t)
            C = np.empty(ns)
            cpos = np.empty(ns)
            g = np.empty(ns)
            csum = 0.0
            for i in range(ns):
                ci = rho[c] * Y[i, c] / weights[i]
                C[i] = ci
                cpos[i] = ci if ci > 0.0 else 0.0
                csum += ci
                if t < tmid[i]:
                    a = lo[i]
                else:
                    a = hi[i]
                poly = a[0] + t * (
                    a[1] / 2 + t * (a[2] / 3 + t * (a[3] / 4 + t * a[4] / 5))
                )
                h = RU * (t * poly + a[5])
                s = RU * (
                    a[0] * logt
                    + t * (a[1] + t * (a[2] / 2 + t * (a[3] / 3 + t * a[4] / 4)))
                    + a[6]
                )
                g[i] = h / (RU * t) - s / RU
            pow_base = P_ATM / (RU * t)
            q = np.empty(nr)
            for j in range(nr):
                kf = A[j] * t ** b[j]
                if Ea[j] != 0.0:
                    kf *= np.exp(-Ea[j] / (RU * t))
                if fo_kind[j] >= 0:
                    if tb_kind[j] == 1:
                        mconc = 0.0
                        for i in range(ns):
                            mconc += tb_eff[j, i] * C[i]
                    else:
                        mconc = csum
                    k0 = fo_A[j] * t ** fo_b[j]
                    if fo_Ea[j] != 0.0:
                        k0 *= np.exp(-fo_Ea[j] / (RU * t))
                    denom = kf if kf > _TINY else _TINY
                    pr = k0 * mconc / denom
                    F = 1.0
                    if fo_kind[j] >= 1:
                        if fo_kind[j] == 1:
                            fc = fo_params[j, 0]
                        else:
                            a0 = fo_params[j, 0]
                            fc = (1.0 - a0) * np.exp(-t / fo_params[j, 1]) + a0 * np.exp(
                                -t / fo_params[j, 2]
                            )
                            if fo_kind[j] == 3:
                                fc += np.exp(-fo_params[j, 3] / t)
                        fcc = fc if fc > _TINY else _TINY
                        prc = pr if pr > _TINY else _TINY
                        log_fc = np.log10(fcc)
                        log_pr = np.log10(prc)
                        cc = -0.4 - 0.67 * log_fc
                        nn = 0.75 - 1.27 * log_fc
                        f1 = (log_pr + cc) / (nn - 0.14 * (log_pr + cc))
                        F = 10.0 ** (log_fc / (1.0 + f1 * f1))
                    kf = kf * (pr / (1.0 + pr)) * F
                dg = 0.0
                for p in range(net_ptr[j], net_ptr[j + 1]):
                    dg += net_nu[p] * g[net_idx[p]]
                kc = np.exp(-dg)
                dn = delta_nu[j]
                if dn != 0.0:
                    idn = int(dn)
                    if dn == idn:
                        if idn > 0:
                            for _ in range(idn):
                                kc *= pow_base
                        else:
                            for _ in range(-idn):
                                kc /= pow_base
                    else:
                        kc *= pow_base ** dn
                fwd = kf
                for p in range(fwd_ptr[j], fwd_ptr[j + 1]):
                    nu = fwd_nu[p]
                    cv = cpos[fwd_idx[p]]
                    if nu == 1.0:
                        fwd *= cv
                    else:
                        fwd *= cv ** nu
                rate = fwd
                if reversible[j] == 1:
                    kcf = kc if kc > _TINY else _TINY
                    rev = kf / kcf
                    for p in range(rev_ptr[j], rev_ptr[j + 1]):
                        nu = rev_nu[p]
                        cv = cpos[rev_idx[p]]
                        if nu == 1.0:
                            rev *= cv
                        else:
                            rev *= cv ** nu
                    rate = fwd - rev
                if tb_scale[j] == 1:
                    if tb_kind[j] == 1:
                        mconc = 0.0
                        for i in range(ns):
                            mconc += tb_eff[j, i] * C[i]
                    else:
                        mconc = csum
                    rate *= mconc
                q[j] = rate
            for i in range(ns):
                acc = 0.0
                for p in range(sp_ptr[i], sp_ptr[i + 1]):
                    acc += sp_nu[p] * q[sp_idx[p]]
                out[i, c] = acc * weights[i]

    _KERNELS = {
        "deriv_periodic": _deriv_periodic,
        "deriv_boundary": _deriv_boundary,
        "filter_periodic": _filter_periodic,
        "filter_boundary": _filter_boundary,
        "production_rates": _production_rates,
    }
else:
    _KERNELS = {}


@register_backend
class NumbaBackend(ArrayBackend):
    """JIT backend over NumPy arrays; importability-gated on ``numba``."""

    name = "numba"
    is_reference = False
    missing_package = "numba"

    def __init__(self):
        super().__init__()
        self._timed: dict = {}
        self._kin_packs: dict = {}

    @classmethod
    def available(cls) -> bool:
        return HAVE_NUMBA

    @classmethod
    def skip_reason(cls) -> str | None:
        if HAVE_NUMBA:
            return None
        return "backend 'numba' requires the 'numba' package (not importable)"

    # ------------------------------------------------------------------
    def kernel(self, name: str):
        base = _KERNELS.get(name)
        if base is None:
            return None
        timed = self._timed.get(name)
        if timed is None:
            timed = self._wrap_timed(base)
            self._timed[name] = timed
        return timed

    def _wrap_timed(self, fn):
        """Record the JIT cost of a kernel's first (compiling) invocation."""
        state = {"first": True}

        def call(*args):
            if state["first"]:
                state["first"] = False
                t0 = time.perf_counter()
                result = fn(*args)
                self.compile_seconds += time.perf_counter() - t0
                self.compile_count += 1
                return result
            return fn(*args)

        return call

    # ------------------------------------------------------------------
    def _kin_pack(self, mech) -> KineticsPack:
        entry = self._kin_packs.get(id(mech))
        if entry is None:
            entry = (mech, KineticsPack.from_mechanism(mech))
            self._kin_packs[id(mech)] = entry
        return entry[1]

    # ------------------------------------------------------------------
    def production_rates(self, mech, rho, T, Y):
        if mech.kinetics is None:
            return np.zeros_like(np.asarray(Y, dtype=float))
        pk = self._kin_pack(mech)
        rho = np.ascontiguousarray(np.asarray(rho, dtype=float))
        T = np.ascontiguousarray(np.asarray(T, dtype=float))
        Y = np.ascontiguousarray(np.asarray(Y, dtype=float))
        out = np.empty((pk.ns,) + T.shape)
        kern = self.kernel("production_rates")
        kern(
            rho.reshape(-1), T.reshape(-1), Y.reshape(pk.ns, -1),
            pk.weights, pk.thermo.lo, pk.thermo.hi, pk.thermo.tmid,
            pk.A, pk.b, pk.Ea, pk.fo_kind, pk.fo_A, pk.fo_b, pk.fo_Ea,
            pk.fo_params, pk.tb_kind, pk.tb_eff, pk.tb_scale,
            pk.reversible, pk.delta_nu,
            pk.fwd_ptr, pk.fwd_idx, pk.fwd_nu,
            pk.rev_ptr, pk.rev_idx, pk.rev_nu,
            pk.net_ptr, pk.net_idx, pk.net_nu,
            pk.sp_ptr, pk.sp_idx, pk.sp_nu,
            out.reshape(pk.ns, -1),
        )
        return out
