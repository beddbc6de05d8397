"""Shared fused array kernels of the RHS evaluation.

The species diffusive-flux kernel here is the §4.1 restructured loop
nest in its final form: hoisted invariants, fused multiply-adds, and
in-place accumulation into caller-owned storage. Both the production
RHS (:mod:`repro.core.rhs`) and the loop-optimization study
(:mod:`repro.loopopt.diffflux`) call this one implementation, so the
Fig 4 kernel and the solver hot path can no longer drift apart.

Bitwise contract: for caller-prepared prefactors the result equals the
naively-written formulation exactly (only commutations of IEEE-754
multiply/add, which are exact, separate the two).
"""

from __future__ import annotations

import numpy as np


def species_diffusive_flux_dir(Y, grad_Y_dir, neg_rho_d, grad_lnw_dir, out,
                               soret_pref=None, grad_lnT_dir=None, tmp=None):
    """Species diffusive flux along one direction (eq. 19), fused.

    Computes, for every species ``i`` over the spatial shape ``S``::

        out[i] = neg_rho_d[i] * (grad_Y_dir[i] + Y[i] * grad_lnw_dir)
               [ + soret_pref[i] * grad_lnT_dir ]          (Soret, eq. 18)

    Parameters
    ----------
    Y:
        Mass fractions, ``(n,) + S``.
    grad_Y_dir:
        d(Y_i)/dx_b for this direction, ``(n,) + S``.
    neg_rho_d:
        ``-rho * D_i^mix`` (the caller fixes the sign/grouping so its own
        naive formulation is reproduced bitwise), ``(n,) + S``.
    grad_lnw_dir:
        d(ln wbar)/dx_b, i.e. ``grad(wbar)/wbar``, shape ``S``.
    out:
        Destination, ``(n,) + S``; fully overwritten.
    soret_pref, grad_lnT_dir:
        Optional thermal-diffusion prefactor ``(n,) + S`` and
        d(ln T)/dx_b of shape ``S``; when given, ``tmp`` (same shape as
        ``out``) provides allocation-free staging.

    Returns ``out``.
    """
    np.multiply(Y, grad_lnw_dir[None], out=out)
    out += grad_Y_dir
    out *= neg_rho_d
    if soret_pref is not None:
        if tmp is None:
            tmp = np.empty_like(out)
        np.multiply(soret_pref, grad_lnT_dir[None], out=tmp)
        out += tmp
    return out
