"""Analytical Jacobian of the chemical source term.

This module differentiates the per-cell reactor source term

.. math::

    f(Y, T) = \\bigl(\\dot Y_1, \\ldots, \\dot Y_{N_s}, \\dot T\\bigr),
    \\qquad
    \\dot Y_i = \\frac{W_i \\dot\\omega_i}{\\rho},

with respect to the state ``z = (Y_1 .. Y_Ns, T)`` analytically, term by
term through the mechanism reaction graph: mass-action products
(including fractional CHEMKIN ``FORD`` orders), Arrhenius temperature
sensitivity, reverse rates via van 't Hoff differentiation of the
equilibrium constant, third-body enhancement, and Lindemann/Troe/
constant-``F_cent`` pressure-falloff blending. The thermodynamic
closure is ``"constant-volume"``, the fixed-density reactor of the
Strang reaction fractional step of the compressible solver (the split
sub-ODE holds ``rho`` and the conserved energy fixed):
:math:`\\dot T = -\\sum_i e_i \\dot\\omega_i / (\\rho c_v)` with
:math:`e_i = h_i - R_u T`. Here
:math:`\\partial C_i/\\partial Y_j = \\delta_{ij}\\rho/W_i`, so the species
block inherits the genuine reaction-graph sparsity.

Sparsity is declared structurally (:class:`JacobianPattern`, CSR) from
reactant/product participation, third-body efficiency support, and the
T row's mixture coupling; ``tests/test_jacobian.py`` pins that
every numerically nonzero entry lies inside the declared pattern (no
silent dense fill-in) and that the analytical entries match central
finite differences of the source term.

Everything here is evaluated as fixed-order elementwise NumPy over a
flat cell batch (no BLAS contractions), so per-cell Jacobian entries are
bitwise independent of the batch they are evaluated in — the same
invariance contract as :mod:`repro.chemistry.kinetics`, which the
implicit integrator (:mod:`repro.chemistry.implicit`) and the chemistry
load balancer rely on.
"""

from __future__ import annotations

import numpy as np

from repro.util.constants import RU, P_ATM
from repro.util.reduction import axis0_sum

#: Same log/ratio floor as :mod:`repro.chemistry.kinetics`.
_TINY = 1e-300

_LN10 = np.log(10.0)


class JacobianPattern:
    """Structural sparsity pattern of a source-term Jacobian, in CSR form.

    Built from a boolean dense mask; rows are states ``(Y_1..Y_Ns, T)``.
    """

    def __init__(self, mask):
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2 or mask.shape[0] != mask.shape[1]:
            raise ValueError(f"pattern mask must be square, got {mask.shape}")
        self.n = mask.shape[0]
        self.mask = mask
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        cols = []
        for i in range(self.n):
            row = np.nonzero(mask[i])[0]
            cols.append(row)
            indptr[i + 1] = indptr[i] + row.size
        self.indptr = indptr
        self.indices = (
            np.concatenate(cols) if cols else np.zeros(0, dtype=np.int64)
        )
        #: per-entry (row, col) pairs, CSR order
        self.rows = np.repeat(np.arange(self.n), np.diff(indptr))


def _nonzero_selector(eff):
    """Index of the nonzero entries of ``eff``: a slice when all are."""
    if eff is None or eff.all():
        return slice(None)
    return np.nonzero(eff)[0]


def _accumulate(acc, nu, x):
    """``acc += nu * x`` in place; ``nu = +-1`` skips the (exact) multiply."""
    if nu == 1.0:
        acc += x
    elif nu == -1.0:
        acc -= x
    else:
        acc += nu * x


def _safe_pow(base, e):
    """``base ** e`` for base >= 0 with the cheap-exponent fast paths.

    ``e == 1`` returns ``base`` itself: callers treat the result as
    read-only."""
    if e == 1.0:
        return base
    if e == 2.0:
        return base * base
    return base**e


def _pow_deriv(cpos, positive, e):
    """d(cpos**e)/dC, guarded at cpos == 0 (sub-gradient 0 there).

    ``positive`` is the 0/1 indicator of ``cpos > 0``, which is the
    derivative itself for ``e == 1`` (returned as is, read-only)."""
    if e == 1.0:
        return positive
    if e == 2.0:
        return 2.0 * cpos
    pos = cpos > 0.0
    safe = np.where(pos, cpos, 1.0)
    return np.where(pos, e * safe ** (e - 1.0), 0.0)


class SourceTermJacobian:
    """Analytical source term and Jacobian of the constant-volume reactor.

    Parameters
    ----------
    mech:
        A reacting :class:`~repro.chemistry.mechanism.Mechanism`.
    mode:
        ``"constant-volume"``, the one closure (see module docstring);
        any other value raises ``ValueError``.

    All batched entry points take flat cell batches: ``T`` of shape
    ``(N,)``, ``Y`` of shape ``(Ns, N)``, and the density ``rho``
    scalar or ``(N,)``. The source is returned as
    ``(Ns+1, N)`` (states-first, like every field in this repo); the
    Jacobian as ``(N, n, n)`` with ``n = Ns + 1`` (batched-linear-algebra
    layout, ready for the LU kernels in
    :mod:`repro.chemistry.implicit`).
    """

    def __init__(self, mech, mode: str = "constant-volume"):
        if mode != "constant-volume":
            raise ValueError(f"unknown jacobian mode {mode!r}; the one closure "
                             "is 'constant-volume'")
        if mech.kinetics is None:
            raise ValueError("SourceTermJacobian requires a reacting mechanism")
        self.mech = mech
        self.kin = mech.kinetics
        self.ns = mech.n_species
        self.n = self.ns + 1
        self._w = mech.weights  # (Ns,) kg/mol
        # Per-reaction precomputation mirroring KineticsEvaluator's sparse
        # participation lists (same index sets, same iteration order).
        self._rxns = []
        for j, rxn in enumerate(self.kin.reactions):
            self._rxns.append(
                {
                    "rxn": rxn,
                    "fwd": list(self.kin._fwd_terms[j]),
                    "rev": list(self.kin._rev_terms[j]) if rxn.reversible else [],
                    "net": list(self.kin._net_terms[j]),
                    "eff": self.kin._tb_eff[j],
                    # species with a nonzero efficiency: all of them (a
                    # slice, so row blocks stay views) or an index array
                    "eff_sel": _nonzero_selector(self.kin._tb_eff[j]),
                    "delta_nu": float(self.kin._delta_nu[j]),
                }
            )
        self.pattern = self._build_pattern()

    # ------------------------------------------------------------------
    # structural sparsity
    # ------------------------------------------------------------------
    def _build_pattern(self):
        """State-space ``(Y, T)`` pattern of the constant-volume closure."""
        ns = self.ns
        mask = np.zeros((self.n, self.n), dtype=bool)
        # reaction-graph dependence of each rate on C and T
        depC = np.zeros((ns, ns), dtype=bool)
        depT = np.zeros(ns, dtype=bool)
        for data in self._rxns:
            cols = {k for k, _ in data["fwd"]}
            cols |= {k for k, _ in data["rev"]}
            if data["eff"] is not None:
                cols |= {int(k) for k in np.nonzero(data["eff"])[0]}
            for i, _ in data["net"]:
                for k in cols:
                    depC[i, k] = True
                depT[i] = True
        # ∂C_k/∂Y_j = δ_kj ρ/W_k: graph sparsity survives verbatim.
        mask[:ns, :ns] = depC
        mask[:ns, ns] = depT
        if depT.any():
            # Ṫ depends on every Y_j through cv.
            mask[ns, :] = True
        return JacobianPattern(mask)

    # ------------------------------------------------------------------
    # inputs
    # ------------------------------------------------------------------
    def _check_shapes(self, T, Y, rho):
        """``(T, Y, rho)`` as float arrays, ``rho`` broadcast to ``T``."""
        T = np.asarray(T, dtype=float)
        Y = np.asarray(Y, dtype=float)
        if T.ndim != 1 or Y.ndim != 2 or Y.shape != (self.ns, T.shape[0]):
            raise ValueError(
                f"expected T (N,) and Y (Ns, N); got {T.shape} and {Y.shape}"
            )
        return T, Y, np.broadcast_to(np.asarray(rho, dtype=float), T.shape)

    # ------------------------------------------------------------------
    # source term
    # ------------------------------------------------------------------
    def source(self, T, Y, rho):
        """Reactor source f(z) = (Ẏ_1..Ẏ_Ns, Ṫ), shape (Ns+1, N).

        The species rates reuse :class:`KineticsEvaluator` verbatim, so
        they are bitwise consistent with the explicit RHS path for the
        same (T, C).
        """
        T, Y, rho = self._check_shapes(T, Y, rho)
        w = self._w[:, None]
        C = rho[None] * Y / w
        wdot = self.kin.production_rates_cells(T, C)  # mol/(m^3 s)
        f = np.empty((self.n, T.shape[0]))
        f[: self.ns] = wdot * w / rho[None]
        # one range partition serves both properties [J/mol, J/(mol K)]
        h_m, cp_m = self.mech.thermo.enthalpy_cp_molar(T)
        cp = axis0_sum(cp_m / w * Y)
        e_m = h_m - RU * T[None]
        cv = cp - self.mech.gas_constant(Y)
        f[self.ns] = -axis0_sum(e_m * wdot) / (rho * cv)
        return f

    # ------------------------------------------------------------------
    # Jacobian
    # ------------------------------------------------------------------
    def jacobian(self, T, Y, rho):
        """Analytical J = ∂f/∂z, shape (N, Ns+1, Ns+1)."""
        return self.source_and_jacobian(T, Y, rho)[1]

    def source_and_jacobian(self, T, Y, rho):
        """Fused (f, J) evaluation."""
        T, Y, rho = self._check_shapes(T, Y, rho)
        ns, N = self.ns, T.shape[0]
        w = self._w
        C = rho[None] * Y / w[:, None]
        cpos = np.maximum(C, 0.0)
        positive = np.where(cpos > 0.0, 1.0, 0.0)

        thermo = self.mech.thermo
        g_rt = thermo.gibbs_over_rt(T)  # (Ns, N)
        h_m = thermo.enthalpy_molar(T)
        cp_m = thermo.cp_molar(T)
        dcp_m = thermo.cp_derivative_molar(T)

        # concentration-stage accumulators
        dwC = np.zeros((ns, ns, N))  # ∂ω̇_i/∂C_j at fixed T
        dwT = np.zeros((ns, N))  # ∂ω̇_i/∂T at fixed C
        wdot = np.zeros((ns, N))

        # factors the reactions share, through the kinetics plan: T**n
        # per distinct exponent, Ru T, [M] per distinct efficiency vector
        # (read-only below) — the same expressions as the evaluator's
        kin = self.kin
        powT, rut, tbc = kin.shared_factors(T, C)
        invT = 1.0 / T
        rut_T = rut * T  # Ru T^2, associated as (Ru T) T
        p_rt = P_ATM / rut
        scratch = np.empty(N)
        for j, data in enumerate(self._rxns):
            rxn = data["rxn"]
            rate = rxn.rate
            kf = kin.arrhenius_into(
                np.empty(N), rate, kin._rate_slot[j], powT, rut, scratch
            )
            dlnkf = rate.n * invT + rate.Ea / rut_T

            eff = data["eff"]
            if eff is not None:
                m = tbc[kin._tb_group[j]]

            dkf_dm = None
            if rxn.falloff is not None:
                fo = rxn.falloff
                k0 = kin.arrhenius_into(
                    np.empty(N), fo.low, kin._low_slot[j], powT, rut, scratch
                )
                dlnk0 = fo.low.n * invT + fo.low.Ea / rut_T
                kinf_safe = np.maximum(kf, _TINY)
                pr = k0 * m / kinf_safe
                dpr_dm = k0 / kinf_safe
                dpr_dT = pr * (dlnk0 - dlnkf)
                F, dF_dpr, dF_dT = self._broadening_derivs(fo, T, pr)
                lin = pr / (1.0 + pr)
                dlin_dpr = 1.0 / ((1.0 + pr) * (1.0 + pr))
                dkinf = kf * dlnkf
                kf_eff = kf * lin * F
                dkf_dT_eff = (
                    dkinf * lin * F
                    + kf * (dlin_dpr * F + lin * dF_dpr) * dpr_dT
                    + kf * lin * dF_dT
                )
                dkf_dm = kf * (dlin_dpr * F + lin * dF_dpr) * dpr_dm
                kf, dkf_dT = kf_eff, dkf_dT_eff
            else:
                dkf_dT = kf * dlnkf

            # forward/reverse mass-action products and their per-column
            # derivatives (leave-one-out products over the sparse terms)
            pif, dpif = self._product_derivs(cpos, positive, data["fwd"])
            kr = None
            if rxn.reversible:
                kc, dlnkc = self._kc_derivs(T, p_rt, rut_T, g_rt, h_m, data)
                kcm = np.maximum(kc, _TINY)
                kr = kf / kcm
                dkr_dT = (dkf_dT - kf * dlnkc) / kcm
                pir, dpir = self._product_derivs(cpos, positive, data["rev"])

            pure_tb = eff is not None and rxn.falloff is None
            mfac = m if pure_tb else 1.0

            q_nom = kf * pif  # rate before third-body scaling
            if kr is not None:
                q_nom = q_nom - kr * pir
            q = q_nom * m if pure_tb else q_nom
            dq_dT_nom = dkf_dT * pif
            if kr is not None:
                dq_dT_nom = dq_dT_nom - dkr_dT * pir

            # what every net species of the reaction shares, formed once
            dq_dT = mfac * dq_dT_nom
            mkf = mfac * kf
            cols = [(k, 1.0, mkf * dp) for k, dp in dpif]
            if kr is not None:
                mkr = mfac * kr
                cols += [(k, -1.0, mkr * dp) for k, dp in dpir]
            dq_dm = None
            if pure_tb:
                # ∂[M]/∂C_k = eff_k multiplies the nominal rate
                dq_dm = q_nom
            elif dkf_dm is not None:
                # falloff: k_f(M) sensitivity, shared by the reverse
                dq_dm = dkf_dm * pif
                if kr is not None:
                    dq_dm = dq_dm - (dkf_dm / kcm) * pir

            for i, nui in data["net"]:
                _accumulate(wdot[i : i + 1], nui, q)
                _accumulate(dwT[i : i + 1], nui, dq_dT)
                for k, sign, col in cols:
                    _accumulate(dwC[i, k], sign * nui, col)
                if dq_dm is not None:
                    sel = data["eff_sel"]
                    dwC[i, sel] += (nui * eff[sel])[:, None] * dq_dm

        # chain rule to the state z = (Y, T)
        jac = np.zeros((self.n, self.n, N))
        self._assemble_cv(jac, T, Y, rho, wdot, dwC, dwT, h_m, cp_m, dcp_m)

        f = np.empty((self.n, N))
        f[:ns] = wdot * w[:, None] / rho[None]
        e_m = h_m - RU * T[None]
        cv = axis0_sum(cp_m * Y / w[:, None]) - RU * axis0_sum(Y / w[:, None])
        f[ns] = -axis0_sum(e_m * wdot) / (rho * cv)
        return f, np.ascontiguousarray(np.moveaxis(jac, 2, 0))

    # -- reaction-level pieces -----------------------------------------
    @staticmethod
    def _product_derivs(cpos, positive, terms):
        """(Π C^ν, [(k, ∂Π/∂C_k), ...]) via leave-one-out products.

        ``positive`` is ``where(cpos > 0, 1, 0)``. The returned arrays may
        be rows of ``cpos`` / ``positive``: read-only for the caller."""
        if not terms:
            n = cpos.shape[-1]
            return np.ones(n), []
        vals = [_safe_pow(cpos[k], nu) for k, nu in terms]
        pi = vals[0]
        for v in vals[1:]:
            pi = pi * v
        derivs = []
        for a, (k, nu) in enumerate(terms):
            other = None
            for b, v in enumerate(vals):
                if b == a:
                    continue
                other = v if other is None else other * v
            dp = _pow_deriv(cpos[k], positive[k], nu)
            derivs.append((k, dp if other is None else dp * other))
        return pi, derivs

    def _kc_derivs(self, T, p_rt, rut_T, g_rt, h_m, data):
        """(Kc, d ln Kc/dT) for one reaction (van 't Hoff).

        ``p_rt = p_atm / Ru T`` and ``rut_T = Ru T^2``. ``Kc`` is formed
        here rather than taken from the evaluator: ``p_rt ** dn`` rounds
        differently from its repeated multiply.
        """
        dg = None
        dh = None
        for i, nu in data["net"]:
            gterm = g_rt[i] if nu == 1.0 else (-g_rt[i] if nu == -1.0 else nu * g_rt[i])
            hterm = h_m[i] if nu == 1.0 else (-h_m[i] if nu == -1.0 else nu * h_m[i])
            dg = gterm.copy() if dg is None else dg + gterm
            dh = hterm.copy() if dh is None else dh + hterm
        dn = data["delta_nu"]
        kc = np.exp(-dg)
        if dn != 0.0:
            kc = kc * p_rt**dn
        dlnkc = -dn / T + dh / rut_T
        return kc, dlnkc

    @staticmethod
    def _broadening_derivs(fo, T, pr):
        """(F, ∂F/∂Pr, ∂F/∂T at fixed Pr) for a falloff reaction."""
        if fo.troe is None and fo.fcent is None:
            one = np.ones_like(T)
            return one, np.zeros_like(T), np.zeros_like(T)
        if fo.fcent is not None:
            fc = np.full_like(T, fo.fcent)
            dfc_dT = np.zeros_like(T)
        else:
            a = fo.troe[0]
            t3, t1 = fo.troe[1], fo.troe[2]
            e3 = np.exp(-T / t3)
            e1 = np.exp(-T / t1)
            fc = (1 - a) * e3 + a * e1
            dfc_dT = -(1 - a) * e3 / t3 - a * e1 / t1
            if len(fo.troe) > 3:
                t2 = fo.troe[3]
                e2 = np.exp(-t2 / T)
                fc = fc + e2
                dfc_dT = dfc_dT + e2 * t2 / (T * T)
        fc_safe = np.maximum(fc, _TINY)
        log_fc = np.log10(fc_safe)
        pr_ok = pr > _TINY
        prm = np.where(pr_ok, pr, 1.0)
        log_pr = np.log10(np.maximum(pr, _TINY))
        c = -0.4 - 0.67 * log_fc
        nn = 0.75 - 1.27 * log_fc
        x = log_pr + c
        den = nn - 0.14 * x
        f1 = x / den
        s = 1.0 / (1.0 + f1 * f1)
        F = 10.0 ** (log_fc * s)
        ds_df1 = -2.0 * f1 * s * s
        # Pr channel: df1/dlog10(Pr) = nn/den^2; dlog10(Pr)/dPr = 1/(ln10 Pr)
        dF_dpr = np.where(
            pr_ok,
            F * log_fc * ds_df1 * (nn / (den * den)) / prm,
            0.0,
        )
        # T channel (through Fcent only; Pr held fixed)
        fc_ok = fc > _TINY
        dlogfc_dT = np.where(fc_ok, dfc_dT / (_LN10 * fc_safe), 0.0)
        df1_dlogfc = (-0.67 * den - x * (-1.27 + 0.0938)) / (den * den)
        dlogF_dlogfc = s + log_fc * ds_df1 * df1_dlogfc
        dF_dT = F * _LN10 * dlogF_dlogfc * dlogfc_dT
        return F, dF_dpr, dF_dT

    # -- closure assembly ----------------------------------------------
    def _assemble_cv(self, jac, T, Y, rho, wdot, dwC, dwT, h_m, cp_m, dcp_m):
        ns = self.ns
        w = self._w
        e_m = h_m - RU * T[None]
        cv_m = cp_m - RU
        cv = axis0_sum(cv_m * Y / w[:, None])
        rcv = rho * cv
        rcv2 = rho * cv * cv
        S = axis0_sum(e_m * wdot)
        # species block: ∂Ẏ_i/∂Y_j = (W_i/W_j) ∂ω̇_i/∂C_j · (ρ/ρ) — note
        # ∂C_j/∂Y_j = ρ/W_j and Ẏ_i = W_i ω̇_i/ρ, so ρ cancels.
        for i in range(ns):
            for j in range(ns):
                if self.pattern.mask[i, j]:
                    jac[i, j] = (w[i] / w[j]) * dwC[i, j]
            jac[i, ns] = (w[i] / rho) * dwT[i]
        # T row: Ṫ = -S/(ρ c_v)
        dS_dT = axis0_sum(cv_m * wdot + e_m * dwT)
        dcv_dT = axis0_sum(dcp_m * Y / w[:, None])
        for j in range(ns):
            dS_dYj = axis0_sum(e_m * dwC[:, j]) * (rho / w[j])
            jac[ns, j] = -dS_dYj / rcv + S * ((cv_m[j] / w[j]) / rcv2)
        jac[ns, ns] = -dS_dT / rcv + S * dcv_dT / rcv2
