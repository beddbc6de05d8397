"""Packed chemistry data + array-namespace-generic evaluators.

JIT and device backends cannot call the object-oriented chemistry layer
(:class:`~repro.chemistry.thermo.ThermoTable`,
:class:`~repro.chemistry.kinetics.KineticsEvaluator`) from inside a fused
kernel — they need the NASA-7 fits, Arrhenius parameters, stoichiometry,
third-body efficiencies, and falloff constants as flat arrays. This
module builds those packs **once per mechanism** (pure NumPy, importable
without numba or torch) and provides evaluators written against a
generic array namespace ``xp``:

* with ``xp = numpy`` the evaluators mirror the reference
  implementations operation for operation — the conformance tests
  assert bitwise equality, which pins the math that the device backends
  then run;
* with the torch shim (:mod:`repro.backend.torch_device`) the same
  functions execute as device tensor programs;
* the numba backend compiles per-cell loops over the same packed arrays
  (see :mod:`repro.backend.numba_jit`), verified by tolerance against
  the reference.

The CSR stoichiometry views (``*_ptr``/``*_idx``/``*_nu``) keep the
fixed ascending accumulation order of the reference evaluator, so batch
-shape independence survives the packing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.constants import RU, P_ATM

#: floor on log arguments (mirrors kinetics._TINY)
_TINY = 1e-300


def _csr(term_lists):
    """CSR-pack a list of (index, coefficient) sparse term lists."""
    ptr = np.zeros(len(term_lists) + 1, dtype=np.int64)
    idx, nu = [], []
    for j, terms in enumerate(term_lists):
        for i, coeff in terms:
            idx.append(i)
            nu.append(float(coeff))
        ptr[j + 1] = len(idx)
    return ptr, np.asarray(idx, dtype=np.int64), np.asarray(nu, dtype=float)


@dataclass
class ThermoPack:
    """NASA-7 coefficients of a mechanism as flat arrays.

    ``lo``/``hi`` have shape ``(Ns, 7)``; ``tmid`` is ``(Ns,)``.
    """

    lo: object
    hi: object
    tmid: object

    @classmethod
    def from_table(cls, thermo) -> "ThermoPack":
        return cls(
            lo=np.array(thermo._lo, copy=True),
            hi=np.array(thermo._hi, copy=True),
            tmid=np.array(thermo._tmid, copy=True),
        )

    def convert(self, asarray) -> "ThermoPack":
        """A copy with every array passed through ``asarray`` (device upload)."""
        return ThermoPack(
            lo=asarray(self.lo), hi=asarray(self.hi), tmid=asarray(self.tmid)
        )


@dataclass
class KineticsPack:
    """A mechanism's reactions as flat arrays plus sparse stoichiometry.

    Per-reaction arrays (length ``Nr``): modified-Arrhenius ``A``/``b``/
    ``Ea``; falloff low-pressure parameters and kind (-1 none, 0
    Lindemann, 1 constant-Fcent, 2 Troe-3, 3 Troe-4) with ``fo_params``
    rows ``(a, T3, T1, T2)`` (``(Fcent, 0, 0, 0)`` for kind 1);
    third-body ``tb_kind`` (0: [M] = ΣC, 1: efficiency-weighted row of
    ``tb_eff``), ``tb_scale`` (non-falloff +M reactions multiply their
    rate by [M]); ``reversible`` flags and the net mole change
    ``delta_nu``. Stoichiometry comes both as the reference evaluator's
    sparse term lists (for the xp-generic path) and CSR arrays (for
    nopython kernels).
    """

    ns: int
    nr: int
    weights: object  # (Ns,) kg/mol
    thermo: ThermoPack
    A: object
    b: object
    Ea: object
    fo_kind: object       # (Nr,) int8
    fo_A: object
    fo_b: object
    fo_Ea: object
    fo_params: object     # (Nr, 4)
    tb_kind: object       # (Nr,) int8: only consulted when a [M] is needed
    tb_eff: object        # (Nr, Ns)
    tb_scale: object      # (Nr,) int8
    reversible: object    # (Nr,) int8
    delta_nu: object      # (Nr,)
    # sparse term lists, reference iteration order
    fwd_terms: list
    rev_terms: list
    net_terms: list
    species_terms: list
    # CSR views of the same
    fwd_ptr: object
    fwd_idx: object
    fwd_nu: object
    rev_ptr: object
    rev_idx: object
    rev_nu: object
    net_ptr: object
    net_idx: object
    net_nu: object
    sp_ptr: object
    sp_idx: object
    sp_nu: object

    @classmethod
    def from_mechanism(cls, mech) -> "KineticsPack":
        kin = mech.kinetics
        if kin is None:
            raise ValueError(f"mechanism {mech.name!r} has no reactions to pack")
        ns, nr = mech.n_species, kin.n_reactions
        A = np.zeros(nr)
        b = np.zeros(nr)
        Ea = np.zeros(nr)
        fo_kind = np.full(nr, -1, dtype=np.int8)
        fo_A = np.zeros(nr)
        fo_b = np.zeros(nr)
        fo_Ea = np.zeros(nr)
        fo_params = np.zeros((nr, 4))
        tb_kind = np.zeros(nr, dtype=np.int8)
        tb_eff = np.ones((nr, ns))
        tb_scale = np.zeros(nr, dtype=np.int8)
        reversible = np.zeros(nr, dtype=np.int8)
        for j, rxn in enumerate(kin.reactions):
            A[j], b[j], Ea[j] = rxn.rate.A, rxn.rate.n, rxn.rate.Ea
            reversible[j] = 1 if rxn.reversible else 0
            if rxn.falloff is not None:
                fo = rxn.falloff
                fo_A[j], fo_b[j], fo_Ea[j] = fo.low.A, fo.low.n, fo.low.Ea
                if fo.fcent is not None:
                    fo_kind[j] = 1
                    fo_params[j, 0] = fo.fcent
                elif fo.troe is not None:
                    fo_kind[j] = 3 if len(fo.troe) > 3 else 2
                    fo_params[j, : len(fo.troe)] = fo.troe
                else:
                    fo_kind[j] = 0
            eff = kin._tb_eff[j]
            if eff is not None:
                tb_kind[j] = 1
                tb_eff[j] = eff
            if rxn.third_body is not None and rxn.falloff is None:
                tb_scale[j] = 1
        fwd_ptr, fwd_idx, fwd_nu = _csr(kin._fwd_terms)
        rev_ptr, rev_idx, rev_nu = _csr(kin._rev_terms)
        net_ptr, net_idx, net_nu = _csr(kin._net_terms)
        sp_ptr, sp_idx, sp_nu = _csr(kin._species_terms)
        return cls(
            ns=ns, nr=nr,
            weights=np.array(mech.weights, copy=True),
            thermo=ThermoPack.from_table(mech.thermo),
            A=A, b=b, Ea=Ea,
            fo_kind=fo_kind, fo_A=fo_A, fo_b=fo_b, fo_Ea=fo_Ea,
            fo_params=fo_params,
            tb_kind=tb_kind, tb_eff=tb_eff, tb_scale=tb_scale,
            reversible=reversible,
            delta_nu=np.array(kin._delta_nu, copy=True),
            fwd_terms=[list(t) for t in kin._fwd_terms],
            rev_terms=[list(t) for t in kin._rev_terms],
            net_terms=[list(t) for t in kin._net_terms],
            species_terms=[list(t) for t in kin._species_terms],
            fwd_ptr=fwd_ptr, fwd_idx=fwd_idx, fwd_nu=fwd_nu,
            rev_ptr=rev_ptr, rev_idx=rev_idx, rev_nu=rev_nu,
            net_ptr=net_ptr, net_idx=net_idx, net_nu=net_nu,
            sp_ptr=sp_ptr, sp_idx=sp_idx, sp_nu=sp_nu,
        )


# ----------------------------------------------------------------------
# xp-generic NASA-7 thermodynamics (branch-blended; bitwise ThermoTable)
# ----------------------------------------------------------------------
def _h_branch(xp, a, T):
    poly = a[0] + T * (a[1] / 2 + T * (a[2] / 3 + T * (a[3] / 4 + T * a[4] / 5)))
    return RU * (T * poly + a[5])


def _cp_branch(xp, a, T):
    return RU * (a[0] + T * (a[1] + T * (a[2] + T * (a[3] + T * a[4]))))


def _s_branch(xp, a, T, logT):
    return RU * (
        a[0] * logT
        + T * (a[1] + T * (a[2] / 2 + T * (a[3] / 3 + T * a[4] / 4)))
        + a[6]
    )


def nasa7_enthalpy_cp(xp, tp: ThermoPack, T):
    """Fused (h_molar, cp_molar), shapes (Ns,)+S — the Newton inner pass."""
    ns = tp.lo.shape[0]
    h = xp.empty((ns,) + tuple(T.shape))
    cp = xp.empty((ns,) + tuple(T.shape))
    for i in range(ns):
        lo, hi = tp.lo[i], tp.hi[i]
        mask = T < tp.tmid[i]
        h[i] = xp.where(mask, _h_branch(xp, lo, T), _h_branch(xp, hi, T))
        cp[i] = xp.where(mask, _cp_branch(xp, lo, T), _cp_branch(xp, hi, T))
    return h, cp


def nasa7_enthalpy(xp, tp: ThermoPack, T):
    ns = tp.lo.shape[0]
    h = xp.empty((ns,) + tuple(T.shape))
    for i in range(ns):
        h[i] = xp.where(
            T < tp.tmid[i],
            _h_branch(xp, tp.lo[i], T),
            _h_branch(xp, tp.hi[i], T),
        )
    return h


def nasa7_gibbs_over_rt(xp, tp: ThermoPack, T):
    """Dimensionless Gibbs energies; mirrors ThermoTable.gibbs_over_rt."""
    ns = tp.lo.shape[0]
    logT = xp.log(T)
    h = nasa7_enthalpy(xp, tp, T)
    s = xp.empty((ns,) + tuple(T.shape))
    for i in range(ns):
        s[i] = xp.where(
            T < tp.tmid[i],
            _s_branch(xp, tp.lo[i], T, logT),
            _s_branch(xp, tp.hi[i], T, logT),
        )
    return h / (RU * T[None]) - s / RU


def newton_temperature_from_energy(
    xp, tp: ThermoPack, weights, e, Y, T_guess=None, tol=1e-9, max_iter=100,
):
    """xp-generic mirror of Mechanism.temperature_from_energy.

    ``weights`` is the (Ns,) molecular-weight array already in the
    backend's native type; ``e`` and ``Y`` likewise. Iteration structure
    (global convergence test, in-place residual assembly, [50, 6000] K
    clamp) matches the host reference, so with ``xp = numpy`` the result
    is bitwise identical.
    """
    if T_guess is None:
        T = xp.full(tuple(e.shape), 1000.0)
    else:
        T = xp.copy(T_guess)
    w = weights.reshape((-1,) + (1,) * e.ndim)
    r = RU / (1.0 / xp.sum(Y / w, axis=0))
    for _ in range(max_iter):
        h, cp = nasa7_enthalpy_cp(xp, tp, T)
        h /= w
        h *= Y
        resid = xp.sum(h, axis=0)
        resid -= r * T
        resid -= e
        cp /= w
        cp *= Y
        cv = xp.sum(cp, axis=0)
        cv -= r
        dT = resid
        dT /= cv
        T -= dT
        T = xp.clip(T, 50.0, 6000.0)
        if bool(xp.all(xp.abs(dT) < tol * xp.maximum(T, 1.0))):
            break
    else:
        raise RuntimeError("temperature_from_energy failed to converge")
    return T


# ----------------------------------------------------------------------
# xp-generic kinetics (mirrors KineticsEvaluator operation for operation)
# ----------------------------------------------------------------------
def _third_body_conc(xp, pack: KineticsPack, j: int, C):
    if int(pack.tb_kind[j]):
        eff = pack.tb_eff[j]
        m = eff[0] * C[0]
        for i in range(1, pack.ns):
            m = m + eff[i] * C[i]
        return m
    return xp.sum(C, axis=0)


def _broadening(xp, pack: KineticsPack, j: int, T, pr):
    kind = int(pack.fo_kind[j])
    if kind <= 0:
        return 1.0
    p = pack.fo_params[j]
    if kind == 1:
        fc = xp.full(tuple(T.shape), float(p[0]))
    else:
        a, t3, t1 = p[0], p[1], p[2]
        fc = (1 - a) * xp.exp(-T / t3) + a * xp.exp(-T / t1)
        if kind == 3:
            fc = fc + xp.exp(-p[3] / T)
    log_fc = xp.log10(xp.maximum(fc, _TINY))
    log_pr = xp.log10(xp.maximum(pr, _TINY))
    c = -0.4 - 0.67 * log_fc
    n = 0.75 - 1.27 * log_fc
    f1 = (log_pr + c) / (n - 0.14 * (log_pr + c))
    return 10.0 ** (log_fc / (1.0 + f1 ** 2))


def _forward_rate_constants(xp, pack: KineticsPack, T, C):
    out = []
    for j in range(pack.nr):
        k = pack.A[j] * T ** pack.b[j]
        if float(pack.Ea[j]) != 0.0:
            k = k * xp.exp(-pack.Ea[j] / (RU * T))
        if int(pack.fo_kind[j]) >= 0:
            m = _third_body_conc(xp, pack, j, C)
            k0 = pack.fo_A[j] * T ** pack.fo_b[j]
            if float(pack.fo_Ea[j]) != 0.0:
                k0 = k0 * xp.exp(-pack.fo_Ea[j] / (RU * T))
            pr = k0 * m / xp.maximum(k, _TINY)
            f = _broadening(xp, pack, j, T, pr)
            k = k * (pr / (1.0 + pr)) * f
        out.append(k)
    return out


def _equilibrium_constants(xp, pack: KineticsPack, T):
    g_rt = nasa7_gibbs_over_rt(xp, pack.thermo, T)
    dg = xp.zeros((pack.nr,) + tuple(T.shape))
    for j, terms in enumerate(pack.net_terms):
        acc = dg[j : j + 1]
        for i, nu in terms:
            if nu == 1.0:
                acc += g_rt[i]
            elif nu == -1.0:
                acc -= g_rt[i]
            else:
                acc += nu * g_rt[i]
    pow_base = P_ATM / (RU * T)
    kc = xp.exp(-dg)
    for j in range(pack.nr):
        dn = float(pack.delta_nu[j])
        if dn == 0.0:
            continue
        acc = kc[j : j + 1]
        if dn == int(dn):
            for _ in range(abs(int(dn))):
                if dn > 0:
                    acc *= pow_base
                else:
                    acc /= pow_base
        else:
            acc *= pow_base ** dn
    return kc


def production_rates_xp(xp, pack: KineticsPack, T, C):
    """Net molar production rates ω̇ [mol/(m^3 s)], shape (Ns,)+S."""
    kf_list = _forward_rate_constants(xp, pack, T, C)
    kc = _equilibrium_constants(xp, pack, T)
    q = xp.empty((pack.nr,) + tuple(T.shape))
    cpos = xp.maximum(C, 0.0)
    for j in range(pack.nr):
        fwd = xp.copy(xp.broadcast_to(kf_list[j], tuple(T.shape)))
        for idx, nu in pack.fwd_terms[j]:
            fwd *= cpos[idx] if nu == 1 else cpos[idx] ** nu
        rate = fwd
        if int(pack.reversible[j]):
            kr = kf_list[j] / xp.maximum(kc[j], _TINY)
            rev = xp.copy(xp.broadcast_to(kr, tuple(T.shape)))
            for idx, nu in pack.rev_terms[j]:
                rev *= cpos[idx] if nu == 1 else cpos[idx] ** nu
            rate = fwd - rev
        if int(pack.tb_scale[j]):
            rate = rate * _third_body_conc(xp, pack, j, C)
        q[j] = rate
    wdot = xp.zeros((pack.ns,) + tuple(T.shape))
    for i, terms in enumerate(pack.species_terms):
        acc = wdot[i : i + 1]
        for j, nu in terms:
            if nu == 1.0:
                acc += q[j]
            elif nu == -1.0:
                acc -= q[j]
            else:
                acc += nu * q[j]
    return wdot


def mass_production_rates_xp(xp, pack: KineticsPack, rho, T, Y):
    """Mass production rates W_i ω̇_i from primitives (the RHS hook entry)."""
    w = pack.weights.reshape((-1,) + (1,) * T.ndim)
    C = rho[None] * Y / w
    wdot = production_rates_xp(xp, pack, T, C)
    return wdot * w
