"""Packed chemistry data for fused kernels.

A JIT backend cannot call the object-oriented chemistry layer
(:class:`~repro.chemistry.thermo.ThermoTable`,
:class:`~repro.chemistry.kinetics.KineticsEvaluator`) from inside a fused
kernel — it needs the NASA-7 fits, Arrhenius parameters, stoichiometry,
third-body efficiencies, and falloff constants as flat arrays. This
module builds those packs **once per mechanism** (pure NumPy, importable
without numba); the numba backend compiles per-cell loops over them (see
:mod:`repro.backend.numba_jit`), verified by tolerance against the
reference.

The CSR stoichiometry views (``*_ptr``/``*_idx``/``*_nu``) keep the
fixed ascending accumulation order of the reference evaluator, so batch
-shape independence survives the packing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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
    ``delta_nu``. Stoichiometry is the reference evaluator's sparse
    term lists as CSR arrays.
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
    # CSR stoichiometry, reference iteration order
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
            fwd_ptr=fwd_ptr, fwd_idx=fwd_idx, fwd_nu=fwd_nu,
            rev_ptr=rev_ptr, rev_idx=rev_idx, rev_nu=rev_nu,
            net_ptr=net_ptr, net_idx=net_idx, net_nu=net_nu,
            sp_ptr=sp_ptr, sp_idx=sp_idx, sp_nu=sp_nu,
        )
