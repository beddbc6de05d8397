"""Elementary reaction kinetics: Arrhenius, third-body, pressure falloff.

This is the reaction-rate half of the CHEMKIN substitute. Rates of progress
follow mass-action kinetics,

.. math::

    q_r = k_f \\prod_i C_i^{\\nu'_{ir}} - k_r \\prod_i C_i^{\\nu''_{ir}},

with reverse constants obtained from detailed balance through the NASA-7
Gibbs energies, third-body concentration enhancement, and Lindemann/Troe
pressure falloff for the recombination channels of the H2 mechanism
(reactions 9 and 15 of Li et al. 2004).

The evaluator is vectorized over grid points: temperature arrays of any
shape ``S`` and concentration arrays of shape ``(Ns,) + S`` yield molar
production rates of shape ``(Ns,) + S``; a small Python loop over the
O(20) reactions wraps fused NumPy work over the grid, following the
HPC-Python idiom of keeping the hot axis vectorized.

Shape independence: every stoichiometric contraction is evaluated as a
fixed-order sparse accumulation of elementwise operations (no BLAS
``tensordot``), so the value computed for one grid cell is bitwise
identical whatever array it arrives in — the full 3-D block, a
flattened cell list, or any sub-batch of one. That invariance is what
lets the chemistry load balancer
(:mod:`repro.parallel.chemlb`) ship per-cell reaction work between
ranks with a bitwise-reproducibility guarantee;
:meth:`KineticsEvaluator.production_rates_cells` is the cell-list entry
point it uses, and ``tests/test_kinetics.py`` asserts the invariance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.util.constants import RU, P_ATM
from repro.util.reduction import axis0_sum

#: Floor on log arguments to keep vectorized code NaN-free at C=0.
_TINY = 1e-300


def _weighted_sum(eff, C):
    """``sum_i eff_i C_i`` accumulated in species-index order."""
    m = eff[0] * C[0]
    for i in range(1, len(eff)):
        m += eff[i] * C[i]
    return m


@dataclass(frozen=True)
class Arrhenius:
    """Modified Arrhenius rate ``k = A T^n exp(-Ea / Ru T)`` (SI units).

    ``A`` carries units of ``(m^3/mol)^(order-1) / s`` and ``Ea`` is J/mol.
    """

    A: float
    n: float = 0.0
    Ea: float = 0.0

    def __call__(self, T):
        T = np.asarray(T, dtype=float)
        # T**0 is exactly 1 (NaN included): no pow call for n == 0
        if self.n == 0:
            k = np.full(T.shape, self.A, dtype=float)
        else:
            k = self.A * T**self.n
        if self.Ea != 0.0:
            k = k * np.exp(-self.Ea / (RU * T))
        return k


@dataclass(frozen=True)
class ThirdBody:
    """Third-body efficiencies: [M] = sum_i eff_i C_i (default eff 1)."""

    efficiencies: tuple = ()  # tuple of (species_name, efficiency)

    def as_dict(self) -> dict:
        return dict(self.efficiencies)


@dataclass(frozen=True)
class Falloff:
    """Pressure-dependent falloff between low- and high-pressure limits.

    ``k = k_inf * (Pr / (1 + Pr)) * F`` with ``Pr = k0 [M] / k_inf``.
    The broadening factor F uses the Troe form when ``troe`` is given
    (``(a, T3, T1)`` or ``(a, T3, T1, T2)``); ``fcent`` gives the
    constant-Fcent simplification used by Li et al.; otherwise F = 1
    (Lindemann).
    """

    low: Arrhenius
    troe: tuple | None = None
    fcent: float | None = None

    def broadening(self, T, pr):
        """Troe broadening factor F(T, Pr)."""
        if self.troe is None and self.fcent is None:
            return 1.0
        T = np.asarray(T, dtype=float)
        if self.fcent is not None:
            fc = np.full_like(T, self.fcent)
        else:
            a = self.troe[0]
            t3, t1 = self.troe[1], self.troe[2]
            fc = (1 - a) * np.exp(-T / t3) + a * np.exp(-T / t1)
            if len(self.troe) > 3:
                fc = fc + np.exp(-self.troe[3] / T)
        log_fc = np.log10(np.maximum(fc, _TINY))
        log_pr = np.log10(np.maximum(pr, _TINY))
        c = -0.4 - 0.67 * log_fc
        n = 0.75 - 1.27 * log_fc
        f1 = (log_pr + c) / (n - 0.14 * (log_pr + c))
        return 10.0 ** (log_fc / (1.0 + f1**2))


@dataclass(frozen=True)
class Reaction:
    """One elementary reaction.

    Parameters
    ----------
    reactants, products:
        Tuples of ``(species_name, stoichiometric_coefficient)``.
    rate:
        High-pressure (or only) Arrhenius expression, SI units.
    reversible:
        Whether the reverse rate is computed from detailed balance.
    third_body:
        Present for ``+M`` reactions (including the falloff channels).
    falloff:
        Present for ``(+M)`` pressure-falloff reactions.
    duplicate:
        Marks CHEMKIN DUPLICATE reactions (summed rates).
    orders:
        Optional forward reaction orders ``((species, exponent), ...)``
        overriding the stoichiometric exponents — used by the global
        methane mechanisms (CHEMKIN ``FORD`` keyword). Reactions with
        non-stoichiometric orders are evaluated irreversibly unless an
        explicit reverse rate makes sense (reversible flag still honored
        with stoichiometric reverse exponents).
    """

    reactants: tuple
    products: tuple
    rate: Arrhenius
    reversible: bool = True
    third_body: ThirdBody | None = None
    falloff: Falloff | None = None
    duplicate: bool = False
    orders: tuple = ()

    @property
    def equation(self) -> str:
        """Human-readable reaction equation."""

        def side(terms):
            parts = []
            for name, nu in terms:
                prefix = "" if nu == 1 else f"{nu:g} "
                parts.append(prefix + name)
            return " + ".join(parts)

        mid = " <=> " if self.reversible else " => "
        m = ""
        if self.falloff is not None:
            m = " (+M)"
        elif self.third_body is not None:
            m = " + M"
        return side(self.reactants) + m + mid + side(self.products) + m

    def order(self) -> float:
        """Forward molecularity (excluding any third body)."""
        return sum(nu for _, nu in self.reactants)


class KineticsEvaluator:
    """Vectorized net molar production rates for a reaction set.

    Parameters
    ----------
    species_names:
        Ordered species names; defines the species axis of concentration
        and production-rate arrays.
    reactions:
        The reaction list.
    thermo:
        A :class:`~repro.chemistry.thermo.ThermoTable` over the same
        species ordering, used for equilibrium constants.
    """

    def __init__(self, species_names, reactions, thermo):
        self.species_names = list(species_names)
        self.reactions = list(reactions)
        self.thermo = thermo
        self._index = {name: i for i, name in enumerate(self.species_names)}
        ns, nr = len(self.species_names), len(self.reactions)
        self.nu_fwd = np.zeros((ns, nr))
        self.nu_rev = np.zeros((ns, nr))
        for j, rxn in enumerate(self.reactions):
            for name, nu in rxn.reactants:
                self.nu_fwd[self._index[name], j] += nu
            for name, nu in rxn.products:
                self.nu_rev[self._index[name], j] += nu
        self.nu_net = self.nu_rev - self.nu_fwd
        self._delta_nu = self.nu_net.sum(axis=0)  # per-reaction mole change
        # Pre-resolve third-body efficiency vectors (Ns,) per reaction.
        self._tb_eff = []
        for rxn in self.reactions:
            if rxn.third_body is None:
                self._tb_eff.append(None)
            else:
                eff = np.ones(ns)
                for name, value in rxn.third_body.as_dict().items():
                    if name in self._index:
                        eff[self._index[name]] = value
                self._tb_eff.append(eff)
        # The evaluation plan: what reactions share is computed once per
        # call (see shared_factors). ``_tb_vectors`` are the distinct
        # efficiency vectors and ``_tb_group[j]`` the one reaction j uses;
        # ``_pow_exps`` are the distinct nonzero temperature exponents and
        # ``_rate_slot`` / ``_low_slot`` index them per Arrhenius form
        # (None for n == 0). Exponents are merged only when equal in value
        # and type, so each ``T ** n`` is the expression the reaction's
        # own Arrhenius form would evaluate.
        self._tb_vectors, self._tb_group = [], []
        for eff in self._tb_eff:
            g = None
            if eff is not None:
                g = next((k for k, v in enumerate(self._tb_vectors)
                          if np.array_equal(v, eff)), len(self._tb_vectors))
                if g == len(self._tb_vectors):
                    self._tb_vectors.append(eff)
            self._tb_group.append(g)
        slots = {}

        def slot(arrh):
            if arrh is None or arrh.n == 0:
                return None
            return slots.setdefault((arrh.n, type(arrh.n)), len(slots))

        self._rate_slot = [slot(rxn.rate) for rxn in self.reactions]
        self._low_slot = [
            slot(rxn.falloff.low if rxn.falloff is not None else None)
            for rxn in self.reactions
        ]
        self._pow_exps = [n for n, _ in slots]
        # Sparse per-reaction participation for fast rate-of-progress.
        self._fwd_terms = [
            [
                (self._index[name], nu)
                for name, nu in (rxn.orders if rxn.orders else rxn.reactants)
            ]
            for rxn in self.reactions
        ]
        self._rev_terms = [
            [(self._index[name], nu) for name, nu in rxn.products]
            for rxn in self.reactions
        ]
        # Sparse stoichiometry in fixed iteration order for the
        # shape-independent contractions: per-reaction net-species terms
        # (equilibrium-constant Δg) and per-species reaction terms
        # (production rates). Iteration order is ascending index, so the
        # accumulation order — hence the floating-point result — never
        # depends on the grid shape or batch size.
        self._net_terms = [
            [(i, self.nu_net[i, j]) for i in range(ns) if self.nu_net[i, j] != 0.0]
            for j in range(nr)
        ]
        self._species_terms = [
            [(j, self.nu_net[i, j]) for j in range(nr) if self.nu_net[i, j] != 0.0]
            for i in range(ns)
        ]

    @property
    def n_reactions(self) -> int:
        return len(self.reactions)

    def shared_factors(self, T, C=None):
        """What the reactions share at one ``(T, C)``, each computed once.

        Returns ``(powT, rut, tbc)``: ``powT[s] = T ** n`` per distinct
        nonzero Arrhenius exponent, ``rut = Ru T``, and ``tbc[g] = [M]``
        per distinct third-body efficiency vector (``None`` without
        ``C``). Each is the expression a reaction evaluating alone would
        form, so sharing them changes no bits.
        """
        powT = [T**n for n in self._pow_exps]
        tbc = None
        if C is not None:
            tbc = [_weighted_sum(eff, C) for eff in self._tb_vectors]
        return powT, RU * T, tbc

    @staticmethod
    def arrhenius_into(out, arrh, slot, powT, rut, scratch):
        """``out <- A T^n exp(-Ea / Ru T)`` in place from shared factors.

        ``scratch`` has ``out``'s shape; same operations per element as
        :meth:`Arrhenius.__call__`.
        """
        if slot is None:
            out[...] = arrh.A
        else:
            np.multiply(arrh.A, powT[slot], out=out)
        if arrh.Ea != 0.0:
            np.divide(-arrh.Ea, rut, out=scratch)
            np.exp(scratch, out=scratch)
            out *= scratch
        return out

    def _forward_constants_into(self, kf, T, factors):
        """Fill ``kf`` (Nr,)+S with the falloff-blended forward constants."""
        powT, rut, tbc = factors
        scratch = np.empty((1,) + T.shape)
        k0 = np.empty((1,) + T.shape)
        for j, rxn in enumerate(self.reactions):
            # (1,)+S row views: writable even for 0-d grids
            row = kf[j : j + 1]
            self.arrhenius_into(row, rxn.rate, self._rate_slot[j], powT, rut,
                                scratch)
            if rxn.falloff is not None:
                if tbc is None:
                    raise ValueError("falloff reactions need concentrations")
                self.arrhenius_into(k0, rxn.falloff.low, self._low_slot[j],
                                    powT, rut, scratch)
                pr = k0 * tbc[self._tb_group[j]]
                pr /= np.maximum(row, _TINY)
                f = rxn.falloff.broadening(T, pr)
                row *= pr / (1.0 + pr)
                row *= f
        return kf

    def equilibrium_constants(self, T):
        """Concentration-based equilibrium constants Kc per reaction.

        ``Kc_r = (p_atm / Ru T)^{Δν_r} exp(-Δ(g/RuT)_r)``, with p_atm the
        NASA standard-state pressure. The Δg contraction runs over the
        sparse net stoichiometry in fixed species order (elementwise,
        no BLAS) so per-cell results are batch-shape independent.

        The ``(p_atm / Ru T)^{Δν}`` factor deliberately avoids a
        broadcast ``**``: NumPy's pow ufunc dispatches to a different
        kernel when the broadcast inner loop has length 1 (e.g. a
        one-cell batch), which is 1 ulp off the long-loop result for
        integer exponents. Integer Δν — every mechanism in this repo —
        is applied as repeated multiply/divide, which IEEE 754 rounds
        identically at any batch size.
        """
        T = np.asarray(T, dtype=float)
        g_rt = self.thermo.gibbs_over_rt(T)  # (Ns,)+S
        dg = np.zeros((self.n_reactions,) + T.shape)
        for j, terms in enumerate(self._net_terms):
            acc = dg[j : j + 1]  # slice view: writable even for 0-d grids
            for i, nu in terms:
                if nu == 1.0:
                    acc += g_rt[i]
                elif nu == -1.0:
                    acc -= g_rt[i]
                else:
                    acc += nu * g_rt[i]
        pow_base = P_ATM / (RU * T)
        kc = np.negative(dg, out=dg)
        np.exp(kc, out=kc)
        for j, dn in enumerate(self._delta_nu):
            if dn == 0.0:
                continue
            acc = kc[j : j + 1]
            if dn == int(dn):
                for _ in range(abs(int(dn))):
                    if dn > 0:
                        acc *= pow_base
                    else:
                        acc /= pow_base
            else:  # fractional Δν: 1-D contiguous ** scalar is stable
                acc *= pow_base**dn
        return kc

    def _third_body_conc(self, j, C):
        """[M] for reaction ``j``: fixed-order elementwise accumulation
        over species (shape-independent, see module docstring)."""
        eff = self._tb_eff[j]
        return axis0_sum(C) if eff is None else _weighted_sum(eff, C)

    def rates_of_progress(self, T, C):
        """Net rates of progress q_r [mol/(m^3 s)], shape (Nr,) + S.

        Executes the plan compiled at construction in place: shared
        factors once (:meth:`shared_factors`), each ``k_f`` written
        straight into its row of the result, the mass-action products
        multiplied into that row, and the reverse rate formed in one
        scratch row (``max(Kc, tiny)`` -> divide -> multiply ->
        subtract). Per element this is the operation sequence of
        evaluating every reaction on its own, so the result is a pure
        function of the cell whatever the batch (``tests/test_kinetics.py``
        pins it against that frozen evaluation).
        """
        T = np.asarray(T, dtype=float)
        C = np.asarray(C, dtype=float)
        kc = self.equilibrium_constants(T)
        factors = self.shared_factors(T, C)
        tbc = factors[2]
        cpos = np.maximum(C, 0.0)
        q = np.empty((self.n_reactions,) + T.shape)
        self._forward_constants_into(q, T, factors)
        rev = np.empty((1,) + T.shape)
        for j, rxn in enumerate(self.reactions):
            row = q[j : j + 1]
            if rxn.reversible:  # k_r = k_f / Kc, before k_f is consumed
                np.maximum(kc[j], _TINY, out=rev)
                np.divide(row, rev, out=rev)
            for idx, nu in self._fwd_terms[j]:
                row *= cpos[idx] if nu == 1 else cpos[idx] ** nu
            if rxn.reversible:
                for idx, nu in self._rev_terms[j]:
                    rev *= cpos[idx] if nu == 1 else cpos[idx] ** nu
                row -= rev
            # Pure third-body (non-falloff) reactions scale with [M].
            if rxn.third_body is not None and rxn.falloff is None:
                row *= tbc[self._tb_group[j]]
        return q

    def production_rates(self, T, C):
        """Net molar production rates ω̇_i [mol/(m^3 s)], shape (Ns,) + S.

        The stoichiometric contraction accumulates over the sparse
        per-species reaction list in fixed reaction order, so the value
        for each cell is bitwise identical whether the cell is evaluated
        in a full grid block, a flattened cell list, or any batch — the
        invariance the chemistry load balancer relies on.
        """
        q = self.rates_of_progress(T, C)
        T = np.asarray(T, dtype=float)
        wdot = np.zeros((len(self.species_names),) + T.shape)
        for i, terms in enumerate(self._species_terms):
            acc = wdot[i : i + 1]  # slice view: writable even for 0-d grids
            for j, nu in terms:
                if nu == 1.0:
                    acc += q[j]
                elif nu == -1.0:
                    acc -= q[j]
                else:
                    acc += nu * q[j]
        return wdot

    def production_rates_cells(self, T_cells, C_cells):
        """Batched per-cell-list production rates (the chemlb entry point).

        Parameters
        ----------
        T_cells:
            Temperatures of the cells, shape ``(ncells,)``.
        C_cells:
            Molar concentrations, shape ``(Ns, ncells)``.

        Returns ω̇ of shape ``(Ns, ncells)``. Because the whole evaluator
        is shape-independent, each cell's rates are bitwise identical to
        what a full-grid :meth:`production_rates` call produces for that
        cell, for any batch size and ordering — the property the
        load balancer's bit-exactness guarantee is built on.
        """
        T_cells = np.asarray(T_cells, dtype=float)
        C_cells = np.asarray(C_cells, dtype=float)
        if T_cells.ndim != 1 or C_cells.ndim != 2:
            raise ValueError(
                "production_rates_cells expects T of shape (ncells,) and "
                f"C of shape (Ns, ncells); got {T_cells.shape} and {C_cells.shape}"
            )
        if C_cells.shape != (len(self.species_names),) + T_cells.shape:
            raise ValueError(
                f"C has shape {C_cells.shape}, expected "
                f"({len(self.species_names)}, {T_cells.shape[0]})"
            )
        return self.production_rates(T_cells, C_cells)

    def heat_release_rate(self, T, C):
        """Volumetric heat release rate [W/m^3]: -Σ_i h_i(T) ω̇_i."""
        wdot = self.production_rates(T, C)
        h = self.thermo.enthalpy_molar(T)
        return -axis0_sum(h * wdot)
