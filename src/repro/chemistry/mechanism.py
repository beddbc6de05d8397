"""Mechanism container: species + thermo + kinetics + mixture helpers.

A :class:`Mechanism` is the single chemistry object handed to the DNS
solver. It provides the constitutive relationships of §2.1 of the paper:
the ideal-gas equation of state (7), mixture molecular weight (8),
mass/mole-fraction conversion (9), the thermodynamic relations below (9),
and the chemical source terms :math:`W_i \\dot\\omega_i` of the species
equations (4).

All bulk evaluations are vectorized: mass-fraction arrays have shape
``(Ns,) + S`` for an arbitrary grid shape ``S``.
"""

from __future__ import annotations

import numpy as np

from repro.chemistry.kinetics import KineticsEvaluator
from repro.chemistry.species import element_weight
from repro.chemistry.thermo import ThermoTable, tiles
from repro.util.constants import RU
from repro.util.reduction import axis0_sum


class Mechanism:
    """A reaction mechanism over an ordered species list."""

    def __init__(self, species, reactions=(), name: str = "mechanism"):
        if not species:
            raise ValueError("a mechanism needs at least one species")
        self.name = name
        self.species = list(species)
        self.species_names = [sp.name for sp in self.species]
        if len(set(self.species_names)) != len(self.species_names):
            raise ValueError("duplicate species names in mechanism")
        self.weights = np.array([sp.weight for sp in self.species])  # kg/mol
        self.thermo = ThermoTable([sp.thermo for sp in self.species])
        self.reactions = list(reactions)
        self.kinetics = (
            KineticsEvaluator(self.species_names, self.reactions, self.thermo)
            if self.reactions
            else None
        )
        self._index = {name: i for i, name in enumerate(self.species_names)}
        self.elements = sorted({el for sp in self.species for el in sp.composition})
        #: element-composition matrix a[e, i] = atoms of element e in species i
        self.element_matrix = np.array(
            [[sp.n_atoms(el) for sp in self.species] for el in self.elements]
        )

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def n_species(self) -> int:
        return len(self.species)

    @property
    def n_reactions(self) -> int:
        return len(self.reactions)

    def index(self, name: str) -> int:
        """Species index of ``name`` (KeyError if absent)."""
        return self._index[name]

    def _wshape(self, Y):
        """Weights broadcast against a (Ns,)+S array."""
        Y = np.asarray(Y, dtype=float)
        return self.weights.reshape((-1,) + (1,) * (Y.ndim - 1)), Y

    # ------------------------------------------------------------------
    # composition
    # ------------------------------------------------------------------
    def mean_weight(self, Y):
        """Mixture molecular weight W [kg/mol] from mass fractions (eq. 8)."""
        w, Y = self._wshape(Y)
        return 1.0 / axis0_sum(Y / w)

    def mole_to_mass(self, X):
        """Mass fractions Y_i from mole fractions X_i (eq. 9)."""
        w, X = self._wshape(X)
        wbar = axis0_sum(X * w)
        return X * w / wbar[None]

    def concentrations(self, rho, Y):
        """Molar concentrations C_i = rho Y_i / W_i [mol/m^3]."""
        w, Y = self._wshape(Y)
        return np.asarray(rho, dtype=float)[None] * Y / w

    def mass_fractions_from(self, mapping):
        """Build a (Ns,) mass-fraction array from a name->Y dict."""
        Y = np.zeros(self.n_species)
        for name, value in mapping.items():
            Y[self.index(name)] = value
        total = Y.sum(axis=0)
        if np.any(np.abs(total - 1.0) > 1e-8):
            raise ValueError(f"mass fractions must sum to 1 (sum={total})")
        return Y

    def element_mass_fractions(self, Y):
        """Elemental mass fractions Z_e, shape (Ne,)+S."""
        w, Y = self._wshape(Y)
        moles = Y / w  # per-species mol/kg
        el_w = np.array([element_weight(el) for el in self.elements])
        z = np.tensordot(self.element_matrix, moles, axes=(1, 0))
        return z * el_w.reshape((-1,) + (1,) * (Y.ndim - 1))

    # ------------------------------------------------------------------
    # equation of state
    # ------------------------------------------------------------------
    def density(self, p, T, Y):
        """Ideal-gas density rho = p W / (Ru T) (eq. 7)."""
        return np.asarray(p, dtype=float) * self.mean_weight(Y) / (RU * np.asarray(T, dtype=float))

    def pressure(self, rho, T, Y):
        """Ideal-gas pressure p = rho Ru T / W (eq. 7)."""
        return np.asarray(rho, dtype=float) * RU * np.asarray(T, dtype=float) / self.mean_weight(Y)

    def gas_constant(self, Y):
        """Specific gas constant R = Ru / W [J/(kg K)]."""
        return RU / self.mean_weight(Y)

    # ------------------------------------------------------------------
    # caloric properties (mass basis)
    # ------------------------------------------------------------------
    def cp_mass(self, T, Y):
        """Mixture isobaric heat capacity [J/(kg K)]."""
        w, Y = self._wshape(Y)
        cp = self.thermo.cp_molar(T) / w
        return axis0_sum(cp * Y)

    def cv_mass(self, T, Y):
        """Mixture isochoric heat capacity [J/(kg K)]: cp - Ru/W."""
        return self.cp_mass(T, Y) - self.gas_constant(Y)

    def enthalpy_mass(self, T, Y):
        """Mixture specific enthalpy [J/kg] (sensible + chemical)."""
        w, Y = self._wshape(Y)
        h = self.thermo.enthalpy_molar(T) / w
        return axis0_sum(h * Y)

    def species_enthalpy_mass(self, T):
        """Per-species specific enthalpies h_i [J/kg], shape (Ns,)+S."""
        T = np.asarray(T, dtype=float)
        w = self.weights.reshape((-1,) + (1,) * T.ndim)
        return self.thermo.enthalpy_molar(T) / w

    def int_energy_mass(self, T, Y):
        """Mixture specific internal energy [J/kg]: h - Ru T / W."""
        return self.enthalpy_mass(T, Y) - self.gas_constant(Y) * np.asarray(T, dtype=float)

    def temperature_from_energy(self, e, Y, T_guess=None, tol=1e-9, max_iter=100):
        """Invert e(T, Y) = e for T by Newton iteration.

        This is the inner solve of the DNS primitive-variable recovery; it
        converges in a handful of iterations from the previous step's
        temperature, and every cell stops at its own convergence
        (:meth:`ThermoTable.temperature
        <repro.chemistry.thermo.ThermoTable.temperature>`): the result
        is a pure function of the cell, whatever batch it is solved in.
        """
        return self.thermo.temperature(e, Y, self.weights, T_guess, energy=True,
                                       tol=tol, max_iter=max_iter)

    def temperature_from_enthalpy(self, h, Y, T_guess=None, tol=1e-9, max_iter=100):
        """Invert h(T, Y) = h for T by Newton iteration (same solve)."""
        return self.thermo.temperature(h, Y, self.weights, T_guess, energy=False,
                                       tol=tol, max_iter=max_iter)

    def sound_speed(self, T, Y):
        """Frozen sound speed a = sqrt(gamma R T) [m/s]."""
        r = self.gas_constant(Y)
        gamma = self.cp_mass(T, Y) / self.cv_mass(T, Y)
        return np.sqrt(gamma * r * np.asarray(T, dtype=float))

    # ------------------------------------------------------------------
    # chemical source terms
    # ------------------------------------------------------------------
    def production_rates(self, rho, T, Y, out=None):
        """Mass production rates W_i ω̇_i [kg/(m^3 s)], shape (Ns,)+S,
        into ``out`` (C-contiguous, ``Y``'s shape) when given.

        Zeros for inert mechanisms (no reactions). The field is walked in
        tiles (:func:`~repro.chemistry.thermo.tiles`): concentrations,
        rates and the ``W_i`` product of one tile at a time, so no
        ``(Nr,) + S`` or ``(Ns,) + S`` transient is formed; every step is
        per cell, so the tiling moves no bits. The concentrations are
        formed in ``out``, which the rates then overwrite.
        """
        Y = np.asarray(Y, dtype=float)
        out = np.empty(Y.shape) if out is None else out
        if self.kinetics is None:
            out.fill(0.0)
            return out
        T = np.asarray(T, dtype=float)
        rho = np.broadcast_to(np.asarray(rho, dtype=float), T.shape)
        for rho_t, T_t, Y_t, out_t in tiles(T.shape, rho, T, Y, out):
            w = self._wshape(Y_t)[0]
            C = np.divide(np.multiply(rho_t, Y_t, out=out_t), w, out=out_t)
            np.multiply(self.kinetics.production_rates(T_t, C), w, out=out_t)
        return out

    def production_rates_cells(self, rho_cells, T_cells, Y_cells):
        """Mass production rates for a flat cell list, shape (Ns, ncells).

        ``rho_cells`` and ``T_cells`` have shape ``(ncells,)``,
        ``Y_cells`` has shape ``(Ns, ncells)``. Per-cell results are
        bitwise identical to :meth:`production_rates` on any grid shape
        containing the same cells (see
        :meth:`~repro.chemistry.kinetics.KineticsEvaluator.production_rates_cells`);
        this is the entry point the chemistry load balancer
        (:mod:`repro.parallel.chemlb`) evaluates shipped batches with.
        """
        Y_cells = np.asarray(Y_cells, dtype=float)
        if self.kinetics is None:
            return np.zeros_like(Y_cells)
        C = self.concentrations(rho_cells, Y_cells)
        wdot = self.kinetics.production_rates_cells(
            np.asarray(T_cells, dtype=float), C
        )
        return wdot * self.weights.reshape((-1, 1))

    def heat_release_rate(self, rho, T, Y):
        """Volumetric heat release [W/m^3]."""
        if self.kinetics is None:
            T = np.asarray(T, dtype=float)
            return np.zeros(T.shape)
        C = self.concentrations(rho, Y)
        return self.kinetics.heat_release_rate(np.asarray(T, dtype=float), C)
