"""Simplified transport models.

* :class:`ConstantLewisTransport` — mixture conductivity from a power-law
  viscosity and Prandtl number, species diffusivities from fixed Lewis
  numbers: D_i = lambda / (rho cp Le_i). Much cheaper than full
  mixture-averaged transport and adequate for the global-chemistry
  Bunsen sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.transport.mixture import TransportProperties


class ConstantLewisTransport:
    """Power-law viscosity/conductivity with per-species Lewis numbers."""

    #: Prandtl number setting the conductivity from the viscosity
    PRANDTL = 0.72

    def __init__(
        self,
        mechanism,
        lewis=None,
        mu_ref=1.8e-5,
        t_ref=300.0,
        exponent=0.7,
    ):
        self.mech = mechanism
        self.mu_ref = float(mu_ref)
        self.t_ref = float(t_ref)
        self.exponent = float(exponent)
        ns = mechanism.n_species
        if lewis is None:
            self.lewis = np.ones(ns)
        else:
            if isinstance(lewis, dict):
                le = np.ones(ns)
                for name, value in lewis.items():
                    le[mechanism.index(name)] = value
                self.lewis = le
            else:
                self.lewis = np.asarray(lewis, dtype=float)
                if self.lewis.shape != (ns,):
                    raise ValueError(f"lewis must have shape ({ns},)")

    def evaluate(self, T, p, Y, workspace=None) -> TransportProperties:
        # ``workspace`` is accepted for interface parity with the
        # mixture-averaged model; this cheap model always allocates
        T = np.asarray(T, dtype=float)
        mu = self.mu_ref * (T / self.t_ref) ** self.exponent
        cp = self.mech.cp_mass(T, Y)
        lam = mu * cp / self.PRANDTL
        rho = self.mech.density(p, T, Y)
        alpha = lam / (rho * cp)
        le = self.lewis.reshape((-1,) + (1,) * T.ndim)
        d = alpha[None] / le
        return TransportProperties(mu, lam, np.ascontiguousarray(d), None)
