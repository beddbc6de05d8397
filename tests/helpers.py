"""Small builders the tests share and nothing in the package needs: a
uniform state, mole fractions, the power-law transport model, the
single-step methane mechanism, a way to clear the process-default
telemetry backend, and a reader of the per-kernel profile table."""

from __future__ import annotations

import numpy as np

from repro import telemetry
from repro.chemistry.kinetics import Arrhenius, Reaction
from repro.chemistry.mechanism import Mechanism
from repro.chemistry.mechanisms import make_species
from repro.core.state import State
from repro.transport.mixture import TransportProperties
from repro.util.constants import CAL_TO_J
from repro.util.reduction import axis0_sum


def uniform_state(mechanism, grid, *, p, T, Y, velocity=None):
    """Quiescent (or uniformly moving) state at pressure ``p``,
    temperature ``T``."""
    if velocity is None:
        velocity = [0.0] * grid.ndim
    rho = mechanism.density(p, np.asarray(T, dtype=float), np.asarray(Y, dtype=float))
    return State.from_primitive(mechanism, grid, rho, velocity, T, Y)


def mole_fractions(mechanism, Y):
    """Mole fractions X_i from mass fractions Y_i (eq. 9)."""
    Y = np.asarray(Y, dtype=float)
    w = mechanism.weights.reshape((-1,) + (1,) * (Y.ndim - 1))
    wbar = 1.0 / axis0_sum(Y / w)
    return Y * wbar[None] / w


class PowerLawTransport:
    """Power-law viscosity with constant Prandtl and Lewis = 1."""

    def __init__(self, mechanism, mu_ref=1.8e-5, t_ref=300.0, exponent=0.7, prandtl=0.72):
        self.mech = mechanism
        self.mu_ref = float(mu_ref)
        self.t_ref = float(t_ref)
        self.exponent = float(exponent)
        self.prandtl = float(prandtl)

    def evaluate(self, T, p, Y, workspace=None) -> TransportProperties:
        T = np.asarray(T, dtype=float)
        mu = self.mu_ref * (T / self.t_ref) ** self.exponent
        cp = self.mech.cp_mass(T, Y)
        lam = mu * cp / self.prandtl
        rho = self.mech.density(p, T, Y)
        d_common = lam / (rho * cp)  # Le = 1
        d = np.broadcast_to(d_common, (self.mech.n_species,) + T.shape).copy()
        return TransportProperties(mu, lam, d, None)


def ch4_onestep() -> Mechanism:
    """Westbrook–Dryer single-step methane oxidation.

    ``CH4 + 2 O2 -> CO2 + 2 H2O`` with empirical orders
    [CH4]^0.2 [O2]^1.3; the kinetics tests' case of fractional orders on
    a single irreversible step.
    """
    names = ["CH4", "O2", "CO2", "H2O", "N2"]
    # pre-exponential calibrated to give SL ~ 0.4 m/s at stoichiometric
    # ambient conditions; CGS/cal -> SI for a forward order of 1.5
    rate = Arrhenius(A=1.6e13 * (1e-6) ** 0.5, n=0.0, Ea=48400.0 * CAL_TO_J)
    rxns = [
        Reaction(
            (("CH4", 1), ("O2", 2)),
            (("CO2", 1), ("H2O", 2)),
            rate,
            reversible=False,
            orders=(("CH4", 0.2), ("O2", 1.3)),
        )
    ]
    return Mechanism([make_species(n) for n in names], rxns, name="ch4-onestep")


def set_default_telemetry(tel) -> None:
    """Install ``tel`` as the process-default telemetry backend;
    ``None`` resolves it from the environment again on next use."""
    telemetry._default = tel


def parse_profile_report(text: str) -> dict:
    """Read a :func:`~repro.telemetry.profile_report` table back (to
    formatting precision): ``{name: {"percent", "exclusive",
    "inclusive", "calls"}}`` with times in seconds, plus
    ``"imbalance"`` when the table is a fused one."""
    fused = any(line.split()[-2:] == ["imb", "name"]
                for line in text.splitlines())
    out: dict = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) < 5 or not parts[0].endswith("%"):
            continue
        row = out[" ".join(parts[4 + fused:])] = {
            "percent": float(parts[0].rstrip("%")),
            "exclusive": float(parts[1]) / 1e3,
            "inclusive": float(parts[2]) / 1e3,
            "calls": int(parts[3]),
        }
        if fused:
            row["imbalance"] = float(parts[4])
    return out
