"""Zero-dimensional homogeneous reactors and ignition-delay calculation.

These are the building blocks for understanding the autoignition
stabilization result of §6: the 1100 K vitiated coflow sits above the
H2/air crossover temperature, so mixtures of cold fuel and hot coflow
autoignite, fastest in hot fuel-lean compositions where ignition delays
are shortest (Fig 11).

SciPy's stiff integrators are imported by the functions that integrate,
not by this module: ``repro.scenarios`` reaches it on the way to a
solver, and no time step uses SciPy (``tests/test_scenarios.py`` pins
that a solver build plus a step leaves ``scipy`` unimported).
"""

from __future__ import annotations

import numpy as np

from repro.util.constants import RU


class ConstPressureReactor:
    """Adiabatic constant-pressure homogeneous reactor.

    State vector ``[T, Y_1..Y_Ns]`` evolved under

    .. math::

        \\dot Y_i = W_i \\dot\\omega_i / \\rho, \\qquad
        \\dot T = -\\sum_i h_i W_i \\dot\\omega_i / (\\rho c_p).
    """

    def __init__(self, mechanism, pressure: float):
        self.mech = mechanism
        self.pressure = float(pressure)

    def rhs(self, t, state):
        mech = self.mech
        T = max(state[0], 50.0)
        Y = np.clip(state[1:], 0.0, 1.0)
        total = Y.sum()
        if total > 0:
            Y = Y / total
        rho = mech.density(self.pressure, T, Y)
        wdot_mass = mech.production_rates(rho, T, Y)  # kg/m^3/s
        cp = mech.cp_mass(T, Y)
        h = mech.species_enthalpy_mass(np.asarray(T))
        dT = -float((h * wdot_mass).sum()) / (rho * cp)
        dY = wdot_mass / rho
        return np.concatenate(([dT], dY))

    def integrate(self, T0, Y0, t_end, n_out=200, rtol=1e-8, atol=1e-12):
        """Integrate to ``t_end``; returns (t, T(t), Y(t))."""
        from scipy.integrate import solve_ivp

        y0 = np.concatenate(([float(T0)], np.asarray(Y0, dtype=float)))
        t_eval = np.linspace(0.0, t_end, n_out)
        sol = solve_ivp(
            self.rhs, (0.0, t_end), y0, method="LSODA",
            t_eval=t_eval, rtol=rtol, atol=atol,
        )
        if not sol.success:
            raise RuntimeError(f"reactor integration failed: {sol.message}")
        return sol.t, sol.y[0], sol.y[1:]


class ConstVolumeReactor:
    """Adiabatic constant-volume homogeneous reactor (fixed density)."""

    def __init__(self, mechanism, density: float):
        self.mech = mechanism
        self.density = float(density)

    def rhs(self, t, state):
        mech = self.mech
        T = max(state[0], 50.0)
        Y = np.clip(state[1:], 0.0, 1.0)
        total = Y.sum()
        if total > 0:
            Y = Y / total
        rho = self.density
        wdot_mass = mech.production_rates(rho, T, Y)
        cv = mech.cv_mass(T, Y)
        # species internal energies e_i = h_i - Ru T / W_i
        h = mech.species_enthalpy_mass(np.asarray(T))
        e = h - RU * T / mech.weights
        dT = -float((e * wdot_mass).sum()) / (rho * cv)
        dY = wdot_mass / rho
        return np.concatenate(([dT], dY))

    def integrate(self, T0, Y0, t_end, n_out=200, rtol=1e-8, atol=1e-12):
        """Integrate to ``t_end``; returns (t, T(t), Y(t))."""
        from scipy.integrate import solve_ivp

        y0 = np.concatenate(([float(T0)], np.asarray(Y0, dtype=float)))
        t_eval = np.linspace(0.0, t_end, n_out)
        sol = solve_ivp(
            self.rhs, (0.0, t_end), y0, method="LSODA",
            t_eval=t_eval, rtol=rtol, atol=atol,
        )
        if not sol.success:
            raise RuntimeError(f"reactor integration failed: {sol.message}")
        return sol.t, sol.y[0], sol.y[1:]


#: temperature rise [K] that marks ignition in :func:`ignition_delay`
IGNITION_DELTA_T = 400.0


def ignition_delay(mechanism, T0, p, Y0, t_end, rtol=1e-8, atol=1e-12):
    """Constant-pressure ignition delay [s].

    Defined as the first time the temperature exceeds
    ``T0 + IGNITION_DELTA_T``, located by a terminal
    :func:`scipy.integrate.solve_ivp` event — the integrator root-finds
    the crossing inside the step that brackets it, so the result is
    resolved to the solver tolerances rather than quantized by an
    output-sampling grid. Returns ``numpy.inf`` if no ignition within
    ``t_end``.
    """
    from scipy.integrate import solve_ivp

    reactor = ConstPressureReactor(mechanism, p)
    target = float(T0) + IGNITION_DELTA_T

    def crossing(t, state):
        return state[0] - target

    crossing.terminal = True
    crossing.direction = 1.0
    y0 = np.concatenate(([float(T0)], np.asarray(Y0, dtype=float)))
    sol = solve_ivp(
        reactor.rhs, (0.0, float(t_end)), y0, method="LSODA",
        events=crossing, rtol=rtol, atol=atol, dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"reactor integration failed: {sol.message}")
    t_events = sol.t_events[0]
    if t_events.size == 0:
        return np.inf
    return float(t_events[0])
