"""Initial-condition builders for the canonical S3D configurations.

* :func:`pressure_pulse` — the Gaussian acoustic pulse of the §4.1
  "pressure wave test" model problem,
* :func:`tanh_profile` — smoothed top-hat used for slot-jet inflows,
* :func:`slot_jet` — the two-stream slot-burner arrangement shared by
  the lifted-flame (§6.2) and Bunsen (§7.2) configurations: a central
  jet of one mixture surrounded by coflow of another, with tanh shear
  layers in the transverse direction.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import State


def pressure_pulse(mechanism, grid, *, p0, T0, Y, amplitude=0.01, width=None):
    """Gaussian pressure pulse at the centre of a quiescent gas (§4.1
    model problem).

    ``amplitude`` is the relative overpressure; entropy is uniform, so
    temperature follows isentropically: T = T0 (p/p0)^((gamma-1)/gamma).
    """
    mesh = grid.meshgrid()
    center = [0.5 * L for L in grid.lengths]
    if width is None:
        width = 0.08 * min(grid.lengths)
    r2 = sum((x - c) ** 2 for x, c in zip(mesh, center))
    Y = np.asarray(Y, dtype=float)
    p = p0 * (1.0 + amplitude * np.exp(-r2 / (2.0 * width**2)))
    gamma = float(mechanism.cp_mass(np.asarray(T0), Y) / mechanism.cv_mass(np.asarray(T0), Y))
    T = T0 * (p / p0) ** ((gamma - 1.0) / gamma)
    rho = mechanism.density(p, T, Y.reshape((-1,) + (1,) * grid.ndim))
    return State.from_primitive(mechanism, grid, rho, [0.0] * grid.ndim, T, Y)


def tanh_profile(y, center_low, center_high, thickness):
    """Smoothed top-hat: 1 between the two centers, 0 outside.

    ``thickness`` is the 10-90 shear-layer width parameter.
    """
    y = np.asarray(y, dtype=float)
    return 0.5 * (
        np.tanh((y - center_low) / thickness) - np.tanh((y - center_high) / thickness)
    )


def slot_jet(mechanism, grid, *, p, jet, coflow, slot_width, shear_thickness,
             jet_velocity, coflow_velocity, axis=0, fluctuations=None):
    """Two-stream slot-burner initial condition (§6.2 / §7.2 geometry).

    Parameters
    ----------
    jet, coflow:
        Dicts with keys ``T`` [K] and ``Y`` (mass-fraction array) for the
        central jet and the surrounding coflow.
    slot_width:
        Physical width h of the central slot [m], centred in the
        transverse direction (axis 1).
    shear_thickness:
        Tanh shear-layer thickness [m].
    jet_velocity, coflow_velocity:
        Streamwise velocities [m/s].
    fluctuations:
        Optional velocity-fluctuation arrays (list of ndim arrays of the
        grid shape) superposed inside the jet region, e.g. from
        :mod:`repro.turbulence.synthetic`.

    Returns the state plus the inflow-profile arrays (velocity profile,
    temperature profile, composition profile) for boundary conditions.
    """
    mesh = grid.meshgrid()
    y = mesh[1]
    ly = grid.lengths[1]
    lo = 0.5 * (ly - slot_width)
    hi = 0.5 * (ly + slot_width)
    blend = tanh_profile(y, lo, hi, shear_thickness)  # 1 in jet, 0 in coflow

    t_field = coflow["T"] + (jet["T"] - coflow["T"]) * blend
    y_jet = np.asarray(jet["Y"], dtype=float).reshape((-1,) + (1,) * grid.ndim)
    y_cof = np.asarray(coflow["Y"], dtype=float).reshape((-1,) + (1,) * grid.ndim)
    y_field = y_cof + (y_jet - y_cof) * blend[None]
    u_stream = coflow_velocity + (jet_velocity - coflow_velocity) * blend

    velocity = [np.zeros(grid.shape) for _ in range(grid.ndim)]
    velocity[axis] = u_stream
    if fluctuations is not None:
        for a in range(grid.ndim):
            velocity[a] = velocity[a] + fluctuations[a] * blend

    rho = mechanism.density(p, t_field, y_field)
    state = State.from_primitive(mechanism, grid, rho, velocity, t_field, y_field)
    inflow = {
        "velocity": velocity,
        "temperature": t_field,
        "mass_fractions": y_field,
        "blend": blend,
    }
    return state, inflow
