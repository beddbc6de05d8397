"""The per-face NSCBC pass as it stood before the faces were batched,
frozen verbatim: the bitwise oracle of
:class:`repro.core.nscbc.BoundaryPass` (``tests/test_nscbc.py``) and the
boundary step of the frozen single-function RHS in
``tests/test_rhs_engine.py``. One small NumPy call per face, species and
velocity component; an inviscid face differentiates every species over
the whole field."""

from __future__ import annotations

import numpy as np

from repro.core.config import resolve_face_value
from repro.util.constants import RU
from repro.util.reduction import axis0_sum


def _face_index(ndim: int, axis: int, side: int):
    idx = [slice(None)] * ndim
    idx[axis] = -1 if side else 0
    return tuple(idx)


def apply_boundary_conditions(rhs, t, du, *, rho, vel, T, p, Y,
                              grad_rho, grad_p, grad_vel, grad_y):
    """Apply all non-periodic boundary specs to the assembled RHS ``du``."""
    st = rhs.state
    ndim = rhs.ndim
    for (axis, side), spec in rhs.boundaries.items():
        if spec.kind == "periodic":
            continue
        face = _face_index(ndim, axis, side)
        if spec.kind == "hard_inflow":
            _hard_inflow(rhs, t, du, face, spec)
            continue
        _characteristic_face(
            rhs, du, face, spec, axis, side,
            rho=rho, vel=vel, T=T, p=p, Y=Y,
            grad_rho=grad_rho, grad_p=grad_p,
            grad_vel=grad_vel, grad_y=grad_y,
        )


def _hard_inflow(rhs, t, du, face, spec):
    """Pin u, T, Y at the face; density evolves with continuity."""
    st = rhs.state
    mech = rhs.mech
    vel_t = resolve_face_value(spec.velocity, t)
    T_t = resolve_face_value(spec.temperature, t)
    Y_t = resolve_face_value(spec.mass_fractions, t)
    drho = du[st.i_rho][face]
    e_int = mech.int_energy_mass(T_t, Y_t)
    ke = 0.5 * sum(np.asarray(vel_t[a]) ** 2 for a in range(rhs.ndim))
    e0_t = e_int + ke
    for a in range(rhs.ndim):
        du[st.i_mom(a)][face] = np.asarray(vel_t[a]) * drho
    du[st.i_energy][face] = e0_t * drho
    for k in range(st.n_transported):
        du[st.i_species(k)][face] = Y_t[k] * drho


def _characteristic_face(rhs, du, face, spec, axis, side, *,
                         rho, vel, T, p, Y, grad_rho, grad_p, grad_vel, grad_y):
    """The LODI correction swap on one ``nonreflecting_outflow`` face."""
    st = rhs.state
    mech = rhs.mech
    ndim = rhs.ndim
    length = rhs.grid.lengths[axis]
    transverse = [a for a in range(ndim) if a != axis]

    rho_f = rho[face]
    un = vel[axis][face]
    p_f = p[face]
    T_f = T[face]
    Y_f = Y[(slice(None),) + face]
    # face thermodynamics from one fused NASA-7 pass: the same arithmetic
    # as mech.sound_speed / cv_mass / int_energy_mass and the species
    # internal energies, each of which would re-evaluate h or cp on T_f
    w = mech.weights.reshape((-1,) + (1,) * T_f.ndim)
    h_i, cp_i = mech.thermo.enthalpy_cp_molar(T_f)
    h_i /= w
    cp_i /= w
    cp_i *= Y_f
    cp_mix = axis0_sum(cp_i)
    r_spec = mech.gas_constant(Y_f)
    cv = cp_mix - r_spec
    a_f = np.sqrt(cp_mix / cv * r_spec * T_f)
    e_i = h_i - RU * T_f[None] / w
    e_int_f = axis0_sum(h_i * Y_f) - r_spec * T_f
    mach2 = np.minimum((un / a_f) ** 2, 0.99)

    dp_dn = grad_p[axis][face]
    drho_dn = grad_rho[axis][face]
    dun_dn = grad_vel[axis][axis][face]
    dut_dn = [grad_vel[a][axis][face] for a in transverse]
    nk = st.n_transported
    if grad_y is not None:
        dy_dn = [grad_y[k, axis][face] for k in range(nk)]
    else:
        dy_dn = [rhs.ops[axis](Y[k], axis=axis)[face] for k in range(nk)]

    lam1 = un - a_f
    lam2 = un
    lam5 = un + a_f
    roa = rho_f * a_f

    # physical amplitudes
    L1 = lam1 * (dp_dn - roa * dun_dn)
    L2 = lam2 * (a_f**2 * drho_dn - dp_dn)
    Lt = [lam2 * d for d in dut_dn]
    Ls = [lam2 * d for d in dy_dn]
    L5 = lam5 * (dp_dn + roa * dun_dn)

    # modified amplitudes: relax the incoming acoustic wave towards the
    # far-field pressure; where the flow locally re-enters, damp the
    # convected waves too
    k_relax = spec.sigma * a_f * (1.0 - mach2) / length
    M1, M5 = L1, L5
    if side == 1:
        M1 = k_relax * (p_f - spec.p_inf)
    else:
        M5 = k_relax * (p_f - spec.p_inf)
    entering = (un * (1.0 if side else -1.0)) < 0.0  # outward normal sign
    M2 = np.where(entering, 0.0, L2)
    Mt = [np.where(entering, 0.0, x) for x in Lt]
    Ms = [np.where(entering, 0.0, x) for x in Ls]

    # LODI deltas: (physical - modified) source terms
    dd1 = ((L2 - M2) + 0.5 * ((L5 - M5) + (L1 - M1))) / a_f**2
    dd2 = 0.5 * ((L5 - M5) + (L1 - M1))
    dd3 = ((L5 - M5) - (L1 - M1)) / (2.0 * roa)
    dd4 = [Lt[j] - Mt[j] for j in range(len(transverse))]
    dd5 = [Ls[k] - Ms[k] for k in range(nk)]

    # primitive corrections (added to d/dt of each primitive)
    c_rho = dd1
    c_p = dd2
    c_un = dd3
    c_ut = dd4
    c_y = dd5

    # convert to conservative corrections on the face
    w = mech.weights
    n_last = mech.n_species - 1
    d_r = RU * np.array([1.0 / w[k] - 1.0 / w[n_last] for k in range(nk)])

    dR = sum(d_r[k] * c_y[k] for k in range(nk)) if nk else 0.0
    dT = (c_p - r_spec * T_f * c_rho - rho_f * T_f * dR) / (rho_f * r_spec)
    de_int = cv * dT + sum((e_i[k] - e_i[n_last]) * c_y[k] for k in range(nk))

    vel_f = [vel[a][face] for a in range(ndim)]
    ke = 0.5 * sum(vf * vf for vf in vel_f)

    c_vel = [None] * ndim
    c_vel[axis] = c_un
    for j, a in enumerate(transverse):
        c_vel[a] = c_ut[j]

    du[st.i_rho][face] += c_rho
    for a in range(ndim):
        du[st.i_mom(a)][face] += vel_f[a] * c_rho + rho_f * c_vel[a]
    du[st.i_energy][face] += (
        (e_int_f + ke) * c_rho
        + rho_f * de_int
        + rho_f * sum(vel_f[a] * c_vel[a] for a in range(ndim))
    )
    for k in range(nk):
        du[st.i_species(k)][face] += Y_f[k] * c_rho + rho_f * c_y[k]
