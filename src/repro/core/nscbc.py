"""Navier-Stokes characteristic boundary conditions (NSCBC).

Implements the subsonic non-reflecting outflow treatment the
paper prescribes for its stationary DNS configurations (§2.6, refs
[12, 13]): the locally one-dimensional inviscid (LODI) characteristic
decomposition of the boundary-normal convective terms, with incoming
wave amplitudes replaced by relaxation expressions.

Characteristic wave amplitudes along axis n (Poinsot & Lele):

    L1 = (u - a) (dp/dn - rho a du/dn)      left-running acoustic
    L2 =  u      (a^2 drho/dn - dp/dn)      entropy
    Lt =  u      (dv/dn)                    vorticity (per transverse dir)
    Ls =  u      (dY_i/dn)                  species
    L5 = (u + a) (dp/dn + rho a du/dn)      right-running acoustic

and the LODI source terms

    d1 = (L2 + (L5 + L1)/2) / a^2   -> -d(rho)/dt
    d2 = (L5 + L1)/2                -> -dp/dt
    d3 = (L5 - L1)/(2 rho a)        -> -du/dt
    d4 = Lt                          -> -dv/dt
    d5 = Ls                          -> -dY/dt

The implementation uses the correction-swap strategy: the interior
scheme's one-sided derivatives produce the *physical* amplitudes, which
are already embedded in the assembled RHS; we subtract the physical
normal terms and add back the modified ones, leaving viscous and
transverse contributions untouched.

``hard_inflow`` faces instead pin the primitive state (u, T, Y) exactly
while density floats with continuity — the treatment used for the
prescribed jet inflows of §6.2/§7.2.

Every characteristic face of a domain is one batch (:class:`BoundaryPass`).
A face plan built once from ``boundaries`` and the grid holds the flat
index of every face point with its face's axis, outward side, ``sigma``,
``p_inf`` and axis length. An evaluation then takes the face primitives
from the RHS's gradient stack in one gather, their normal derivatives
from the swept gradients and their species enthalpies from the RHS's
``h_i`` field in one more each, evaluates NASA-7 ``cp`` once for all
faces, and runs the LODI algebra with face points and species as array
axes. Only the scatter into ``du`` goes face by face, in the order of
``boundaries``: a corner two faces share, and a hard inflow's read of
``d(rho)/dt``, see every earlier face's correction, as they would face
by face.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import resolve_face_value
from repro.util.constants import RU


#: ``u - a``, ``u + a``: the acoustic pair's signs
_MINUS_PLUS = np.array([[-1.0], [1.0]])


def _face_index(ndim: int, axis: int, side: int):
    idx = [slice(None)] * ndim
    idx[axis] = -1 if side else 0
    return tuple(idx)


def _fold(terms):
    """``terms[0] + terms[1] + ...`` over the leading axis, term by term
    in order (:func:`~repro.util.reduction.axis0_sum` in one call)."""
    return np.add.accumulate(terms, axis=0)[-1]


def _sum(terms):
    """``sum(terms)``: Python's ``sum`` starts from 0, which changes the
    fold only where every term is ``-0`` (``0 + -0`` is ``+0``), so adding
    the 0 last gives the same bits."""
    return _fold(terms) + 0.0 if len(terms) else 0.0


def _components(value, face_ndim: int):
    """A leading-axis target (constants or face profiles) shaped to
    broadcast against a face."""
    return value.reshape(value.shape + (1,) * (1 + face_ndim - value.ndim))


class BoundaryPass:
    """The non-periodic faces of one :class:`~repro.core.rhs.CompressibleRHS`.

    ``fields`` are the gradient-stack rows of ``[vel_0 .. vel_{ndim-1},
    Y_0 .. Y_{ns-1}, T, rho, p]`` and ``nf`` the stack's length.
    """

    def __init__(self, rhs, fields, nf: int):
        grid, self.state, self.mech = rhs.grid, rhs.state, rhs.mech
        ndim = self.ndim = grid.ndim
        npts = math.prod(grid.shape)
        ids = np.arange(npts).reshape(grid.shape)
        #: ``(face, spec, points)`` in ``boundaries`` order; ``points`` is
        #: a characteristic face's slice of the batch, or a constant
        #: inflow's folded internal energy (None when it varies in time)
        self.faces = []
        flat, axis_of, side_of, sigma, p_inf, length = [], [], [], [], [], []
        start = 0
        for (axis, side), spec in rhs.boundaries.items():
            if spec.kind == "periodic":
                continue
            face = _face_index(ndim, axis, side)
            if spec.kind == "hard_inflow":
                fixed = not (callable(spec.temperature) or callable(spec.mass_fractions))
                e_int = self.mech.int_energy_mass(
                    resolve_face_value(spec.temperature, 0.0),
                    resolve_face_value(spec.mass_fractions, 0.0)) if fixed else None
                self.faces.append((face, spec, e_int))
                continue
            pts = ids[face].reshape(-1)
            self.faces.append((face, spec, slice(start, start + pts.size)))
            start += pts.size
            flat.append(pts)
            for col, value in ((axis_of, axis), (side_of, side), (sigma, spec.sigma),
                               (p_inf, spec.p_inf), (length, grid.lengths[axis])):
                col.append(np.full(pts.size, value))
        self.n = start
        if not start:
            return
        flat, axis_of = np.concatenate(flat), np.concatenate(axis_of)
        high = np.concatenate(side_of) == 1
        # rows of the batch: every field, then the face-normal velocity;
        # the derivative of a row is the same row of the normal axis' sweep
        rows = np.concatenate([np.asarray(fields)[:, None] * npts + flat,
                               (axis_of * npts + flat)[None]])
        self._take = (rows, axis_of * (nf * npts) + rows)
        #: every species' row of an ``(ns,) + S`` field at the face points
        self._take_h = np.arange(self.mech.n_species)[:, None] * npts + flat
        #: the relaxed (incoming) acoustic wave of each point: L1 at a
        #: high face, L5 at a low one
        self._incoming = np.array([high, ~high])
        self._outward = np.where(high, 1.0, -1.0)
        self._normal = np.arange(ndim)[:, None] == axis_of
        self._sigma, self._p_inf, self._length = (
            np.concatenate(sigma), np.concatenate(p_inf), np.concatenate(length))
        w = self.mech.weights[:, None]
        nk = self.state.n_transported
        self._w = w
        self._d_r = RU * (1.0 / w[:nk] - 1.0 / w[nk])

    def apply(self, t, du, stack, grads, h_i) -> None:
        """Correct the assembled ``du`` on every face: ``stack`` is the
        RHS's ``(nf,) + S`` gradient stack, ``grads`` its ``(ndim, nf) + S``
        sweeps and ``h_i`` the ``(ns,) + S`` species enthalpies [J/kg] at
        the stack's temperature (``None`` without a characteristic face)."""
        corr = self._corrections(stack, grads, h_i) if self.n else None
        for face, spec, points in self.faces:
            if spec.kind == "hard_inflow":
                self._hard_inflow(t, du, face, spec, points)
            else:
                view = du[(slice(None),) + face]
                view += corr[:, points].reshape(view.shape)

    def _hard_inflow(self, t, du, face, spec, e_int):
        """Pin u, T, Y at the face; density evolves with continuity."""
        st = self.state
        Y_t = resolve_face_value(spec.mass_fractions, t)
        if e_int is None:
            e_int = self.mech.int_energy_mass(resolve_face_value(spec.temperature, t), Y_t)
        drho = du[st.i_rho][face]
        vel_t = _components(resolve_face_value(spec.velocity, t), drho.ndim)
        e0_t = e_int + 0.5 * _sum(vel_t**2)
        du[(slice(st.i_mom(0), st.i_energy),) + face] = vel_t * drho
        du[st.i_energy][face] = e0_t * drho
        du[(st.species_slice,) + face] = _components(Y_t, drho.ndim)[: st.n_transported] * drho

    def _corrections(self, stack, grads, h_field):
        """The ``(nvar, n)`` LODI correction swap of every characteristic
        face point."""
        st, mech, ndim = self.state, self.mech, self.ndim
        nk = st.n_transported
        prim = np.take(stack, self._take[0])
        grad = np.take(grads, self._take[1])
        vel, Y, (T, rho, p, un) = prim[:ndim], prim[ndim:-4], prim[-4:]
        drho, dp, dun = grad[-3:]
        # face thermodynamics from the field's species enthalpies and one
        # NASA-7 cp pass: the same arithmetic as mech.sound_speed / cv_mass
        # / int_energy_mass / gas_constant and the species internal
        # energies, each of which would re-evaluate h or cp on T
        w = self._w
        h_i = np.take(h_field, self._take_h)
        cp_i = mech.thermo.cp_molar(T) / w
        cp_i *= Y
        cp_mix = _fold(cp_i)
        r_spec = RU / (1.0 / _fold(Y / w))
        cv = cp_mix - r_spec
        a = np.sqrt(cp_mix / cv * r_spec * T)
        e_i = h_i - RU * T[None] / w
        e_int = _fold(h_i * Y) - r_spec * T
        mach2 = np.minimum((un / a) ** 2, 0.99)

        # physical amplitudes: the acoustic pair [L1, L5]; L2; the
        # convected [Lt of every velocity component (the normal one's is
        # never used), Ls]
        roa = rho * a
        L15 = (un + _MINUS_PLUS * a) * (dp + _MINUS_PLUS * (roa * dun))
        L2 = un * (a**2 * drho - dp)
        Lc = un * grad[: ndim + nk]

        # modified amplitudes: relax the incoming acoustic wave towards the
        # far-field pressure; where the flow locally re-enters, damp the
        # convected waves too
        relax = self._sigma * a * (1.0 - mach2) / self._length * (p - self._p_inf)
        d1, d5 = L15 - np.where(self._incoming, relax, L15)
        entering = un * self._outward < 0.0
        dc = Lc - np.where(entering, 0.0, Lc)

        # LODI deltas (physical - modified source terms): the corrections
        # added to d/dt of rho, p, the velocity components and Y
        c_p = 0.5 * (d5 + d1)
        c_rho = ((L2 - np.where(entering, 0.0, L2)) + c_p) / a**2
        c_vel = np.where(self._normal, (d5 - d1) / (2.0 * roa), dc[:ndim])
        c_y = dc[ndim:]

        # convert to conservative corrections
        dR = _sum(self._d_r * c_y)
        dT = (c_p - r_spec * T * c_rho - rho * T * dR) / (rho * r_spec)
        de_int = cv * dT + _sum((e_i[:nk] - e_i[nk]) * c_y)
        ke = 0.5 * _sum(vel * vel)
        corr = np.empty((st.nvar, self.n))
        corr[st.i_rho] = c_rho
        corr[st.i_mom(0) : st.i_energy] = vel * c_rho + rho * c_vel
        corr[st.i_energy] = (e_int + ke) * c_rho + rho * de_int + rho * _sum(vel * c_vel)
        corr[st.species_slice] = Y[:nk] * c_rho + rho * c_y
        return corr
