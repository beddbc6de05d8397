"""Solution state: conserved-variable storage and primitive recovery.

The conserved vector follows eqs. (1)-(4) of the paper:

    U = [rho, rho*u_1..rho*u_ndim, rho*e0, rho*Y_1..rho*Y_{Ns-1}]

Only Ns-1 species are transported; the last species' mass fraction is
recovered from the constraint sum(Y) = 1 (eq. 6), exactly as in S3D.

``State`` wraps the raw array together with the mechanism and grid and
caches the temperature field (recovered from total energy by Newton
iteration) between evaluations — the previous temperature is an
excellent initial guess, so the per-step cost is 1-2 Newton sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.util.constants import RU
from repro.util.reduction import axis0_sum


class State:
    """Conserved-variable state on a grid.

    Parameters
    ----------
    mechanism:
        Chemistry mechanism (defines the species block).
    grid:
        The :class:`~repro.core.grid.Grid`.
    u:
        Optional pre-existing conserved array of shape ``(nvar,) + grid.shape``.
    """

    def __init__(self, mechanism, grid, u=None):
        self.mech = mechanism
        self.grid = grid
        self.ndim = grid.ndim
        self.n_transported = mechanism.n_species - 1
        self.nvar = 2 + self.ndim + self.n_transported
        shape = (self.nvar,) + grid.shape
        if u is None:
            self.u = np.zeros(shape)
        else:
            u = np.asarray(u, dtype=float)
            if u.shape != shape:
                raise ValueError(f"state array must have shape {shape}, got {u.shape}")
            self.u = u
        self._t_cache = None
        #: monotonically increasing buffer-version token; incremented by
        #: :meth:`mark_modified` whenever ``self.u`` is mutated in place
        #: outside an integrator stage, so per-evaluation property caches
        #: (see :class:`~repro.core.rhs.CompressibleRHS`) can invalidate
        self.version = 0

    def mark_modified(self) -> None:
        """Declare that ``self.u`` was mutated in place.

        Any code that writes into the conserved array directly (filters,
        restart loads, manual edits) must call this so memoized
        thermo/transport properties keyed on the buffer are invalidated.
        """
        self.version += 1

    # ------------------------------------------------------------------
    # index helpers
    # ------------------------------------------------------------------
    @property
    def i_rho(self) -> int:
        return 0

    def i_mom(self, axis: int) -> int:
        return 1 + axis

    @property
    def i_energy(self) -> int:
        return 1 + self.ndim

    def i_species(self, k: int) -> int:
        """Index of transported species k (k < Ns-1)."""
        return 2 + self.ndim + k

    @property
    def species_slice(self) -> slice:
        return slice(2 + self.ndim, self.nvar)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_primitive(cls, mechanism, grid, rho, velocity, T, Y):
        """Build a state from primitive fields.

        ``velocity`` is a sequence of ``ndim`` arrays (or scalars); ``Y``
        has shape ``(Ns,) + grid.shape`` (or ``(Ns,)`` for uniform
        composition).
        """
        st = cls(mechanism, grid)
        shape = grid.shape
        rho = np.broadcast_to(np.asarray(rho, dtype=float), shape)
        T = np.broadcast_to(np.asarray(T, dtype=float), shape)
        Y = np.asarray(Y, dtype=float)
        if Y.ndim == 1:
            Y = Y.reshape((-1,) + (1,) * len(shape))
        Y = np.broadcast_to(Y, (mechanism.n_species,) + shape)
        vel = [np.broadcast_to(np.asarray(v, dtype=float), shape) for v in velocity]
        if len(vel) != grid.ndim:
            raise ValueError(f"need {grid.ndim} velocity components")
        e_int = mechanism.int_energy_mass(T, Y)
        ke = sum(v * v for v in vel) * 0.5
        st.u[st.i_rho] = rho
        for ax, v in enumerate(vel):
            st.u[st.i_mom(ax)] = rho * v
        st.u[st.i_energy] = rho * (e_int + ke)
        for k in range(st.n_transported):
            st.u[st.i_species(k)] = rho * Y[k]
        st._t_cache = np.array(T, copy=True)
        return st

    def copy(self) -> "State":
        other = State(self.mech, self.grid, self.u.copy())
        if self._t_cache is not None:
            other._t_cache = self._t_cache.copy()
        return other

    # ------------------------------------------------------------------
    # primitive recovery
    # ------------------------------------------------------------------
    def mass_fractions(self, u=None):
        """Full (Ns,)+S mass fractions; last species from the constraint."""
        u = self.u if u is None else u
        rho = u[self.i_rho]
        ns = self.mech.n_species
        Y = np.empty((ns,) + rho.shape)
        transported = u[self.species_slice] / rho[None]
        np.clip(transported, 0.0, 1.0, out=transported)
        Y[: ns - 1] = transported
        Y[ns - 1] = np.clip(1.0 - transported.sum(axis=0), 0.0, 1.0)
        return Y

    def primitives(self, u=None):
        """Decode (rho, [u_alpha], T, p, Y, e0) from the conserved array.

        A pure observation: the temperature solve starts from the cached
        Newton guess but leaves it untouched, so monitors, renders,
        checkpoints and summaries may look at a live solver without
        changing a bit of any later step. Only the RHS evaluations
        (:meth:`primitives_ws`, the RHS oracle) refresh the cache.
        """
        u = self.u if u is None else u
        rho = u[self.i_rho]
        vel = [u[self.i_mom(ax)] / rho for ax in range(self.ndim)]
        Y = self.mass_fractions(u)
        e0 = u[self.i_energy] / rho
        ke = sum(v * v for v in vel) * 0.5
        e_int = e0 - ke
        guess = self._t_cache if (
            self._t_cache is not None and self._t_cache.shape == rho.shape
        ) else None
        T = self.mech.temperature_from_energy(e_int, Y, T_guess=guess)
        p = self.mech.pressure(rho, T, Y)
        return rho, vel, T, p, Y, e0

    def primitives_ws(self, u, workspace):
        """Workspace-backed :meth:`primitives`, plus the mean weight.

        Decodes into pooled scratch arrays (zero large allocations once
        the arena is warm, apart from the Newton temperature solve) and
        returns ``(rho, vel, T, p, Y, e0, wbar)`` — ``wbar`` comes free
        from the pressure evaluation and the RHS needs it for
        the diffusion-driving d(ln wbar)/dx sweeps. Bitwise identical to
        :meth:`primitives`.
        """
        ws = workspace
        u = self.u if u is None else u
        rho = u[self.i_rho]
        S = rho.shape
        ndim = self.ndim
        ns = self.mech.n_species
        vel_buf = ws.array("state.vel", (ndim,) + S)
        np.divide(u[1 : 1 + ndim], rho[None], out=vel_buf)
        vel = [vel_buf[ax] for ax in range(ndim)]
        # mass fractions (last species from the sum(Y) = 1 constraint)
        Y = ws.array("state.Y", (ns,) + S)
        transported = Y[: ns - 1]
        np.divide(u[self.species_slice], rho[None], out=transported)
        np.clip(transported, 0.0, 1.0, out=transported)
        last = Y[ns - 1 : ns]
        np.sum(transported, axis=0, out=last[0])
        np.subtract(1.0, last, out=last)
        np.clip(last, 0.0, 1.0, out=last)
        e0 = ws.array("state.e0", S)
        np.divide(u[self.i_energy], rho, out=e0)
        # kinetic energy: sum(v*v) * 0.5, then e_int = e0 - ke
        ke = ws.array("state.ke", S)
        tmp = ws.array("state.tmp", S)
        np.multiply(vel[0], vel[0], out=ke)
        for ax in range(1, ndim):
            np.multiply(vel[ax], vel[ax], out=tmp)
            ke += tmp
        ke *= 0.5
        e_int = ws.array("state.e_int", S)
        np.subtract(e0, ke, out=e_int)
        guess = self._t_cache if (
            self._t_cache is not None and self._t_cache.shape == S
        ) else None
        T = self.mech.temperature_from_energy(e_int, Y, T_guess=guess)
        self._t_cache = T
        # p = rho Ru T / wbar with wbar = 1 / sum(Y_i / W_i)
        w = self.mech.weights.reshape((-1,) + (1,) * len(S))
        ybuf = ws.array("state.y_over_w", (ns,) + S)
        np.divide(Y, w, out=ybuf)
        wbar = ws.array("state.wbar", S)
        np.sum(ybuf, axis=0, out=wbar)
        np.divide(1.0, wbar, out=wbar)
        p = ws.array("state.p", S)
        np.multiply(rho, RU, out=p)
        p *= T
        p /= wbar
        return rho, vel, T, p, Y, e0, wbar

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def total_mass(self) -> float:
        """Volume-integrated mass [kg]."""
        return float((self.u[self.i_rho] * self.grid.cell_volumes()).sum())

    def total_energy(self) -> float:
        """Volume-integrated total energy [J]."""
        return float((self.u[self.i_energy] * self.grid.cell_volumes()).sum())

    def min_max(self) -> dict:
        """Per-variable (min, max) — the paper's §9 ASCII monitoring data."""
        names = self.variable_names()
        return {
            name: (float(self.u[i].min()), float(self.u[i].max()))
            for i, name in enumerate(names)
        }

    def variable_names(self) -> list:
        names = ["rho"]
        names += [f"rho_u{ax}" for ax in range(self.ndim)]
        names += ["rho_e0"]
        names += [f"rho_Y_{self.mech.species_names[k]}" for k in range(self.n_transported)]
        return names


# ---------------------------------------------------------------------------
# Strang-split reactor coupling
# ---------------------------------------------------------------------------
def strang_reactor_inputs(u, ndim: int, n_species: int):
    """Decode ``(rho_flat, e_int_flat, Y_flat)`` for a chemistry half-step.

    ``u`` is a conserved block ``(nvar,) + S``, a rank's or a world of
    one's. Mass fractions follow :meth:`State.mass_fractions` exactly
    (clip to [0, 1], last species from the sum constraint); the specific
    internal energy is the total energy minus resolved kinetic energy.
    All reductions are fixed-order
    (:func:`~repro.util.reduction.axis0_sum`), so a cell decodes — and
    reacts — to the same bits on any block, balanced or not.
    """
    rho = u[0]
    S = rho.shape
    nt = n_species - 1
    sl = slice(2 + ndim, 2 + ndim + nt)
    transported = u[sl] / rho[None]
    np.clip(transported, 0.0, 1.0, out=transported)
    Y = np.empty((n_species,) + S)
    Y[:nt] = transported
    Y[nt] = np.clip(1.0 - axis0_sum(transported), 0.0, 1.0)
    ke = None
    for ax in range(ndim):
        v = u[1 + ax] / rho
        v = v * v
        ke = v if ke is None else ke + v
    e_int = u[1 + ndim] / rho - 0.5 * ke
    return (
        np.ascontiguousarray(rho.reshape(-1)),
        np.ascontiguousarray(e_int.reshape(-1)),
        np.ascontiguousarray(Y.reshape(n_species, -1)),
    )
