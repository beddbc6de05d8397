"""PREMIX substitute: 1D freely propagating laminar premixed flame.

The paper's Table 1 anchors the Bunsen parametric study to unstrained
laminar flame properties computed with PREMIX [38]: flame speed SL,
thermal thickness deltaL (max temperature gradient), heat-release FWHM
deltaH, and the flame time deltaL/SL. This module reproduces those
numbers with a damped time-marching method-of-lines solver:

* low-Mach 1D equations at constant pressure with a fixed mass flux
  ``m = rho u`` per round,
* the flame-speed eigenvalue found by front-drift iteration: integrate
  a round with fixed m, measure the drift velocity of the
  mid-temperature isotherm, and correct ``m -> m - rho_u v_drift``
  until the front is stationary (drift below tolerance),
* stiff integration with SciPy BDF and a block-tridiagonal Jacobian
  sparsity pattern,
* inlet Dirichlet (fresh reactants), outlet zero-gradient.

Convection is first-order upwind and diffusion second-order centred;
resolution-converged SL values land within several percent of
literature, which is all the Table 1 shape comparisons need.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chemistry.zerod import ConstPressureReactor


@dataclass
class LaminarFlameProperties:
    """Converged unstrained laminar flame properties (Table 1 inputs)."""

    flame_speed: float        # SL [m/s]
    thermal_thickness: float  # deltaL [m]
    heat_release_fwhm: float  # deltaH [m]
    t_burned: float           # adiabatic flame temperature [K]

    @property
    def flame_time(self) -> float:
        """tau_f = deltaL / SL."""
        return self.thermal_thickness / self.flame_speed


class FreeFlame:
    """Freely propagating premixed flame solver.

    Parameters
    ----------
    mechanism, transport:
        Chemistry and transport models (any ``evaluate(T, p, Y)``).
    pressure:
        Constant thermodynamic pressure [Pa].
    t_unburned, y_unburned:
        Fresh-mixture temperature and mass fractions.
    length:
        Domain length [m]; should hold ~10 flame thicknesses.
    n_points:
        Grid points (uniform).
    """

    #: mass-flux rounds :meth:`solve` takes at most; the front drift (a
    #: fraction of SL) that ends them; the under-relaxation of each
    #: mass-flux correction
    MAX_ROUNDS = 12
    DRIFT_TOL = 0.02
    RELAX = 0.8

    def __init__(self, mechanism, transport, pressure, t_unburned, y_unburned,
                 length=8e-3, n_points=128):
        self.mech = mechanism
        self.transport = transport
        self.p = float(pressure)
        self.t_u = float(t_unburned)
        self.y_u = np.asarray(y_unburned, dtype=float)
        self.length = float(length)
        self.n = int(n_points)
        self.x = np.linspace(0.0, self.length, self.n)
        self.dx = self.x[1] - self.x[0]
        self.rho_u = float(mechanism.density(self.p, self.t_u, self.y_u))
        self._burned_state()
        self.t_mid = self.t_u + 0.5 * (self.t_b - self.t_u)
        self.solution = None
        self.m_flux = None

    # ------------------------------------------------------------------
    def _burned_state(self):
        """Adiabatic burned state at the unburned enthalpy."""
        reactor = ConstPressureReactor(self.mech, self.p)
        # kick the reactor from a hot start, then correct T to the
        # unburned-mixture enthalpy with the burned composition
        _, T, Y = reactor.integrate(1800.0, self.y_u, 0.05, n_out=50)
        y_b = np.clip(Y[:, -1], 0.0, 1.0)
        y_b = y_b / y_b.sum()
        h_u = float(self.mech.enthalpy_mass(np.asarray(self.t_u), self.y_u))
        t_b = float(
            self.mech.temperature_from_enthalpy(np.array([h_u]), y_b[:, None])[0]
        )
        self.t_b = t_b
        self.y_b = y_b

    def _initial_profile(self):
        """Tanh interface between fresh and burned states."""
        w = 0.04 * self.length
        x0 = 0.4 * self.length
        blend = 0.5 * (1.0 + np.tanh((self.x - x0) / w))
        T = self.t_u + (self.t_b - self.t_u) * blend
        Y = self.y_u[:, None] + (self.y_b - self.y_u)[:, None] * blend[None]
        return T, Y

    # -- state packing: [(T, Y_0..Y_{Ns-1}) at points 1..n-1] -------------
    def _pack(self, T, Y):
        block = np.vstack([T[None, 1:], Y[:, 1:]])  # (nb, n-1)
        return block.T.ravel()

    def _unpack(self, y):
        nb = 1 + self.mech.n_species
        block = y.reshape(self.n - 1, nb).T
        T = np.empty(self.n)
        T[0] = self.t_u
        T[1:] = block[0]
        Y = np.empty((self.mech.n_species, self.n))
        Y[:, 0] = self.y_u
        Y[:, 1:] = block[1:]
        return T, Y

    # ------------------------------------------------------------------
    def _rhs(self, t, y, m):
        mech, dx = self.mech, self.dx
        T, Y = self._unpack(y)
        T = np.clip(T, 250.0, 3500.0)
        Y = np.clip(Y, 0.0, 1.0)
        Y = Y / Y.sum(axis=0)[None]
        rho = mech.density(self.p, T, Y)
        props = self.transport.evaluate(T, self.p, Y)
        lam, dcoef = props.conductivity, props.diffusivities
        cp = mech.cp_mass(T, Y)
        wdot = mech.production_rates(rho, T, Y)
        h_i = mech.species_enthalpy_mass(T)

        def diff_flux(coef, f):
            """d/dx (coef df/dx); zero-gradient outlet, Dirichlet inlet."""
            c_half = 0.5 * (coef[..., :-1] + coef[..., 1:])
            flux = c_half * (f[..., 1:] - f[..., :-1]) / dx
            out = np.zeros_like(f)
            out[..., 1:-1] = (flux[..., 1:] - flux[..., :-1]) / dx
            out[..., -1] = (0.0 - flux[..., -1]) / dx
            return out

        def upwind(f):
            out = np.zeros_like(f)
            out[..., 1:] = (f[..., 1:] - f[..., :-1]) / dx
            return out

        dT = (diff_flux(lam, T) - m * cp * upwind(T) - (h_i * wdot).sum(axis=0)) / (
            rho * cp
        )
        dY = (diff_flux(rho[None] * dcoef, Y) - m * upwind(Y) + wdot) / rho[None]
        block = np.vstack([dT[None, 1:], dY[:, 1:]])
        return block.T.ravel()

    def _sparsity(self):
        from scipy.sparse import lil_matrix  # deferred: see chemistry/zerod.py

        nb = 1 + self.mech.n_species
        size = nb * (self.n - 1)
        s = lil_matrix((size, size), dtype=np.int8)
        for i in range(self.n - 1):
            lo = max(0, i - 1)
            hi = min(self.n - 2, i + 1)
            s[i * nb : (i + 1) * nb, lo * nb : (hi + 1) * nb] = 1
        return s.tocsr()

    def _front_position(self, T) -> float:
        """Interpolated location of the T = T_mid crossing."""
        above = np.nonzero(T >= self.t_mid)[0]
        if above.size == 0:
            return self.length
        k = above[0]
        if k == 0:
            return 0.0
        frac = (self.t_mid - T[k - 1]) / (T[k] - T[k - 1])
        return float(self.x[k - 1] + frac * self.dx)

    def _recenter(self, T, Y, target=0.4):
        """Shift the profile by whole cells to keep the front near
        ``target`` of the domain (replicating edge states)."""
        x_f = self._front_position(T)
        shift = int(round((x_f - target * self.length) / self.dx))
        if shift == 0:
            return T, Y
        T2 = np.roll(T, -shift)
        Y2 = np.roll(Y, -shift, axis=1)
        if shift > 0:
            T2[-shift:] = T[-1]
            Y2[:, -shift:] = Y[:, -1][:, None]
        else:
            T2[:-shift] = self.t_u
            Y2[:, :-shift] = self.y_u[:, None]
        return T2, Y2

    # ------------------------------------------------------------------
    def solve(self, sl_guess=0.5, rtol=1e-5, atol=1e-8):
        """Find the steady flame; returns :class:`LaminarFlameProperties`.

        Each round integrates with fixed mass flux m, measures the front
        drift velocity, and corrects ``m <- m - RELAX rho_u v_drift``
        until |v_drift| < DRIFT_TOL * SL.
        """
        from scipy.integrate import solve_ivp

        T, Y = self._initial_profile()
        m = self.rho_u * sl_guess
        sparsity = self._sparsity()
        sl = sl_guess
        for round_ in range(self.MAX_ROUNDS):
            T, Y = self._recenter(T, Y)
            y0 = self._pack(T, Y)
            x0 = self._front_position(T)
            # burn through a few flame self-crossing times per round
            horizon = 0.6 * self.length / max(m / self.rho_u, 0.05)
            sol = solve_ivp(
                self._rhs, (0.0, horizon), y0, args=(m,), method="BDF",
                jac_sparsity=sparsity, rtol=rtol, atol=atol,
            )
            if not sol.success:
                raise RuntimeError(f"flame solver failed: {sol.message}")
            T, Y = self._unpack(sol.y[:, -1])
            Y = np.clip(Y, 0.0, 1.0)
            Y = Y / Y.sum(axis=0)[None]
            x1 = self._front_position(T)
            v_drift = (x1 - x0) / horizon
            sl = m / self.rho_u
            if abs(v_drift) < self.DRIFT_TOL * max(sl, 1e-3):
                break
            m = m - self.RELAX * self.rho_u * v_drift
            m = max(m, 1e-4 * self.rho_u)
        self.solution = self._pack(T, Y)
        self.m_flux = m
        return self.properties()

    # ------------------------------------------------------------------
    def profiles(self):
        """(x, T, Y, heat_release) of the converged solution."""
        if self.solution is None:
            raise RuntimeError("call solve() first")
        T, Y = self._unpack(self.solution)
        Y = np.clip(Y, 0.0, 1.0)
        Y = Y / Y.sum(axis=0)[None]
        rho = self.mech.density(self.p, T, Y)
        q = self.mech.heat_release_rate(rho, T, Y)
        return self.x, T, Y, q

    def properties(self) -> LaminarFlameProperties:
        if self.solution is None:
            raise RuntimeError("call solve() first")
        x, T, Y, q = self.profiles()
        sl = float(self.m_flux / self.rho_u)
        dtdx = np.gradient(T, x)
        delta_l = float((T.max() - self.t_u) / np.abs(dtdx).max())
        delta_h = self._fwhm(x, q)
        return LaminarFlameProperties(
            flame_speed=sl,
            thermal_thickness=delta_l,
            heat_release_fwhm=delta_h,
            t_burned=float(T.max()),
        )

    @staticmethod
    def _fwhm(x, q) -> float:
        q = np.asarray(q, dtype=float)
        peak = q.max()
        if peak <= 0:
            return float("nan")
        above = q >= 0.5 * peak
        idx = np.nonzero(above)[0]
        return float(x[idx[-1]] - x[idx[0]])
