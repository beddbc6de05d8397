"""Mixture-averaged molecular transport (the TRANSPORT library substitute).

Implements the constitutive models of §2.2-2.5 of the paper:

* pure-species viscosities from Chapman-Enskog theory,
* pure-species conductivities from the Eucken correction,
* Wilke's rule for mixture viscosity, the Mathur-Tondon-Saxena
  combination rule for mixture conductivity,
* binary diffusion coefficients from kinetic theory and the
  mixture-averaged diffusion coefficients of eq. (17),

        D_i^mix = (1 - X_i) / sum_{j != i} X_j / D_ij ,

* optional thermal-diffusion (Soret) ratios for the light species H and
  H2, which the paper notes matter mostly for premixed flames.

All evaluations are vectorized over the grid: temperature of shape ``S``
and mass fractions of shape ``(Ns,) + S`` produce property arrays of
shape ``S`` (scalars) or ``(Ns,) + S`` (per-species).

:meth:`MixtureAveragedTransport.evaluate` is the one production kernel,
and it is the §4.1 restructuring applied to this module: every constant
of a species pair is folded at construction, each of the
``Ns (Ns - 1) / 2`` unordered pairs is visited once and streamed into
per-species accumulators (no ``(Ns, Ns) + S`` array is ever formed), and
the grid is walked in point tiles so the accumulators stay in cache. The
per-property methods (``species_viscosities``, ``binary_diffusion``,
``mixture_viscosity``, ...) are the textbook formulas, materialised —
the readable reference the kernel is tested against.
"""

from __future__ import annotations

import numpy as np

from repro.chemistry.thermo import tiles
from repro.transport.collision import OMEGA11_FIT, OMEGA22_FIT, omega11, omega22
from repro.util.constants import AVOGADRO, BOLTZMANN, RU
from repro.util.reduction import axis0_sum

_ANGSTROM = 1e-10

#: CHEMKIN regularisation of eq. (17): D_i^mix stays finite as X_i -> 1
_TINY = 1e-30

#: light species of the reduced Soret model and their kappa
_SORET_KAPPA = (("H2", -0.29), ("H", -0.35))


class TransportProperties:
    """Bundle of evaluated transport coefficients."""

    __slots__ = ("viscosity", "conductivity", "diffusivities", "thermal_diffusion_ratios")

    def __init__(self, viscosity, conductivity, diffusivities, thermal_diffusion_ratios=None):
        self.viscosity = viscosity  # [Pa s], shape S
        self.conductivity = conductivity  # [W/(m K)], shape S
        self.diffusivities = diffusivities  # [m^2/s], shape (Ns,)+S
        self.thermal_diffusion_ratios = thermal_diffusion_ratios  # dimensionless or None


class MixtureAveragedTransport:
    """Mixture-averaged transport evaluator for a :class:`Mechanism`.

    Parameters
    ----------
    mechanism:
        Chemistry mechanism whose species carry ``TransportData``.
    soret:
        If True, evaluate simple thermal-diffusion ratios for H2 and H.
    """

    def __init__(self, mechanism, soret: bool = False):
        self.mech = mechanism
        self.soret = bool(soret)
        tr = [sp.transport for sp in mechanism.species]
        if any(t is None for t in tr):
            missing = [sp.name for sp in mechanism.species if sp.transport is None]
            raise ValueError(f"species missing transport data: {missing}")
        self.sigma = np.array([t.sigma for t in tr]) * _ANGSTROM  # [m]
        self.eps_over_k = np.array([t.eps_over_k for t in tr])  # [K]
        w = mechanism.weights  # kg/mol
        self.weights = w
        mass = w / AVOGADRO  # molecular mass [kg]
        # Pure-species viscosity prefactor: mu_i = c_i sqrt(T) / Omega22(T*)
        self._mu_pref = (
            5.0 / 16.0 * np.sqrt(np.pi * mass * BOLTZMANN) / (np.pi * self.sigma**2)
        )
        # Pair combination rules.
        self.sigma_ij = 0.5 * (self.sigma[:, None] + self.sigma[None, :])
        self.eps_ij = np.sqrt(self.eps_over_k[:, None] * self.eps_over_k[None, :])
        m_ij = mass[:, None] * mass[None, :] / (mass[:, None] + mass[None, :])
        # Binary diffusion prefactor: D_ij = c_ij T^{3/2} / (p Omega11(T*_ij))
        self._d_pref = (
            3.0
            / 16.0
            * np.sqrt(2.0 * np.pi * BOLTZMANN**3 / m_ij)
            / (np.pi * self.sigma_ij**2)
        )
        # Wilke Phi constants.
        wr = w[:, None] / w[None, :]  # W_i / W_j
        self._phi_denom = np.sqrt(8.0 * (1.0 + wr))
        self._w_quarter = (1.0 / wr) ** 0.25  # (W_j/W_i)^(1/4)
        # Eucken correction constant 1.25 Ru / W_i
        self._euken = 1.25 * RU / w
        self._fold_kernel_constants()

    def _fold_kernel_constants(self):
        """Everything :meth:`evaluate` needs that depends on species or
        species pairs only — build once, evaluate many.

        With ``T* = T / eps`` the Neufeld power term factors as
        ``c0 T*^p = (c0 eps^-p) T^p``, so ``T^p = exp(p ln T)`` is one
        evaluation per point and one multiply per species or pair, and
        each exponential term ``c exp(b T*)`` becomes ``c exp((b/eps) T)``.
        For pairs the kernel needs ``G_ij = Omega11_ij / d_pref_ij``
        (``X_j / D_ij = X_j G_ij p / T^1.5``), so ``1 / d_pref_ij`` is
        folded into every ``c``. Wilke's ``Phi_ij = (1 + a)^2 / denom``
        with ``a = sqrt(mu_i / mu_j) (W_j / W_i)^(1/4)`` becomes
        ``(c1 + c2 sqrt(mu_i) / sqrt(mu_j))^2``. Pair constants are kept
        per row ``i`` as columns over its partners ``j > i``.
        """
        ns = len(self.weights)
        col = lambda values: np.ascontiguousarray(values, dtype=float).reshape(-1, 1)
        self._w_col = col(self.weights)
        self._mu_pref_col = col(self._mu_pref)
        self._euken_col = col(self._euken)
        (c0, self._p22), *exps = OMEGA22_FIT
        self._om22_pow = col(c0 * self.eps_over_k ** -self._p22)
        self._om22_exp = [(c, col(b / self.eps_over_k)) for c, b in exps]
        (c0, self._p11), *exps = OMEGA11_FIT
        root = 1.0 / np.sqrt(self._phi_denom)
        self._g_pow, self._g_exp, self._phi_c1, self._phi_c2 = [], [], [], []
        for i in range(ns - 1):
            eps = self.eps_ij[i, i + 1:]
            pref = self._d_pref[i, i + 1:]
            self._g_pow.append(col(c0 * eps ** -self._p11 / pref))
            self._g_exp.append([(col(b / eps), col(c / pref)) for c, b in exps])
            self._phi_c1.append(col(root[i, i + 1:]))
            self._phi_c2.append(col(self._w_quarter[i, i + 1:] * root[i, i + 1:]))
        self._soret_rows = [
            (self.mech.index(name), kappa) for name, kappa in _SORET_KAPPA
            if name in self.mech.species_names
        ]

    # ------------------------------------------------------------------
    def species_viscosities(self, T):
        """Pure-species viscosities [Pa s], shape (Ns,)+S."""
        T = np.asarray(T, dtype=float)
        t_star = T[None] / self.eps_over_k.reshape((-1,) + (1,) * T.ndim)
        pref = self._mu_pref.reshape((-1,) + (1,) * T.ndim)
        return pref * np.sqrt(T)[None] / omega22(t_star)

    def species_conductivities(self, T):
        """Pure-species conductivities via Eucken [W/(m K)], shape (Ns,)+S."""
        T = np.asarray(T, dtype=float)
        mu = self.species_viscosities(T)
        w = self.weights.reshape((-1,) + (1,) * T.ndim)
        cp_mass = self.mech.thermo.cp_molar(T) / w
        return mu * (cp_mass + 1.25 * RU / w)

    def binary_diffusion(self, T, p):
        """Binary diffusion matrix D_ij [m^2/s], shape (Ns, Ns)+S."""
        T = np.asarray(T, dtype=float)
        p = np.asarray(p, dtype=float)
        extra = (1,) * T.ndim
        t_star = T[None, None] / self.eps_ij.reshape(self.eps_ij.shape + extra)
        pref = self._d_pref.reshape(self._d_pref.shape + extra)
        return pref * T[None, None] ** 1.5 / (np.broadcast_to(p, T.shape)[None, None] * omega11(t_star))

    def mixture_viscosity(self, T, X):
        """Wilke mixture viscosity [Pa s], shape S."""
        T = np.asarray(T, dtype=float)
        X = np.asarray(X, dtype=float)
        mu = self.species_viscosities(T)
        extra = (1,) * T.ndim
        ratio = np.sqrt(mu[:, None] / mu[None, :])  # (Ns,Ns)+S
        wq = self._w_quarter.reshape(self._w_quarter.shape + extra)
        phi = (1.0 + ratio * wq) ** 2 / self._phi_denom.reshape(
            self._phi_denom.shape + extra
        )
        denom = np.einsum("j...,ij...->i...", X, phi)
        return (X * mu / denom).sum(axis=0)

    def mixture_conductivity(self, T, X):
        """Mathur-Tondon-Saxena mixture conductivity [W/(m K)], shape S."""
        lam = self.species_conductivities(T)
        X = np.asarray(X, dtype=float)
        s1 = (X * lam).sum(axis=0)
        s2 = (X / lam).sum(axis=0)
        return 0.5 * (s1 + 1.0 / s2)

    def mixture_diffusivities(self, T, p, X, Y=None):
        """Mixture-averaged diffusion coefficients D_i^mix (eq. 17).

        Uses the mass-fraction form ``(1 - Y_i) / sum_{j!=i} X_j / D_ij``
        which stays finite as X_i -> 1 (standard CHEMKIN regularization).
        """
        X = np.asarray(X, dtype=float)
        if Y is None:
            Y = self.mech.mole_to_mass(X)
        terms = X[None, :] / self.binary_diffusion(T, p)  # X_j / D_ij
        ns = X.shape[0]
        # sum over j != i taken as such: "full sum minus the diagonal"
        # cancels catastrophically for the dominant species (X_i -> 1)
        terms[np.arange(ns), np.arange(ns)] = 0.0
        inv = terms.sum(axis=1)
        return (1.0 - np.asarray(Y)) / np.maximum(inv, _TINY) + _TINY

    def thermal_diffusion_ratios(self, T, X):
        """Simple Soret model: ratios theta_i for light species (H2, H).

        Uses the polynomial light-species model of the TRANSPORT manual in
        a reduced constant form: theta_i = kappa_i X_i with kappa = -0.29
        for H2 and -0.35 for H (diffusion toward hot regions), zero for
        heavy species. Adequate to exercise the Soret code path the paper
        discusses (§2.4).
        """
        T = np.asarray(T, dtype=float)
        X = np.asarray(X, dtype=float)
        theta = np.zeros_like(X)
        for i, kappa in self._soret_rows:
            theta[i] = kappa * X[i]
        return theta

    # ------------------------------------------------------------------
    def evaluate(self, T, p, Y, workspace=None) -> TransportProperties:
        """Evaluate all mixture transport properties at (T, p, Y).

        One streamed kernel serves every caller. With a
        :class:`~repro.core.workspace.Workspace` the returned property
        arrays and the tile scratch are workspace-owned (valid until the
        next ``evaluate`` with the same workspace, zero allocations once
        warm); without one they are fresh arrays. Either way the values
        are the same bits, and — every operation being element-wise over
        points, with species sums in fixed index order — they do not
        depend on the batch shape or on the tiles
        (:func:`~repro.chemistry.thermo.tiles`).
        """
        T = np.asarray(T, dtype=float)
        Y = np.asarray(Y, dtype=float)
        p = np.asarray(p, dtype=float)
        S = T.shape
        ns = self.mech.n_species
        n = T.size
        if workspace is not None:
            alloc = workspace.array
        else:
            alloc = lambda name, shape: np.empty(shape)
        visc = alloc("tr.visc", S)
        cond = alloc("tr.cond", S)
        diff = alloc("tr.diff", (ns,) + S)
        theta = None
        if self.soret:
            theta = alloc("tr.theta", (ns,) + S)
            theta.fill(0.0)
        # a scalar pressure joins as a stride-0 view
        parts = tiles(S, T, np.broadcast_to(p, S), Y, visc, cond, diff,
                      *([] if theta is None else [theta]))
        # one slot for the widest tile, the narrower ones use views of
        # it: requesting their own shape would reallocate every evaluation
        tile = alloc("tr.tile", (10 * ns + 3, max(1, -(-n // len(parts)))))
        for T_t, *rest in parts:
            # per tile: cp never exists as an (Ns,) + S table; a field of
            # one tile asks for it on the field itself, the memoised
            # table stable_dt reads again
            cp = self.mech.thermo.cp_molar(T_t)
            m = T_t.size
            self._evaluate_tile(tile, *(
                x.reshape(x.shape[: x.ndim - T_t.ndim] + (m,))
                for x in (T_t, rest[0], rest[1], cp, *rest[2:])))
        return TransportProperties(visc, cond, diff, theta)

    def _evaluate_tile(self, tile, T, p, Y, cp, visc, cond, diff, theta=None):
        """The kernel on one tile of ``m`` points: 1-D ``T`` / ``p`` /
        ``visc`` / ``cond``, ``(Ns, m)`` ``Y`` / ``cp`` / ``diff`` / ``theta``.

        ``tile`` supplies ``10 Ns + 3`` scratch rows. Nothing of pair
        size exists: the row-``i`` loops below hold ``Phi_ij`` /
        ``G_ij`` for the partners ``j > i`` of one species in a
        ``(Ns - 1 - i, m)`` block and stream them into the accumulators
        of ``i`` (a sum over the block, in ``j`` order) and of every
        ``j`` (one block update), so both triangles are served by one
        evaluation per unordered pair.
        """
        ns = len(self.weights)
        m = T.shape[0]
        tile = tile[:, :m]
        X, mu, root, inv_root, xw, den, low, tmp = (
            tile[k * ns : (k + 1) * ns] for k in range(8)
        )
        rest = tile[8 * ns :]
        blk, term = rest[: ns - 1], rest[ns - 1 : 2 * ns - 2]
        ln_t, t_pow22, t_pow11, sqrt_t, row = rest[2 * ns - 2 : 2 * ns + 3]
        w = self._w_col

        # mole fractions: X = Y wbar / W_i with wbar = 1 / sum(Y_i/W_i)
        # (species sums go through axis0_sum, never np.sum: a point's
        # result must not depend on the batch it is evaluated in)
        np.divide(Y, w, out=X)
        axis0_sum(X, out=row)
        np.divide(1.0, row, out=row)
        np.multiply(Y, row, out=X)
        X /= w

        # temperature functions shared by every species and pair
        np.log(T, out=ln_t)
        np.multiply(ln_t, self._p22, out=t_pow22)
        np.exp(t_pow22, out=t_pow22)
        np.multiply(ln_t, self._p11, out=t_pow11)
        np.exp(t_pow11, out=t_pow11)
        np.sqrt(T, out=sqrt_t)

        # pure-species viscosities: mu_i = c_i sqrt(T) / Omega22(T*_i)
        om = root
        np.multiply(t_pow22, self._om22_pow, out=om)
        for c, b in self._om22_exp:
            np.multiply(T, b, out=tmp)
            np.exp(tmp, out=tmp)
            tmp *= c
            om += tmp
        np.multiply(self._mu_pref_col, sqrt_t, out=mu)
        mu /= om

        # Wilke: den_i = sum_j X_j Phi_ij, with Phi_ii = 1 and the lower
        # triangle from Phi_ji = Phi_ij (mu_j W_i) / (mu_i W_j):
        # low_j = sum_{i<j} (X_i W_i / mu_i) Phi_ij
        np.sqrt(mu, out=root)
        np.divide(1.0, root, out=inv_root)
        np.multiply(X, w, out=xw)
        xw /= mu
        np.copyto(den, X)
        low.fill(0.0)
        for i in range(ns - 1):
            phi, xphi = blk[: ns - 1 - i], term[: ns - 1 - i]
            np.multiply(inv_root[i + 1 :], root[i], out=phi)
            phi *= self._phi_c2[i]
            phi += self._phi_c1[i]
            np.multiply(phi, phi, out=phi)
            np.multiply(phi, X[i + 1 :], out=xphi)
            for contribution in xphi:
                den[i] += contribution
            phi *= xw[i]
            low[i + 1 :] += phi
        low *= mu
        low /= w
        den += low
        np.multiply(X, mu, out=tmp)
        tmp /= den
        axis0_sum(tmp, out=visc)

        # Mathur-Tondon-Saxena conductivity from the Eucken lambda_i
        lam = root
        np.divide(cp, w, out=lam)
        lam += self._euken_col
        lam *= mu
        np.multiply(X, lam, out=tmp)
        axis0_sum(tmp, out=cond)
        np.divide(X, lam, out=tmp)
        axis0_sum(tmp, out=row)
        np.divide(1.0, row, out=row)
        cond += row
        cond *= 0.5

        # eq. (17): acc_i = sum_{j != i} X_j G_ij, G_ij = Omega11 / d_pref
        acc = den
        acc.fill(0.0)
        for i in range(ns - 1):
            g, xg = blk[: ns - 1 - i], term[: ns - 1 - i]
            np.multiply(t_pow11, self._g_pow[i], out=g)
            for b, c in self._g_exp[i]:
                np.multiply(T, b, out=xg)
                np.exp(xg, out=xg)
                xg *= c
                g += xg
            np.multiply(g, X[i + 1 :], out=xg)
            for contribution in xg:
                acc[i] += contribution
            g *= X[i]
            acc[i + 1 :] += g
        # sum_{j != i} X_j / D_ij = acc_i p / T^1.5, then the
        # mass-fraction form (1 - Y_i) / sum, regularised
        np.multiply(T, sqrt_t, out=row)
        np.divide(p, row, out=row)
        acc *= row
        np.maximum(acc, _TINY, out=acc)
        np.subtract(1.0, Y, out=diff)
        diff /= acc
        diff += _TINY

        if theta is not None:
            for i, kappa in self._soret_rows:
                np.multiply(X[i], kappa, out=theta[i])
