"""NASA 7-coefficient polynomial thermodynamics.

Implements the standard CHEMKIN thermodynamic fits used by S3D (§2.1 of the
paper): for each species and each of two temperature ranges,

.. math::

    c_p / R_u &= a_1 + a_2 T + a_3 T^2 + a_4 T^3 + a_5 T^4 \\
    h / (R_u T) &= a_1 + a_2 T/2 + a_3 T^2/3 + a_4 T^3/4 + a_5 T^4/5 + a_6/T \\
    s / R_u &= a_1 \\ln T + a_2 T + a_3 T^2/2 + a_4 T^3/3 + a_5 T^4/4 + a_7

:class:`Nasa7` holds one species' fit; :class:`ThermoTable` evaluates an
entire mechanism's thermodynamics vectorized over arbitrary-shaped
temperature arrays, as required by the DNS right-hand side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.constants import RU


@dataclass(frozen=True)
class Nasa7:
    """NASA-7 polynomial for one species over two temperature ranges.

    Parameters
    ----------
    t_low, t_mid, t_high:
        Validity bounds [K]; ``coeffs_low`` applies on ``[t_low, t_mid]``
        and ``coeffs_high`` on ``[t_mid, t_high]``.
    coeffs_low, coeffs_high:
        Sequences of 7 coefficients (a1..a7).
    """

    t_low: float
    t_mid: float
    t_high: float
    coeffs_low: tuple
    coeffs_high: tuple

    def __post_init__(self):
        if len(self.coeffs_low) != 7 or len(self.coeffs_high) != 7:
            raise ValueError("NASA-7 fits require exactly 7 coefficients per range")
        if not (self.t_low < self.t_mid < self.t_high):
            raise ValueError(
                f"temperature ranges must be ordered: {self.t_low}, {self.t_mid}, {self.t_high}"
            )

    def _coeffs(self, T):
        T = np.asarray(T, dtype=float)
        lo = np.asarray(self.coeffs_low)
        hi = np.asarray(self.coeffs_high)
        mask = (T < self.t_mid)[..., None]
        return np.where(mask, lo, hi)

    def cp_molar(self, T):
        """Isobaric heat capacity [J/(mol K)] at temperature(s) ``T``."""
        T = np.asarray(T, dtype=float)
        a = self._coeffs(T)
        return RU * (
            a[..., 0]
            + a[..., 1] * T
            + a[..., 2] * T**2
            + a[..., 3] * T**3
            + a[..., 4] * T**4
        )

    def enthalpy_molar(self, T):
        """Molar enthalpy [J/mol] (sensible + formation) at ``T``."""
        T = np.asarray(T, dtype=float)
        a = self._coeffs(T)
        return (
            RU
            * T
            * (
                a[..., 0]
                + a[..., 1] * T / 2
                + a[..., 2] * T**2 / 3
                + a[..., 3] * T**3 / 4
                + a[..., 4] * T**4 / 5
                + a[..., 5] / T
            )
        )

    def entropy_molar(self, T):
        """Standard-state molar entropy [J/(mol K)] at ``T``."""
        T = np.asarray(T, dtype=float)
        a = self._coeffs(T)
        return RU * (
            a[..., 0] * np.log(T)
            + a[..., 1] * T
            + a[..., 2] * T**2 / 2
            + a[..., 3] * T**3 / 3
            + a[..., 4] * T**4 / 4
            + a[..., 6]
        )

    def gibbs_over_rt(self, T):
        """Dimensionless standard Gibbs energy g/(Ru T) at ``T``."""
        T = np.asarray(T, dtype=float)
        return self.enthalpy_molar(T) / (RU * T) - self.entropy_molar(T) / RU


def _horner(T, c, div, out, logT=None):
    """``out <- RU * p(T)`` in place for one NASA-7 Horner program ``c``.

    ``p = (..((T c0 [/ div] + c1) T + c2) T ..) + c_last``; with ``logT``
    the final entry of ``c`` is instead the ``ln T`` coefficient, added
    before ``c_last`` (entropy). ``c[j]`` are scalars (1-D ``out``: one
    species) or ``(Ng, 1)`` columns (``(Ng, n)`` ``out``: a species group).
    """
    last = len(c) - (1 if logT is None else 2)
    np.multiply(T, c[0], out=out)
    if div:
        out /= div
    for j in range(1, last):
        out += c[j]
        out *= T
    if logT is not None:
        out += c[-1] * logT
    out += c[last]
    out *= RU
    return out


#: Newton temperature iterates are clipped into this band [K]
T_BOUNDS = (50.0, 6000.0)

#: cells per tile of every pointwise kernel that walks a whole field: the
#: temperature solve (18 scratch rows of this length), the production
#: rates, the stable-dt reductions and the transport kernel (``10 Ns + 3``
#: rows; measured fastest of 256 ... 32768 there: the ~330 ufunc calls
#: of a tile amortised, its ``(Ns - 1, tile)`` pair blocks in L2)
TILE_CELLS = 8192


def tile_edges(n):
    """``[(a, b), ...]``: ``n`` cells in even tiles of <= :data:`TILE_CELLS`."""
    k = -(-n // TILE_CELLS) or 1
    return [(n * j // k, n * (j + 1) // k) for j in range(k)]


def tiles(shape, *fields):
    """The tiles of ``fields`` (arrays ``(...) + shape``), one tuple each.

    A field of at most one tile is its own tile — the kernels see the
    arrays themselves, which is what the property memo of
    :class:`ThermoTable` is keyed on; a larger one is cut into flat
    ``(..., m)`` views by :func:`tile_edges`. Outputs must be
    C-contiguous, so that their views write through.
    """
    n = int(np.prod(shape))
    if n <= TILE_CELLS:
        return [fields]
    flat = [f.reshape(f.shape[: f.ndim - len(shape)] + (n,)) for f in fields]
    return [[f[..., a:b] for f in flat] for a, b in tile_edges(n)]


#: h / Ru = T (a0 + T (a1/2 + T (a2/3 + T (a3/4 + T a4/5)))) + a5
_H_DIVISORS = np.array([2.0, 3.0, 4.0, 5.0])[:, None]


def _fold_range(tab, members, Yf, out, tmp):
    """``out`` (6, n) <- ``sum_i Yf[i] * tab[i]`` over ``members``, in order.

    ``tab[i]`` is a (6, 1) coefficient column: one broadcast product
    (into ``tmp``, shaped like ``out``) and one accumulation per species.
    """
    first, *rest = members
    np.multiply(Yf[first], tab[first], out=out)
    for i in rest:
        np.multiply(Yf[i], tab[i], out=tmp)
        out += tmp


#: property -> (Horner coefficients of an (Ns, 7) table ``a``, divisor of
#: the leading term, has a ln T term): the operation sequence of the
#: textbook expressions, e.g. h = RU (T (a0 + T (a1/2 + T (a2/3 +
#: T (a3/4 + T a4 / 5)))) + a5)
_PROGRAMS = {
    "cp": (lambda a: (a[:, 4], a[:, 3], a[:, 2], a[:, 1], a[:, 0]), None, False),
    "h": (lambda a: (a[:, 4], a[:, 3] / 4, a[:, 2] / 3, a[:, 1] / 2, a[:, 0], a[:, 5]), 5, False),
    "s": (lambda a: (a[:, 4], a[:, 3] / 3, a[:, 2] / 2, a[:, 1], a[:, 6], a[:, 0]), 4, True),
    "dcp": (lambda a: (4.0 * a[:, 4], 3.0 * a[:, 3], 2.0 * a[:, 2], a[:, 1]), None, False),
}


class ThermoTable:
    """Vectorized thermodynamics for a list of species.

    Evaluation methods accept ``T`` of any shape ``S`` and return arrays of
    shape ``(Ns,) + S``.

    Evaluation strategy: one branch-partitioned in-place kernel. The range
    mask ``T < t_mid`` is computed once per temperature field (per distinct
    ``t_mid``; the shipped mechanisms have one); the majority range runs in
    place over the whole field, the minority range only on the gathered
    minority cells and is scattered back, and a single-range field never
    touches the second range. Each property is a Horner program
    (:data:`_PROGRAMS`) of ``out=`` ufuncs, run one species at a time on
    fields above :attr:`_SMALL` cells (cache-resident 1-D passes) and as
    one ``(Ns, n)`` pass on smaller batches (boundary faces, implicit
    active sets, load-balancer shipments), where per-species call overhead
    would dominate. Every output element comes from elementwise IEEE
    operations on its own ``T`` and its own range's coefficients, in the
    order of the textbook expression; which cells share a pass never
    enters the arithmetic, so results are bitwise those of evaluating both
    ranges everywhere and selecting with ``np.where`` — a pure function of
    the cell, whatever the batch.

    Evaluated properties are additionally memoized per temperature field
    (single slot, fingerprint-revalidated): one RHS evaluation asks for
    the same converged-T enthalpies several times (species enthalpies for
    the heat flux, Gibbs energies for equilibrium constants, heat
    release), and the memo makes every repeat free. A view into a larger
    array (a tile, a face) is never stored: a tile of the memoised field
    reads its slice of the entry, anything else is evaluated, and walking
    a field in tiles never evicts the field's entry. Memoized
    arrays are returned read-only; callers that combine them (``h / w``
    etc.) already produce fresh arrays.
    """

    def __init__(self, fits: list[Nasa7]):
        if not fits:
            raise ValueError("ThermoTable requires at least one species")
        self.fits = list(fits)
        self.n_species = len(fits)
        self._lo = np.array([f.coeffs_low for f in fits])  # (Ns, 7)
        self._hi = np.array([f.coeffs_high for f in fits])
        self._tmid = np.array([f.t_mid for f in fits])
        self.t_low = min(f.t_low for f in fits)
        self.t_high = max(f.t_high for f in fits)
        # species grouped by t_mid: (t_mid, output selector, species indices);
        # the selector is a slice (a view) for the usual single-t_mid table
        self._groups = []
        for tmid in np.unique(self._tmid):
            members = np.flatnonzero(self._tmid == tmid)
            whole = len(members) == self.n_species
            sel = slice(None) if whole else members
            self._groups.append((float(tmid), sel, members.tolist()))
        # per property: (divisor, has ln T, per-species scalar programs
        # [range][species], per-group column programs [group][range])
        self._prog = {}
        for name, (coeffs, div, has_log) in _PROGRAMS.items():
            tabs = [np.array(coeffs(a)) for a in (self._lo, self._hi)]  # (k, Ns)
            scalars = [t.T.tolist() for t in tabs]
            columns = [[t[:, m, None] for t in tabs] for _, _, m in self._groups]
            self._prog[name] = (div, has_log, scalars, columns)
        # single-slot per-field property memo: (T, fingerprint, {prop: value})
        self._prop_cache = None
        # grow-only scratch of :meth:`temperature`
        self._solve_rows = np.empty(0)

    #: only memoize property evaluations for fields at least this large
    _MEMO_MIN_SIZE = 512

    #: batches of at most this many cells evaluate a species group in one
    #: (Ng, n) pass; larger fields go one species at a time
    _SMALL = 1024

    @staticmethod
    def _fingerprint(T):
        """Cheap content fingerprint catching in-place mutation (Newton)."""
        return (float(T.flat[0]), float(T.flat[-1]), float(T.sum()))

    def _memo(self, T, key, compute):
        T = np.asarray(T, dtype=float)
        if T.size < self._MEMO_MIN_SIZE:
            return compute(T)
        cache = self._prop_cache
        if isinstance(T.base, np.ndarray) and T.base.size > T.size:
            # a tile (:func:`tiles`): the slice of the field's entry, never stored
            field = cache[0] if cache is not None else None
            value = cache[2].get(key) if T.base is field else None
            if (value is not None and T.strides == (8,)
                    and field.flags.c_contiguous
                    and self._fingerprint(field) == cache[1]):
                a = (T.ctypes.data - field.ctypes.data) // 8
                return value.reshape(self.n_species, -1)[:, a : a + T.size]
            return compute(T)
        fp = self._fingerprint(T)
        if cache is not None and cache[0] is T and cache[1] == fp:
            value = cache[2].get(key)
            if value is not None:
                return value
        else:
            cache = (T, fp, {})
            self._prop_cache = cache
        value = compute(T)
        value.flags.writeable = False
        cache[2][key] = value
        return value

    # -- branch-partitioned NASA-7 kernel ------------------------------
    def _fill(self, name, g, rng, T1, logT1, block):
        """``block`` (Ng, n) <- property ``name`` of group ``g`` on range ``rng``.

        ``T1`` is 1-D. Small batches run the whole group in one pass,
        larger ones one species (row) at a time.
        """
        div, has_log, scalars, columns = self._prog[name]
        lt = logT1 if has_log else None
        if T1.size <= self._SMALL:
            return _horner(T1, columns[g][rng], div, block, lt)
        for row, i in zip(block, self._groups[g][2]):
            _horner(T1, scalars[rng][i], div, row, lt)
        return block

    def _plan(self, names, Tf, logT):
        """Range partition of a flat field, per ``t_mid`` group.

        Returns ``(majority range, minority cells, minority patches)``
        per group: the majority range is to be evaluated over the whole
        field, and ``patches[j]`` already holds ``names[j]`` on the
        minority range at the gathered minority cells, ``(Ng, n_minor)``.
        A single-range field has no minority (``None``, ``None``). Range
        0 is ``T < t_mid``; NaN compares false and lands in range 1, where
        a ``np.where`` on the same mask would put it.
        """
        plan = []
        for g, (tmid, _, members) in enumerate(self._groups):
            low = Tf < tmid
            n_low = np.count_nonzero(low)
            if n_low in (0, Tf.size):
                plan.append((int(n_low == 0), None, None))
                continue
            major = int(2 * n_low < Tf.size)
            minor = np.flatnonzero(low if major else ~low)
            Tm = Tf[minor]
            logTm = None if logT is None else logT[minor]
            shape = (len(members), minor.size)
            patches = [
                self._fill(name, g, 1 - major, Tm, logTm, np.empty(shape))
                for name in names
            ]
            plan.append((major, minor, patches))
        return plan

    def _evaluate(self, T, names):
        """Properties ``names`` at ``T``: fresh ``(Ns,) + S`` arrays."""
        T = np.asarray(T, dtype=float)
        Tf = T.reshape(-1)
        logT = np.asarray(np.log(T)).reshape(-1) if "s" in names else None
        outs = [np.empty((self.n_species, Tf.size)) for _ in names]
        for g, (major, minor, patches) in enumerate(self._plan(names, Tf, logT)):
            sel = self._groups[g][1]
            for j, (name, out) in enumerate(zip(names, outs)):
                block = out[sel]  # a view unless the table mixes t_mid values
                self._fill(name, g, major, Tf, logT, block)
                if minor is not None:
                    block[:, minor] = patches[j]
                if not isinstance(sel, slice):
                    out[sel] = block
        return [o.reshape((self.n_species,) + T.shape) for o in outs]

    def cp_molar(self, T):
        """Species isobaric heat capacities [J/(mol K)], shape (Ns,)+S."""
        return self._memo(T, "cp", lambda T: self._evaluate(T, ("cp",))[0])

    def enthalpy_molar(self, T):
        """Species molar enthalpies [J/mol], shape (Ns,)+S."""
        return self._memo(T, "h", lambda T: self._evaluate(T, ("h",))[0])

    def entropy_molar(self, T):
        """Species standard molar entropies [J/(mol K)], shape (Ns,)+S."""
        return self._memo(T, "s", lambda T: self._evaluate(T, ("s",))[0])

    def cp_derivative_molar(self, T):
        """Species heat-capacity slopes dcp/dT [J/(mol K^2)], shape (Ns,)+S.

        Analytic derivative of the NASA-7 cp polynomial, range-selected
        like every other property. Used by the analytical source-term
        Jacobian (:mod:`repro.chemistry.jacobian`) for the temperature
        row; not memoized (it is evaluated once per Jacobian assembly,
        never in the explicit RHS hot path).
        """
        return self._evaluate(T, ("dcp",))[0]

    def enthalpy_cp_molar(self, T):
        """Fused (h_molar, cp_molar): one range partition serves both.

        The returned arrays are fresh and writable (callers assemble into
        them in place), so this path deliberately bypasses the memo.
        Values are bitwise identical to the individual
        :meth:`enthalpy_molar` / :meth:`cp_molar` results.
        """
        return tuple(self._evaluate(T, ("h", "cp")))

    # -- the caloric equation of a cell is one polynomial ------------------
    def temperature(self, target, Y, weights, T_guess=None, *, energy,
                    tol=1e-9, max_iter=100):
        """Invert the mixture's ``h(T) = target`` (``energy``: ``e(T)``) per cell.

        ``h = sum_i (Y_i / W_i) h_i(T)`` is itself a NASA-7 polynomial
        whose coefficients are ``sum_i (Y_i / W_i) a_ik`` (and ``e = h -
        Ru T sum_i Y_i / W_i`` only lowers ``a_i0`` by one), so the
        tables are folded with the composition once (:meth:`_fold`) and
        Newton iterates on one Horner pair per cell instead of one per
        species. A cell stops at its own convergence — the update is
        applied, then tested against ``tol`` relative, and a converged
        cell is taken out of the iteration — so its temperature is a
        pure function of its own ``(target, Y, T_guess)``, bit for bit
        the same alone, in any batch and on any rank, and accurate to
        round-off (the update that passed the test has been applied).
        Iterates stay inside :data:`T_BOUNDS`; a cell whose iterate
        changes side of a ``t_mid`` gets that range's polynomial before
        its next evaluation. ``target`` has any shape ``S``, ``Y`` is
        ``(Ns,) + S``; returns a fresh array of shape ``S``.
        """
        target = np.asarray(target, dtype=float)
        T = np.empty(target.shape)
        T[...] = 1000.0 if T_guess is None else T_guess
        Tf, goal = T.reshape(-1), target.reshape(-1)
        Y = np.broadcast_to(np.asarray(Y, dtype=float), (self.n_species,) + T.shape)
        Yf = Y.reshape(self.n_species, -1)
        tabs = np.stack((self._lo[:, :6], self._hi[:, :6]))  # (range, Ns, 6)
        if energy:
            tabs[:, :, 0] -= 1.0
        tabs *= (RU / np.asarray(weights, dtype=float))[:, None]
        tabs = tabs[..., None]  # columns against (n,) rows of Y
        # cells are independent: solve them in even, cache-sized tiles
        for a, b in tile_edges(Tf.size):
            self._newton(tabs, Yf[:, a:b], Tf[a:b], goal[a:b], tol, max_iter)
        return T

    def _newton(self, tabs, Yf, Tf, goal, tol, max_iter):
        """:meth:`temperature` of one tile, in place in ``Tf``."""
        n = Tf.size
        # 18 rows: the polynomial (10), Newton's residual and slope (2),
        # the fold's product block (6) -- kept between solves, since a
        # fresh allocation of this size is paged in at every call
        if self._solve_rows.size < 18 * n:
            self._solve_rows = np.empty(18 * n)
        coef, scratch, tmp = np.split(
            self._solve_rows[: 18 * n].reshape(18, n), (10, 12))
        self._fold(tabs, Yf, Tf, goal, coef, tmp)
        cells = None  # indices of the cells still iterating; None: all
        frozen = None  # converged cells riding along until a compaction
        Ta = Tf
        for _ in range(max_iter):
            f, slope = scratch[:, : Ta.size]
            # residual T (c0 + T (c1/2 + T (c2/3 + T (c3/4 + T c4/5)))) + (c5 - target)
            np.multiply(Ta, coef[9], out=f)
            for k in (8, 7, 6, 0):
                f += coef[k]
                f *= Ta
            f += coef[5]
            # slope c0 + T (c1 + T (c2 + T (c3 + T c4)))
            np.multiply(Ta, coef[4], out=slope)
            for k in (3, 2, 1):
                slope += coef[k]
                slope *= Ta
            slope += coef[0]
            f /= slope
            if frozen is not None:
                f[frozen] = 0.0  # T - 0 is T: they stay where they converged
            was_low = [Ta < tmid for tmid, _, _ in self._groups]
            Ta -= f
            np.clip(Ta, *T_BOUNDS, out=Ta)
            if cells is not None:
                Tf[cells] = Ta
            np.abs(f, out=f)
            np.multiply(Ta, tol, out=slope)
            done = f < slope  # NaN never converges
            live = np.flatnonzero(~done)
            if not live.size:
                return
            moved = np.flatnonzero(np.logical_or.reduce(
                [(Ta < tmid) != low
                 for low, (tmid, _, _) in zip(was_low, self._groups)]))
            if moved.size:  # onto the other side of a t_mid: re-fold them
                at = moved if cells is None else cells[moved]
                patch = np.empty((10, moved.size))
                self._fold(tabs, Yf[:, at], Ta[moved], goal[at], patch,
                           np.empty((6, moved.size)))
                coef[:, moved] = patch
            if 2 * live.size > Ta.size:
                # gathering most of the batch costs more than carrying
                # the converged cells through one more evaluation
                frozen = np.flatnonzero(done) if live.size < Ta.size else None
            else:
                frozen = None
                cells = live if cells is None else cells[live]
                Ta, coef = Ta[live], coef[:, live]
        stuck = Ta.size - (0 if frozen is None else frozen.size)
        raise RuntimeError(
            f"Newton temperature solve failed to converge in {stuck} "
            f"cells after {max_iter} iterations"
        )

    def _fold(self, tabs, Yf, Tf, goal, coef, tmp):
        """``coef`` (10, n) <- the cells' mixture polynomials at ``Tf``.

        Rows 0-5 are ``sum_i Y_i tabs[range_i][i, k]``, each species on
        the side of its ``t_mid`` the cell's temperature is on, summed
        in species-index order within a ``t_mid`` group (explicit
        elementwise passes: which cells share a pass never enters the
        arithmetic); row 5 has ``goal`` subtracted, rows 6-9 are rows
        1-4 over 2..5, the enthalpy's Horner coefficients. The majority
        range of a group is folded over the whole batch, the minority
        cells are gathered, folded on their own range and scattered
        back, as :meth:`_plan` does for the species properties.
        """
        n = Tf.size
        for g, (tmid, _, members) in enumerate(self._groups):
            part = coef[:6] if g == 0 else np.empty((6, n))
            low = Tf < tmid
            n_low = np.count_nonzero(low)
            major = int(2 * n_low < n)  # range 0 is T < t_mid
            _fold_range(tabs[major], members, Yf, part, tmp)
            if 0 < n_low < n:
                minor = np.flatnonzero(low if major else ~low)
                patch, tmp_minor = np.empty((2, 6, minor.size))
                _fold_range(tabs[1 - major], members, Yf[:, minor], patch,
                            tmp_minor)
                part[:, minor] = patch
            if g:
                coef[:6] += part
        coef[5] -= goal
        np.divide(coef[1:5], _H_DIVISORS, out=coef[6:])

    def gibbs_over_rt(self, T):
        """Dimensionless Gibbs energies g_i/(Ru T), shape (Ns,)+S."""
        T = np.asarray(T, dtype=float)
        return self.enthalpy_molar(T) / (RU * T[None]) - self.entropy_molar(T) / RU
