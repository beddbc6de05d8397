"""Tests for NASA-7 thermodynamics against known reference values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.chemistry.thermo import T_BOUNDS, Nasa7, ThermoTable
from repro.chemistry.mechanisms.thermo_data import nasa7, available
from repro.util.constants import RU, T_STANDARD
from repro.util.reduction import axis0_sum
from tests.tolerances import NEWTON_VS_ORACLE_RTOL


class TestNasa7:
    def test_requires_seven_coefficients(self):
        with pytest.raises(ValueError, match="7 coefficients"):
            Nasa7(300.0, 1000.0, 3000.0, (1.0,) * 6, (1.0,) * 7)

    def test_requires_ordered_ranges(self):
        with pytest.raises(ValueError, match="ordered"):
            Nasa7(1000.0, 300.0, 3000.0, (1.0,) * 7, (1.0,) * 7)

    def test_cp_n2_at_300k(self):
        # NIST: cp(N2, 300 K) = 29.12 J/mol/K
        fit = nasa7("N2")
        assert fit.cp_molar(300.0) == pytest.approx(29.12, rel=5e-3)

    def test_cp_h2o_at_1000k(self):
        # NIST: cp(H2O, 1000 K) ~ 41.3 J/mol/K
        assert nasa7("H2O").cp_molar(1000.0) == pytest.approx(41.3, rel=0.02)

    def test_formation_enthalpies(self):
        # standard heats of formation [kJ/mol]
        refs = {"H2O": -241.83, "CO2": -393.5, "CH4": -74.87, "OH": 39.0,
                "H": 218.0, "O": 249.2, "CO": -110.5}
        for name, href in refs.items():
            h = nasa7(name).enthalpy_molar(T_STANDARD) / 1e3
            # GRI-3.0 data; OH uses the older ~39 kJ/mol value
            assert h == pytest.approx(href, rel=0.03), name

    def test_elements_have_zero_formation_enthalpy(self):
        for name in ("H2", "O2", "N2"):
            h = nasa7(name).enthalpy_molar(T_STANDARD)
            assert abs(h) < 150.0, name  # J/mol — essentially zero

    def test_enthalpy_is_cp_integral(self):
        """dh/dT == cp at both range interiors (consistency of the fit)."""
        fit = nasa7("O2")
        for T in (400.0, 1500.0):
            dT = 1e-3
            dh = (fit.enthalpy_molar(T + dT) - fit.enthalpy_molar(T - dT)) / (2 * dT)
            assert dh == pytest.approx(fit.cp_molar(T), rel=1e-6)

    def test_entropy_derivative_is_cp_over_t(self):
        fit = nasa7("H2O")
        for T in (500.0, 2000.0):
            dT = 1e-3
            ds = (fit.entropy_molar(T + dT) - fit.entropy_molar(T - dT)) / (2 * dT)
            assert ds == pytest.approx(fit.cp_molar(T) / T, rel=1e-6)

    def test_entropy_n2_standard(self):
        # NIST: s(N2, 298.15 K) = 191.6 J/mol/K
        assert nasa7("N2").entropy_molar(T_STANDARD) == pytest.approx(191.6, rel=5e-3)

    def test_gibbs_definition(self):
        fit = nasa7("CO2")
        T = 1200.0
        g = fit.gibbs_over_rt(T)
        expected = fit.enthalpy_molar(T) / (RU * T) - fit.entropy_molar(T) / RU
        assert g == pytest.approx(expected, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        fit = nasa7("CH4")
        T = np.array([300.0, 900.0, 1100.0, 2500.0])
        cp_vec = fit.cp_molar(T)
        for i, t in enumerate(T):
            assert cp_vec[i] == pytest.approx(float(fit.cp_molar(t)))

    def test_range_switch_continuity(self):
        """low/high ranges agree at T_mid to fit accuracy.

        Species used by the built-in kinetics get a tight bound; the
        minor-radical database extras (CH3, HCO, CH2O) a looser one.
        """
        loose = {"CH3", "HCO", "CH2O"}
        for name in available():
            fit = nasa7(name)
            lo = np.dot(fit.coeffs_low[:5], [fit.t_mid**k for k in range(5)])
            hi = np.dot(fit.coeffs_high[:5], [fit.t_mid**k for k in range(5)])
            tol = 5e-2 if name in loose else 1e-2
            assert lo == pytest.approx(hi, rel=tol), name


class TestThermoTable:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ThermoTable([])

    def test_matches_per_species_fits(self):
        names = ["H2", "O2", "H2O", "N2"]
        fits = [nasa7(n) for n in names]
        table = ThermoTable(fits)
        T = np.array([350.0, 1400.0])
        cp = table.cp_molar(T)
        h = table.enthalpy_molar(T)
        s = table.entropy_molar(T)
        for i, fit in enumerate(fits):
            np.testing.assert_allclose(cp[i], fit.cp_molar(T), rtol=1e-12)
            np.testing.assert_allclose(h[i], fit.enthalpy_molar(T), rtol=1e-12)
            np.testing.assert_allclose(s[i], fit.entropy_molar(T), rtol=1e-12)

    def test_multidimensional_shapes(self):
        table = ThermoTable([nasa7("O2"), nasa7("N2")])
        T = np.full((3, 4, 5), 800.0)
        assert table.cp_molar(T).shape == (2, 3, 4, 5)
        assert table.gibbs_over_rt(T).shape == (2, 3, 4, 5)

    def test_mixed_ranges_in_one_call(self):
        """Temperatures straddling t_mid pick the correct range per point."""
        table = ThermoTable([nasa7("O2")])
        T = np.array([500.0, 2000.0])
        both = table.cp_molar(T)[0]
        assert both[0] == pytest.approx(float(nasa7("O2").cp_molar(500.0)))
        assert both[1] == pytest.approx(float(nasa7("O2").cp_molar(2000.0)))


# ----------------------------------------------------------------------
# the branch-partitioned kernel: bitwise pins against the frozen blend
# ----------------------------------------------------------------------
class BlendOracle:
    """Frozen copy of the evaluation the partitioned kernel replaced.

    Every species' low- and high-range expressions are evaluated on the
    whole field and selected with ``np.where(T < t_mid, lo, hi)``. Kept
    verbatim as the reference the kernel (and the Newton loops built on
    it) must reproduce to the last bit; do not "tidy" the arithmetic.
    """

    def __init__(self, fits):
        self.n_species = len(fits)
        self._lo = np.array([f.coeffs_low for f in fits])
        self._hi = np.array([f.coeffs_high for f in fits])
        self._tmid = np.array([f.t_mid for f in fits])

    @staticmethod
    def _cp_branch(a, T):
        return RU * (a[0] + T * (a[1] + T * (a[2] + T * (a[3] + T * a[4]))))

    @staticmethod
    def _h_branch(a, T):
        poly = a[0] + T * (a[1] / 2 + T * (a[2] / 3 + T * (a[3] / 4 + T * a[4] / 5)))
        return RU * (T * poly + a[5])

    @staticmethod
    def _dcp_branch(a, T):
        return RU * (a[1] + T * (2.0 * a[2] + T * (3.0 * a[3] + T * (4.0 * a[4]))))

    @staticmethod
    def _s_branch(a, T, logT):
        return RU * (
            a[0] * logT
            + T * (a[1] + T * (a[2] / 2 + T * (a[3] / 3 + T * a[4] / 4)))
            + a[6]
        )

    def _blend(self, T, branch, *extra):
        T = np.asarray(T, dtype=float)
        out = np.empty((self.n_species,) + T.shape)
        for i in range(self.n_species):
            out[i] = np.where(
                T < self._tmid[i],
                branch(self._lo[i], T, *extra),
                branch(self._hi[i], T, *extra),
            )
        return out

    def cp(self, T):
        return self._blend(T, self._cp_branch)

    def h(self, T):
        return self._blend(T, self._h_branch)

    def s(self, T):
        return self._blend(T, self._s_branch, np.log(T))

    def dcp(self, T):
        return self._blend(T, self._dcp_branch)

    def g(self, T):
        T = np.asarray(T, dtype=float)
        return self.h(T) / (RU * T[None]) - self.s(T) / RU


def _table_properties(table, T):
    h, cp = table.enthalpy_cp_molar(T)
    return {
        "cp": table.cp_molar(T), "h": table.enthalpy_molar(T),
        "s": table.entropy_molar(T), "dcp": table.cp_derivative_molar(T),
        "g": table.gibbs_over_rt(T), "fused_h": h, "fused_cp": cp,
    }


def _oracle_properties(oracle, T):
    return {
        "cp": oracle.cp(T), "h": oracle.h(T), "s": oracle.s(T),
        "dcp": oracle.dcp(T), "g": oracle.g(T),
        "fused_h": oracle.h(T), "fused_cp": oracle.cp(T),
    }


def _assert_same_bits(got, want, what):
    for key in want:
        assert got[key].shape == want[key].shape, (what, key)
        assert np.array_equal(got[key], want[key], equal_nan=True), (what, key)


_H2_NAMES = ["H2", "O2", "O", "OH", "H2O", "H", "HO2", "H2O2", "N2"]
_CH4_NAMES = ["CH4", "O2", "CO", "CO2", "H2O", "N2"]
_SMALL = ThermoTable._SMALL


def _fits(kind):
    if kind == "h2":
        return [nasa7(n) for n in _H2_NAMES]
    if kind == "ch4":
        return [nasa7(n) for n in _CH4_NAMES]
    # synthetic: the H2 fits with *different* t_mid per species, the
    # groups interleaved in species order
    tmids = [1000.0, 800.0, 1000.0, 1200.0, 800.0, 1000.0, 1500.0, 1000.0, 900.0]
    return [
        Nasa7(f.t_low, tm, f.t_high, f.coeffs_low, f.coeffs_high)
        for f, tm in zip(_fits("h2"), tmids)
    ]


def _fields(rng):
    """Named temperature fields covering every kernel path."""
    yield "0-d", np.array(1234.5)
    yield "0-d low", np.array(432.1)
    yield "size-1", np.array([999.999])
    yield "empty", np.empty((0,))
    for n in (2, 7, _SMALL - 1, _SMALL, _SMALL + 1, 2 * _SMALL + 3):
        yield f"mixed n={n}", rng.uniform(300.0, 2500.0, n)
        yield f"all-low n={n}", rng.uniform(300.0, 799.0, n)
        yield f"all-high n={n}", rng.uniform(1500.0, 3000.0, n)
        yield f"few-high n={n}", np.where(rng.uniform(size=n) < 0.02, 1700.0, 600.0)
    for n in (5, 2 * _SMALL):
        T = rng.uniform(300.0, 2500.0, n)
        T[::3] = 1000.0  # exactly t_mid: belongs to the high range
        T[1] = 800.0
        yield f"T == t_mid n={n}", T
        T = rng.uniform(300.0, 2500.0, n)
        T[0], T[2], T[3], T[4] = np.nan, np.inf, -np.inf, 0.0
        yield f"nan/inf n={n}", T
    T = rng.uniform(300.0, 2500.0, (40, 60))
    yield "2-D", T
    yield "transposed view", T.T
    yield "strided view", T[::2, 1::3]
    yield "small strided view", T[::7, ::11]
    yield "broadcast view", np.broadcast_to(T[0], (40, 60))
    yield "3-D", rng.uniform(300.0, 2500.0, (4, 9, 11))


@pytest.mark.parametrize("kind", ["h2", "ch4", "synthetic"])
class TestPartitionedKernelBitwise:
    def test_matches_frozen_blend(self, kind, rng):
        fits = _fits(kind)
        table, oracle = ThermoTable(fits), BlendOracle(fits)
        with np.errstate(all="ignore"):
            for what, T in _fields(rng):
                _assert_same_bits(
                    _table_properties(table, T), _oracle_properties(oracle, T), what
                )

    def test_any_sub_batch_alone_gives_the_same_bits(self, kind, rng):
        """Batch-shape independence: a cell's value is a function of the cell."""
        table = ThermoTable(_fits(kind))
        T = rng.uniform(300.0, 2500.0, 3 * _SMALL)
        whole = _table_properties(table, T)
        picks = [
            np.array([5]), np.arange(_SMALL), np.arange(_SMALL + 1),
            rng.permutation(T.size)[: _SMALL + 7], rng.permutation(T.size),
            np.flatnonzero(T < 1000.0), np.flatnonzero(T >= 1000.0),
        ]
        for idx in picks:
            part = _table_properties(table, T[idx])
            _assert_same_bits(part, {k: v[:, idx] for k, v in whole.items()}, idx.size)
        # a single cell as a 0-d array too
        cell = _table_properties(table, T[11])
        _assert_same_bits(cell, {k: v[:, 11] for k, v in whole.items()}, "0-d")

    @settings(max_examples=30, deadline=None)
    @given(data=hst.data())
    def test_random_fields_and_sub_batches(self, kind, data):
        fits = _fits(kind)
        table, oracle = ThermoTable(fits), BlendOracle(fits)
        n = data.draw(hst.sampled_from([1, 3, _SMALL - 2, _SMALL + 2, 3 * _SMALL]))
        seed = data.draw(hst.integers(0, 2**32 - 1))
        lo, hi = data.draw(hst.sampled_from(
            [(250.0, 3200.0), (300.0, 1001.0), (999.0, 2800.0), (1200.0, 1201.0)]
        ))
        rng = np.random.default_rng(seed)
        T = rng.uniform(lo, hi, n)
        whole = _table_properties(table, T)
        _assert_same_bits(whole, _oracle_properties(oracle, T), "oracle")
        idx = rng.permutation(n)[: data.draw(hst.integers(1, n))]
        _assert_same_bits(
            _table_properties(table, T[idx]),
            {k: v[:, idx] for k, v in whole.items()}, "sub-batch",
        )


class TestKernelOutputs:
    def test_fused_outputs_are_fresh_and_writable(self):
        table = ThermoTable(_fits("h2"))
        for n in (8, 4 * _SMALL):
            T = np.linspace(300.0, 2500.0, n)
            h1, cp1 = table.enthalpy_cp_molar(T)
            h2, cp2 = table.enthalpy_cp_molar(T)
            for a in (h1, cp1, h2, cp2):
                assert a.flags.writeable and a.flags.c_contiguous
            assert not np.shares_memory(h1, h2) and not np.shares_memory(cp1, cp2)
            assert not np.shares_memory(h1, cp1)
            h1 += 1.0  # must not leak into anything the table hands out later
            assert np.array_equal(table.enthalpy_cp_molar(T)[0], h2)

    def test_memoised_outputs_stay_read_only(self):
        table = ThermoTable(_fits("h2"))
        T = np.linspace(300.0, 2500.0, ThermoTable._MEMO_MIN_SIZE)
        for prop in (table.cp_molar, table.enthalpy_molar, table.entropy_molar):
            first = prop(T)
            assert not first.flags.writeable
            assert prop(T) is first
        # below the memo threshold every call returns a fresh writable array
        assert table.cp_molar(T[:8]).flags.writeable


# ----------------------------------------------------------------------
# the Newton temperature inversion: one folded polynomial per cell
# ----------------------------------------------------------------------
def _frozen_newton(weights, oracle, target, Y, T_guess, *, energy, tol=1e-9, max_iter=100):
    """Frozen copy of ``Mechanism.temperature_from_energy/_enthalpy`` as
    they stood on the blend before the fold: every species' (h, cp)
    evaluated at every iteration, whole-batch termination. The oracle
    the folded per-cell solve is held to (:data:`NEWTON_VS_ORACLE_RTOL`);
    do not "tidy" the arithmetic."""
    target = np.asarray(target, dtype=float)
    T = np.full(target.shape, 1000.0) if T_guess is None else np.array(T_guess, dtype=float, copy=True)
    T = np.broadcast_to(T, target.shape).copy() if T.shape != target.shape else T
    Y = np.asarray(Y, dtype=float)
    w = np.asarray(weights).reshape((-1,) + (1,) * (Y.ndim - 1))
    r = RU / (1.0 / axis0_sum(Y / w))
    for _ in range(max_iter):
        h, cp = oracle.h(T), oracle.cp(T)
        h /= w
        h *= Y
        resid = axis0_sum(h)
        if energy:
            resid -= r * T
        resid -= target
        cp /= w
        cp *= Y
        slope = axis0_sum(cp)
        if energy:
            slope -= r
        dT = resid
        dT /= slope
        T -= dT
        np.clip(T, 50.0, 6000.0, out=T)
        if np.all(np.abs(dT) < tol * np.maximum(T, 1.0)):
            return T
    raise RuntimeError("frozen Newton failed to converge")


def _targets(weights, oracle, T, Y):
    """Mixture (e, h) [J/kg] at ``T`` from the species sums."""
    w = np.asarray(weights).reshape((-1,) + (1,) * (Y.ndim - 1))
    h = axis0_sum(oracle.h(T) / w * Y)
    return h - RU * axis0_sum(Y / w) * T, h


def _newton_batch(ns, rng, shape, tmids=(1000.0,)):
    """Random (T_true, Y, T_guess) with guesses on both sides of t_mid;
    no true temperature within 2 K of a range switch, where the fits'
    small jump gives the caloric equation two roots."""
    T_true = rng.uniform(320.0, 2800.0, shape)
    for tm in tmids:
        T_true = np.where(np.abs(T_true - tm) < 2.0, tm + 2.0, T_true)
    Y = rng.random((ns,) + shape) + 1e-3
    Y /= Y.sum(axis=0)
    T_guess = np.clip(T_true + rng.normal(0.0, 150.0, shape), 250.0, 3200.0)
    return T_true, Y, T_guess


def _rel(got, want):
    return np.max(np.abs(got - want) / np.abs(want), initial=0.0)


@pytest.mark.parametrize("mech_name", ["h2_mech", "ch4_mech"])
class TestNewtonPins:
    """``Mechanism.temperature_from_energy / _enthalpy``: round-off
    agreement with the whole-batch species-sum iteration, and a cell's
    temperature a pure function of the cell."""

    SHAPES = [(), (1,), (37,), (_SMALL - 1,), (_SMALL + 1,), (24, 60)]

    def test_energy_and_enthalpy_inversions(self, mech_name, request, rng):
        mech = request.getfixturevalue(mech_name)
        oracle = BlendOracle(mech.thermo.fits)
        for shape in self.SHAPES:
            T_true, Y, T_guess = _newton_batch(mech.n_species, rng, shape)
            e = mech.int_energy_mass(T_true, Y)
            h = mech.enthalpy_mass(T_true, Y)
            warm = T_true * (1.0 + 1e-6 * rng.normal(size=shape))
            off = T_true + rng.choice([-50.0, 50.0], size=shape)
            for guess in (warm, None, off, T_guess):
                for target, energy, solve in (
                    (e, True, mech.temperature_from_energy),
                    (h, False, mech.temperature_from_enthalpy),
                ):
                    want = _frozen_newton(
                        mech.weights, oracle, target, Y, guess, energy=energy
                    )
                    got = solve(target, Y, T_guess=guess)
                    assert got.shape == want.shape == shape
                    assert _rel(got, want) <= NEWTON_VS_ORACLE_RTOL, (shape, energy)
                    assert _rel(got, T_true) <= 1e-11, (shape, energy)

    def test_per_cell_inversion(self, mech_name, request, rng):
        """Batch independence is bitwise: a cell alone == inside a batch
        == in a permuted batch == in a sub-batch == in another shape
        (across tiles: ``tests/test_tiles.py``)."""
        mech = request.getfixturevalue(mech_name)
        for n in (37, _SMALL + 1):
            T_true, Y, T_guess = _newton_batch(mech.n_species, rng, (n,))
            targets = (
                (mech.int_energy_mass(T_true, Y), mech.temperature_from_energy),
                (mech.enthalpy_mass(T_true, Y), mech.temperature_from_enthalpy),
            )
            for target, solve in targets:
                whole = solve(target, Y, T_guess=T_guess)
                perm = rng.permutation(n)
                picks = [perm, perm[: n // 3], np.arange(5, n, 7),
                         np.flatnonzero(T_guess < 1000.0)]
                for idx in picks:
                    part = solve(target[idx], Y[:, idx], T_guess=T_guess[idx])
                    assert np.array_equal(part, whole[idx]), (n, idx.size)
                for k in (0, int(perm[0]), n - 1):
                    alone = solve(target[k : k + 1], Y[:, k : k + 1],
                                  T_guess=T_guess[k : k + 1])
                    assert alone[0] == whole[k]
                    scalar = solve(target[k], Y[:, k], T_guess=T_guess[k])
                    assert scalar.shape == () and scalar == whole[k]
                m = n - n % 4
                folded = solve(target[:m].reshape(4, -1), Y[:, :m].reshape(-1, 4, m // 4),
                               T_guess=T_guess[:m].reshape(4, -1))
                assert np.array_equal(folded.reshape(-1), whole[:m])

    def test_inputs_are_left_alone_and_the_result_is_fresh(self, mech_name, request, rng):
        mech = request.getfixturevalue(mech_name)
        T_true, Y, T_guess = _newton_batch(mech.n_species, rng, (6, 7))
        e = mech.int_energy_mass(T_true, Y)
        kept = [a.copy() for a in (e, Y, T_guess)]
        first = mech.temperature_from_energy(e, Y, T_guess=T_guess)
        second = mech.temperature_from_energy(e, Y, T_guess=T_guess)
        assert all(np.array_equal(a, b) for a, b in zip((e, Y, T_guess), kept))
        assert first.flags.writeable and not np.shares_memory(first, second)
        assert np.array_equal(first, second)
        # a scalar guess broadcasts
        assert np.array_equal(mech.temperature_from_energy(e, Y, T_guess=1000.0),
                              mech.temperature_from_energy(e, Y))


@pytest.mark.parametrize("kind", ["h2", "ch4", "synthetic"])
class TestFoldedNewton:
    """``ThermoTable.temperature`` itself, on the shipped tables and on
    one that mixes five ``t_mid`` values."""

    @staticmethod
    def _setup(kind):
        fits = _fits(kind)
        weights = np.linspace(2e-3, 4.4e-2, len(fits))
        return ThermoTable(fits), BlendOracle(fits), weights, sorted({f.t_mid for f in fits})

    def test_guesses_and_iterates_across_t_mid(self, kind, rng):
        """Cells that start on the wrong side of a range switch, or
        whose iterates cross one (or several), end where the oracle's
        do (its iterate picks its range the same way)."""
        table, oracle, w, tmids = self._setup(kind)
        n = 400
        _, Y, _ = _newton_batch(len(w), rng, (n,), tmids)
        for tm in tmids:
            near = tm + rng.choice([-1.0, 1.0], n) * rng.uniform(2.0, 120.0, n)
            mirrored = 2.0 * tm - near  # the guess on the other side
            far_below, far_above = np.full(n, 600.0), np.full(n, 1900.0)
            for T_true, guess in ((near, mirrored), (near, far_below), (near, far_above),
                                  (far_above, far_below), (far_below, far_above)):
                for energy, target in zip((True, False), _targets(w, oracle, T_true, Y)):
                    got = table.temperature(target, Y, w, guess, energy=energy)
                    want = _frozen_newton(w, oracle, target, Y, guess, energy=energy)
                    assert _rel(got, want) <= NEWTON_VS_ORACLE_RTOL
                    assert np.any((got < tm) != (guess < tm))

    @settings(max_examples=25, deadline=None)
    @given(data=hst.data())
    def test_random_batches_and_sub_batches(self, kind, data):
        table, oracle, w, tmids = self._setup(kind)
        n = data.draw(hst.sampled_from([1, 3, 64, _SMALL + 2]))
        rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1)))
        energy = data.draw(hst.booleans())
        T_true, Y, T_guess = _newton_batch(len(w), rng, (n,), tmids)
        target = _targets(w, oracle, T_true, Y)[0 if energy else 1]
        whole = table.temperature(target, Y, w, T_guess, energy=energy)
        want = _frozen_newton(w, oracle, target, Y, T_guess, energy=energy)
        assert _rel(whole, want) <= NEWTON_VS_ORACLE_RTOL
        idx = rng.permutation(n)[: data.draw(hst.integers(1, n))]
        part = table.temperature(target[idx], Y[:, idx], w, T_guess[idx], energy=energy)
        assert np.array_equal(part, whole[idx])

    def test_iterates_are_clipped_into_the_bounds(self, kind, rng):
        """Wild guesses come back: an iterate thrown outside
        ``T_BOUNDS`` is clipped onto the bound and iterates on."""
        table, oracle, w, tmids = self._setup(kind)
        T_true, Y, _ = _newton_batch(len(w), rng, (50,), tmids)
        e, _ = _targets(w, oracle, T_true, Y)
        for guess in (1.0, 9000.0, 1e5):
            try:
                want = _frozen_newton(w, oracle, e, Y, guess, energy=True)
            except RuntimeError:
                # beyond their range some fits turn over and Newton cycles
                with pytest.raises(RuntimeError, match="failed to converge"):
                    table.temperature(e, Y, w, guess, energy=True)
            else:
                got = table.temperature(e, Y, w, guess, energy=True)
                assert _rel(got, want) <= NEWTON_VS_ORACLE_RTOL
        # a root beyond the upper bound is never reached: the cell sits
        # on the bound, does not converge, and the solve says so
        lo, hi = T_BOUNDS
        e_hot, _ = _targets(w, oracle, np.full(50, hi + 500.0), Y)
        e[7] = e_hot[7]
        with pytest.raises(RuntimeError, match="failed to converge in 1 cells"):
            table.temperature(e, Y, w, T_true, energy=True, max_iter=30)
        assert lo < T_true.min() and T_true.max() < hi

    def test_non_convergence_raises(self, kind, rng):
        table, oracle, w, tmids = self._setup(kind)
        T_true, Y, T_guess = _newton_batch(len(w), rng, (20,), tmids)
        e, h = _targets(w, oracle, T_true, Y)
        with pytest.raises(RuntimeError, match="failed to converge"):
            table.temperature(e, Y, w, T_guess + 300.0, energy=True, max_iter=1)
        h[3] = np.nan  # a NaN never passes the test
        with pytest.raises(RuntimeError, match="failed to converge in 1 cells"):
            table.temperature(h, Y, w, T_guess, energy=False)
        assert table.temperature(np.empty(0), np.empty((len(w), 0)), w, energy=True).shape == (0,)
