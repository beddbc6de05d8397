"""Tests for NASA-7 thermodynamics against known reference values."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.chemistry.thermo import Nasa7, ThermoTable
from repro.chemistry.mechanisms.thermo_data import nasa7, available
from repro.util.constants import RU, T_STANDARD
from repro.util.reduction import axis0_sum


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

    def test_mixture_sums_match_the_materialised_reduction(self, rng):
        """enthalpy_cp_mass == axis0_sum((x / w) * Y), both size regimes."""
        for kind in ("h2", "synthetic"):
            fits = _fits(kind)
            table, oracle = ThermoTable(fits), BlendOracle(fits)
            w = rng.uniform(1e-3, 4e-2, len(fits))
            for shape in ((), (1,), (_SMALL,), (_SMALL + 1,), (30, 50), (6, 7, 40)):
                T = rng.uniform(300.0, 2500.0, shape)
                Y = rng.random((len(fits),) + shape)
                wb = w.reshape((-1,) + (1,) * len(shape))
                hm, cpm = table.enthalpy_cp_mass(T, Y, w)
                assert np.array_equal(hm, axis0_sum(oracle.h(T) / wb * Y))
                assert np.array_equal(cpm, axis0_sum(oracle.cp(T) / wb * Y))
                assert hm.flags.writeable and cpm.flags.writeable


# ----------------------------------------------------------------------
# the Newton temperature inversions built on the kernel
# ----------------------------------------------------------------------
def _frozen_newton(mech, oracle, target, Y, T_guess, *, energy, tol=1e-9, max_iter=100):
    """Frozen copy of ``Mechanism.temperature_from_energy/_enthalpy`` as
    they stood on the blend (whole-batch termination); returns (T, iterations)."""
    target = np.asarray(target, dtype=float)
    T = np.full(target.shape, 1000.0) if T_guess is None else np.array(T_guess, dtype=float, copy=True)
    T = np.broadcast_to(T, target.shape).copy() if T.shape != target.shape else T
    w, Y = mech._wshape(Y)
    r = RU / (1.0 / axis0_sum(Y / w))
    for it in range(1, max_iter + 1):
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
            return T, it
    raise RuntimeError("frozen Newton failed to converge")


def _frozen_newton_cells(mech, oracle, e, Y, T_guess, tol=1e-10, max_iter=100):
    """Frozen copy of ``implicit.temperature_from_energy_cells`` (per-cell
    termination); returns (T, iterations)."""
    w = mech.weights[:, None]
    T = np.array(np.broadcast_to(np.asarray(T_guess, dtype=float), e.shape), copy=True)
    r = RU * axis0_sum(Y / w)
    active = np.arange(e.shape[0])
    for it in range(1, max_iter + 1):
        Ts = T[active]
        h, cp = oracle.h(Ts), oracle.cp(Ts)
        Ysub = Y[:, active]
        resid = axis0_sum(h / w * Ysub) - r[active] * Ts - e[active]
        cv = axis0_sum(cp / w * Ysub) - r[active]
        dT = resid / cv
        Tn = np.clip(Ts - dT, 50.0, 6000.0)
        T[active] = Tn
        conv = np.abs(dT) < tol * np.maximum(Tn, 1.0)
        active = active[~conv]
        if active.size == 0:
            return T, it
    raise RuntimeError("frozen per-cell Newton failed to converge")


def _counting(mech, monkeypatch):
    """Count Newton iterations: each one asks the kernel for one (h, cp) pair."""
    calls = []
    inner = mech.thermo.enthalpy_cp_mass

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(mech.thermo, "enthalpy_cp_mass", counted)
    return calls


def _newton_batch(mech, rng, shape):
    """Random (T_true, Y, T_guess) with guesses on both sides of t_mid."""
    T_true = rng.uniform(320.0, 2800.0, shape)
    Y = rng.random((mech.n_species,) + shape) + 1e-3
    Y /= Y.sum(axis=0)
    T_guess = np.clip(T_true + rng.normal(0.0, 150.0, shape), 250.0, 3200.0)
    return T_true, Y, T_guess


@pytest.mark.parametrize("mech_name", ["h2_mech", "ch4_mech"])
class TestNewtonPins:
    SHAPES = [(1,), (37,), (_SMALL,), (_SMALL + 1,), (2 * _SMALL + 5,), (24, 60), ()]

    def test_energy_and_enthalpy_inversions(self, mech_name, request, rng, monkeypatch):
        mech = request.getfixturevalue(mech_name)
        oracle = BlendOracle(mech.thermo.fits)
        calls = _counting(mech, monkeypatch)
        for shape in self.SHAPES:
            T_true, Y, T_guess = _newton_batch(mech, rng, shape)
            e = mech.int_energy_mass(T_true, Y)
            h = mech.enthalpy_mass(T_true, Y)
            for guess in (T_guess, None):
                for target, energy, solve in (
                    (e, True, mech.temperature_from_energy),
                    (h, False, mech.temperature_from_enthalpy),
                ):
                    want, iters = _frozen_newton(
                        mech, oracle, target, Y, guess, energy=energy
                    )
                    del calls[:]
                    got = solve(target, Y, T_guess=guess)
                    assert np.array_equal(got, want), (shape, energy)
                    assert len(calls) == iters, (shape, energy)
            if len(shape) == 1 and shape[0] > 1:
                # a permuted batch is the same whole-batch iteration
                perm = rng.permutation(shape[0])
                want, iters = _frozen_newton(
                    mech, oracle, e[perm], Y[:, perm], T_guess[perm], energy=True
                )
                del calls[:]
                got = mech.temperature_from_energy(e[perm], Y[:, perm], T_guess=T_guess[perm])
                assert np.array_equal(got, want) and len(calls) == iters

    def test_per_cell_inversion(self, mech_name, request, rng, monkeypatch):
        from repro.chemistry.implicit import temperature_from_energy_cells

        mech = request.getfixturevalue(mech_name)
        oracle = BlendOracle(mech.thermo.fits)
        calls = _counting(mech, monkeypatch)
        for n in (1, 37, _SMALL + 1, 2 * _SMALL + 5):
            T_true, Y, T_guess = _newton_batch(mech, rng, (n,))
            e = mech.int_energy_mass(T_true, Y)
            want, iters = _frozen_newton_cells(mech, oracle, e, Y, T_guess)
            del calls[:]
            got = temperature_from_energy_cells(mech, e, Y, T_guess=T_guess)
            assert np.array_equal(got, want) and len(calls) == iters
            # per-cell termination: permuted and single-cell batches agree
            perm = rng.permutation(n)
            assert np.array_equal(
                temperature_from_energy_cells(mech, e[perm], Y[:, perm], T_guess=T_guess[perm]),
                want[perm],
            )
            k = int(perm[0])
            assert np.array_equal(
                temperature_from_energy_cells(
                    mech, e[k : k + 1], Y[:, k : k + 1], T_guess=T_guess[k : k + 1]
                ),
                want[k : k + 1],
            )
