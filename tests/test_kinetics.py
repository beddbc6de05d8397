"""Tests for reaction kinetics: conservation laws, equilibrium, falloff."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as hst

from repro.chemistry import Arrhenius, Falloff, Reaction, ThirdBody
from repro.chemistry.kinetics import KineticsEvaluator
from repro.util.constants import P_ATM, RU


class TestArrhenius:
    def test_constant_rate(self):
        k = Arrhenius(A=5.0)
        assert k(300.0) == pytest.approx(5.0)

    def test_temperature_exponent(self):
        k = Arrhenius(A=2.0, n=1.0)
        assert k(400.0) == pytest.approx(800.0)

    def test_activation_energy(self):
        k = Arrhenius(A=1.0, Ea=RU * 1000.0)
        assert k(1000.0) == pytest.approx(np.exp(-1.0))

    def test_vectorized(self):
        k = Arrhenius(A=1.0, n=2.0)
        np.testing.assert_allclose(k(np.array([1.0, 2.0])), [1.0, 4.0])


class TestReaction:
    def test_equation_string(self):
        r = Reaction((("H", 1), ("O2", 1)), (("OH", 1), ("O", 1)), Arrhenius(1.0))
        assert r.equation == "H + O2 <=> OH + O"

    def test_equation_third_body(self):
        r = Reaction((("H2", 1),), (("H", 2),), Arrhenius(1.0),
                     third_body=ThirdBody())
        assert "+ M" in r.equation

    def test_order(self):
        r = Reaction((("A", 1), ("B", 2)), (("C", 1),), Arrhenius(1.0))
        assert r.order() == 3


def _simple_system():
    """A <-> B with known thermo for analytic equilibrium."""
    from repro.chemistry.thermo import Nasa7, ThermoTable

    # two species with cp = 3.5 Ru, differing only in formation enthalpy
    def fit(h0_over_r, s0):
        return Nasa7(200.0, 1000.0, 3500.0,
                     (3.5, 0, 0, 0, 0, h0_over_r, s0),
                     (3.5, 0, 0, 0, 0, h0_over_r, s0))

    thermo = ThermoTable([fit(0.0, 0.0), fit(-500.0, 0.0)])
    rxn = Reaction((("A", 1),), (("B", 1),), Arrhenius(A=1e3), reversible=True)
    return KineticsEvaluator(["A", "B"], [rxn], thermo)


class TestEquilibrium:
    def test_unimolecular_kc(self):
        """Kc = exp(-dG/RT); for equal-entropy species, exp(dH0/RuT)."""
        ev = _simple_system()
        T = np.array([800.0])
        kc = ev.equilibrium_constants(T)[0]
        # dh = -500*Ru (B lower), so Kc = exp(500/T)
        assert kc[0] == pytest.approx(np.exp(500.0 / 800.0), rel=1e-10)

    def test_net_rate_vanishes_at_equilibrium(self):
        ev = _simple_system()
        T = np.array([900.0])
        kc = float(ev.equilibrium_constants(T)[0][0])
        total = 10.0
        cb = total * kc / (1 + kc)
        C = np.array([[total - cb], [cb]])
        q = ev.rates_of_progress(T, C)
        assert abs(q[0, 0]) < 1e-8 * total


class TestConservation:
    def test_mass_conservation(self, h2_mech):
        rng = np.random.default_rng(42)
        Y = rng.random((h2_mech.n_species, 20))
        Y /= Y.sum(axis=0)
        T = np.linspace(800.0, 2500.0, 20)
        rho = np.linspace(0.1, 2.0, 20)
        wdot = h2_mech.production_rates(rho, T, Y)
        scale = np.abs(wdot).max()
        assert np.abs(wdot.sum(axis=0)).max() <= 1e-10 * max(scale, 1.0)

    def test_element_conservation(self, h2_mech):
        rng = np.random.default_rng(7)
        Y = rng.random((h2_mech.n_species, 10))
        Y /= Y.sum(axis=0)
        T = np.linspace(900.0, 2200.0, 10)
        wdot_molar = h2_mech.production_rates(1.0, T, Y) / h2_mech.weights[:, None]
        el = h2_mech.element_matrix @ wdot_molar
        scale = np.abs(wdot_molar).max()
        assert np.abs(el).max() <= 1e-9 * max(scale, 1.0)

    def test_inert_mixture_no_production(self, h2_mech):
        """Pure N2 produces nothing."""
        Y = np.zeros((h2_mech.n_species, 3))
        Y[h2_mech.index("N2")] = 1.0
        wdot = h2_mech.production_rates(1.0, np.full(3, 1500.0), Y)
        assert np.abs(wdot).max() < 1e-12


class TestFalloff:
    def test_lindemann_limits(self):
        """k -> k0[M] at low pressure, k_inf at high pressure."""
        f = Falloff(low=Arrhenius(A=1e6))
        kinf = Arrhenius(A=1e3)
        T = np.array([1000.0])
        k0 = 1e6  # constant low-pressure rate
        for m in (1e-9, 1e9):
            pr = k0 * m / 1e3
            blend = 1e3 * pr / (1 + pr) * float(np.asarray(f.broadening(T, np.array([pr]))).ravel()[0])
            if m < 1:
                assert blend == pytest.approx(k0 * m, rel=1e-3)
            else:
                assert blend == pytest.approx(1e3, rel=1e-3)

    def test_constant_fcent_broadening_at_center(self):
        """At Pr = 1, F = Fcent^(1/(1+f1^2)) with f1 evaluated at log Pr=0."""
        f = Falloff(low=Arrhenius(A=1.0), fcent=0.8)
        F = f.broadening(np.array([1000.0]), np.array([1.0]))
        assert 0.8 <= F[0] <= 1.0

    def test_troe_form_temperature_dependence(self):
        f = Falloff(low=Arrhenius(A=1.0), troe=(0.5, 100.0, 2000.0))
        F1 = f.broadening(np.array([500.0]), np.array([1.0]))
        F2 = f.broadening(np.array([2000.0]), np.array([1.0]))
        assert F1[0] != F2[0]
        assert 0.0 < F1[0] <= 1.0

    def test_h2_falloff_pressure_dependence(self, h2_mech):
        """H+O2(+M)=HO2(+M) rate grows with pressure at fixed T."""
        ev = h2_mech.kinetics
        j = next(
            i for i, r in enumerate(ev.reactions)
            if r.falloff is not None and ("HO2", 1) in r.products
        )
        T = np.array([1000.0])
        Y = np.zeros((h2_mech.n_species, 1))
        Y[h2_mech.index("H2")] = 0.3
        Y[h2_mech.index("O2")] = 0.7
        k_low = ev.forward_rate_constants(T, h2_mech.concentrations(0.01, Y))[j]
        k_high = ev.forward_rate_constants(T, h2_mech.concentrations(10.0, Y))[j]
        assert k_high[0] > k_low[0]


class TestThirdBody:
    def test_efficiency_weighting(self, h2_mech):
        ev = h2_mech.kinetics
        # find H2 + M <=> H + H + M
        j = next(
            i for i, r in enumerate(ev.reactions)
            if r.third_body is not None and r.falloff is None
            and r.reactants == (("H2", 1),)
        )
        C = np.zeros((h2_mech.n_species, 1))
        C[h2_mech.index("H2O")] = 1.0
        m_h2o = ev._third_body_conc(j, C)
        C2 = np.zeros_like(C)
        C2[h2_mech.index("N2")] = 1.0
        m_n2 = ev._third_body_conc(j, C2)
        assert m_h2o[0] == pytest.approx(12.0 * m_n2[0])


class TestProductionRates:
    def test_ignition_direction(self, h2_mech, h2_air_stoich):
        """Hot stoichiometric mixture consumes H2 and O2."""
        T = np.array([1500.0])
        Y = h2_air_stoich[:, None]
        rho = h2_mech.density(P_ATM, T, Y)
        wdot = h2_mech.production_rates(rho, T, Y)
        assert wdot[h2_mech.index("H2")][0] < 0
        assert wdot[h2_mech.index("O2")][0] < 0

    def test_heat_release_positive_during_burn(self, h2_mech, h2_air_stoich):
        """Net heat release is positive once runaway is under way.

        (During the induction phase the endothermic branching
        H + O2 -> O + OH keeps net heat release near zero or negative —
        real H2 chemistry.) We sample a const-pressure reactor mid-runaway.
        """
        from repro.chemistry import ConstPressureReactor

        reactor = ConstPressureReactor(h2_mech, P_ATM)
        t, T, Y = reactor.integrate(1200.0, h2_air_stoich, 1e-3, n_out=400)
        k = int(np.argmax(T >= 1800.0))  # mid-temperature-rise sample
        Yk = np.clip(Y[:, k], 0, 1)[:, None]
        Tk = np.array([T[k]])
        rho = h2_mech.density(P_ATM, Tk, Yk)
        q = h2_mech.heat_release_rate(rho, Tk, Yk)
        assert q[0] > 0

    def test_initiation_is_endothermic(self, h2_mech, h2_air_stoich):
        """Zero-radical hot reactants: dissociation dominates, q < 0."""
        T = np.array([1600.0])
        Y = h2_air_stoich[:, None]
        rho = h2_mech.density(P_ATM, T, Y)
        q = h2_mech.heat_release_rate(rho, T, Y)
        assert q[0] < 0

    def test_cold_mixture_is_frozen(self, h2_mech, h2_air_stoich):
        T = np.array([300.0])
        Y = h2_air_stoich[:, None]
        rho = h2_mech.density(P_ATM, T, Y)
        wdot = h2_mech.production_rates(rho, T, Y)
        # utterly negligible at room temperature
        assert np.abs(wdot).max() < 1e-6

    def test_duplicate_reactions_sum(self, h2_mech):
        """HO2+HO2 channels both contribute (duplicate pair present)."""
        dups = [r for r in h2_mech.reactions if r.duplicate]
        assert len(dups) == 4  # two duplicate pairs in Li 2004

    def test_batch_shape_independence(self, h2_mech, rng):
        """Per-cell rates are bitwise identical at any batch size.

        The chemistry load balancer's bit-exactness guarantee rests on
        this: a cell evaluated in a shipped batch, a one-cell fallback,
        or the full grid block must produce identical bits. Regression
        guard for the broadcast-pow 1-ulp divergence NumPy's length-1
        inner loops used to trigger in ``equilibrium_constants``.
        """
        n = 257  # odd size: exercises SIMD remainder tails
        T = np.where(rng.random(n) < 0.5, 300.0, 1500.0) + 5.0 * rng.random(n)
        Y = np.zeros((h2_mech.n_species, n))
        Y[h2_mech.index("H2")] = 0.028
        Y[h2_mech.index("O2")] = 0.226
        Y[h2_mech.index("OH")] = 0.001 * rng.random(n)
        Y[h2_mech.index("N2")] = 1.0 - Y.sum(axis=0)
        rho = 0.4 + 0.05 * rng.random(n)
        full = h2_mech.production_rates_cells(rho, T, Y)
        # every cell as a one-cell batch
        for i in range(n):
            one = h2_mech.production_rates_cells(
                rho[i : i + 1], T[i : i + 1], Y[:, i : i + 1]
            )
            assert np.array_equal(one[:, 0], full[:, i]), f"cell {i}"
        # a shuffled contiguous sub-batch
        idx = rng.permutation(n)[:100]
        sub = h2_mech.production_rates_cells(
            np.ascontiguousarray(rho[idx]),
            np.ascontiguousarray(T[idx]),
            np.ascontiguousarray(Y[:, idx]),
        )
        assert np.array_equal(sub, full[:, idx])

    def test_orders_override(self):
        """FORD-style orders change effective concentration dependence."""
        from repro.chemistry.mechanisms.builders import make_species
        from repro.chemistry.mechanism import Mechanism

        sp = [make_species(n) for n in ("CH4", "O2", "CO2", "H2O", "N2")]
        rxn = Reaction(
            (("CH4", 1), ("O2", 2)), (("CO2", 1), ("H2O", 2)),
            Arrhenius(A=1.0), reversible=False, orders=(("CH4", 1.0), ("O2", 0.5)),
        )
        mech = Mechanism(sp, [rxn])
        T = np.array([1000.0])
        C = np.zeros((5, 1))
        C[0] = 2.0
        C[1] = 4.0
        q = mech.kinetics.rates_of_progress(T, C)
        assert q[0, 0] == pytest.approx(2.0 * 4.0**0.5)


# ----------------------------------------------------------------------
# frozen oracle: every reaction evaluated on its own
# ----------------------------------------------------------------------
#
# `_oracle_production_rates` is the evaluator body as it stood before the
# compiled plan (PR 13): each reaction calls its own Arrhenius form
# (``A * T**n`` even for n = 0), accumulates its own [M], and builds its
# rate from fresh copies. Test-only; the planned evaluator must return
# the same bits for every shape and every kind of input.

def _oracle_arrhenius(arrh, T):
    k = arrh.A * T**arrh.n
    if arrh.Ea != 0.0:
        k = k * np.exp(-arrh.Ea / (RU * T))
    return k


def _oracle_production_rates(kin, T, C):
    T = np.asarray(T, dtype=float)
    C = np.asarray(C, dtype=float)
    kf_list = []
    for j, rxn in enumerate(kin.reactions):
        kf = _oracle_arrhenius(rxn.rate, T)
        if rxn.falloff is not None:
            m = kin._third_body_conc(j, C)
            k0 = _oracle_arrhenius(rxn.falloff.low, T)
            pr = k0 * m / np.maximum(kf, 1e-300)
            f = rxn.falloff.broadening(T, pr)
            kf = kf * (pr / (1.0 + pr)) * f
        kf_list.append(kf)
    kc = kin.equilibrium_constants(T)
    q = np.empty((kin.n_reactions,) + T.shape)
    cpos = np.maximum(C, 0.0)
    for j, rxn in enumerate(kin.reactions):
        fwd = np.array(kf_list[j], dtype=float, copy=True)
        fwd = np.broadcast_to(fwd, T.shape).copy()
        for idx, nu in kin._fwd_terms[j]:
            fwd *= cpos[idx] if nu == 1 else cpos[idx] ** nu
        rate = fwd
        if rxn.reversible:
            kr = kf_list[j] / np.maximum(kc[j], 1e-300)
            rev = np.broadcast_to(np.asarray(kr, dtype=float), T.shape).copy()
            for idx, nu in kin._rev_terms[j]:
                rev *= cpos[idx] if nu == 1 else cpos[idx] ** nu
            rate = fwd - rev
        if rxn.third_body is not None and rxn.falloff is None:
            rate = rate * kin._third_body_conc(j, C)
        q[j] = rate
    wdot = np.zeros((len(kin.species_names),) + T.shape)
    for i, terms in enumerate(kin._species_terms):
        acc = wdot[i : i + 1]
        for j, nu in terms:
            if nu == 1.0:
                acc += q[j]
            elif nu == -1.0:
                acc -= q[j]
            else:
                acc += nu * q[j]
    return wdot


def _flame_like(mech, shape, rng):
    """(T, C) at 100 atm spanning cold reactants to hot products."""
    T = rng.uniform(400.0, 2600.0, shape)
    Y = rng.uniform(0.0, 1.0, (mech.n_species,) + shape) ** 3
    Y /= Y.sum(axis=0)
    return T, mech.concentrations(mech.density(100.0 * P_ATM, T, Y), Y)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


@pytest.mark.jacobian  # the plan is shared with SourceTermJacobian: same CI lane
class TestPlannedEvaluatorIsBitwise:
    @pytest.fixture(params=["h2_mech", "ch4_mech", "ch4_1s_mech"])
    def mech(self, request):
        return request.getfixturevalue(request.param)

    @pytest.mark.parametrize(
        "shape", [(), (1,), (2,), (257,), (5, 3), (3, 4, 2), (40000,)])
    def test_shapes(self, mech, rng, shape):
        T, C = _flame_like(mech, shape, rng)
        kin = mech.kinetics
        assert _same_bits(kin.production_rates(T, C),
                          _oracle_production_rates(kin, T, C))

    def test_zero_and_negative_concentrations(self, mech, rng):
        T, C = _flame_like(mech, (64,), rng)
        C[:, ::3] *= -1.0
        C[1, ::5] = 0.0
        C[:, 7] = 0.0
        kin = mech.kinetics
        assert _same_bits(kin.production_rates(T, C),
                          _oracle_production_rates(kin, T, C))

    def test_nan_and_inf_pass_through(self, mech, rng):
        T, C = _flame_like(mech, (32,), rng)
        T[3], T[4] = np.nan, np.inf
        C[0, 9], C[1, 11] = np.nan, np.inf
        kin = mech.kinetics
        with np.errstate(all="ignore"):
            got = kin.production_rates(T, C)
            want = _oracle_production_rates(kin, T, C)
        assert _same_bits(got, want)
        assert np.isnan(got[:, 3]).any() and np.isfinite(got[:, 0]).all()

    def test_strided_views(self, mech, rng):
        T, C = _flame_like(mech, (6, 10), rng)
        kin = mech.kinetics
        want = _oracle_production_rates(kin, T, C)
        got = kin.production_rates(T.T, np.swapaxes(C, 1, 2))
        assert _same_bits(np.swapaxes(got, 1, 2), want)

    @given(data=hst.data())
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_sub_batch(self, h2_mech, data):
        rng = np.random.default_rng(data.draw(hst.integers(0, 2**31 - 1)))
        T, C = _flame_like(h2_mech, (48,), rng)
        idx = np.array(data.draw(hst.lists(hst.integers(0, 47), min_size=1,
                                           max_size=48)))
        kin = h2_mech.kinetics
        want = _oracle_production_rates(kin, T, C)
        assert _same_bits(kin.production_rates(T[idx], C[:, idx]),
                          want[:, idx])

    def test_plan_shares_what_li2004_repeats(self, h2_mech):
        kin = h2_mech.kinetics
        assert len(kin._pow_exps) == 11  # + n = 0: 12 exponents, 23 forms
        assert len(kin._tb_vectors) == 2  # for 6 third-body/falloff reactions


class TestArrheniusWithoutPow:
    @pytest.mark.parametrize("Ea", [0.0, 5.0e4])
    def test_n_zero_is_the_pow_expression_bitwise(self, Ea):
        T = np.array([[300.0, 1500.0, np.nan], [np.inf, 0.0, 2500.0]])
        k = Arrhenius(A=3.5e8, n=0.0, Ea=Ea)
        with np.errstate(all="ignore"):
            assert _same_bits(k(T), _oracle_arrhenius(k, T))
