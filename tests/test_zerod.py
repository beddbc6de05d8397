"""Tests for zero-dimensional reactors and ignition delay."""

import numpy as np
import pytest

from repro.chemistry import ConstPressureReactor, ConstVolumeReactor, ignition_delay
from repro.util.constants import P_ATM


class TestConstPressureReactor:
    def test_inert_stays_frozen(self, air_mech, air_y):
        reactor = ConstPressureReactor(air_mech, P_ATM)
        t, T, Y = reactor.integrate(800.0, air_y, 1e-3, n_out=10)
        np.testing.assert_allclose(T, 800.0, rtol=1e-9)
        np.testing.assert_allclose(Y[:, -1], air_y, atol=1e-12)

    def test_ignition_raises_temperature(self, h2_mech, h2_air_stoich):
        reactor = ConstPressureReactor(h2_mech, P_ATM)
        t, T, Y = reactor.integrate(1200.0, h2_air_stoich, 1e-3, n_out=50)
        assert T[-1] > 2000.0

    def test_mass_fractions_stay_normalized(self, h2_mech, h2_air_stoich):
        reactor = ConstPressureReactor(h2_mech, P_ATM)
        _, _, Y = reactor.integrate(1200.0, h2_air_stoich, 1e-3, n_out=20)
        np.testing.assert_allclose(Y.sum(axis=0), 1.0, atol=1e-6)

    def test_h2_consumed_o2_consumed(self, h2_mech, h2_air_stoich):
        reactor = ConstPressureReactor(h2_mech, P_ATM)
        _, _, Y = reactor.integrate(1300.0, h2_air_stoich, 1e-3, n_out=20)
        # equilibrium at ~2400 K leaves a few-percent H2 by dissociation
        assert Y[h2_mech.index("H2"), -1] < 0.2 * h2_air_stoich[h2_mech.index("H2")]
        assert Y[h2_mech.index("H2O"), -1] > 0.15


class TestConstVolumeReactor:
    def test_pressure_rises_on_ignition(self, h2_mech, h2_air_stoich):
        rho = h2_mech.density(P_ATM, 1200.0, h2_air_stoich)
        reactor = ConstVolumeReactor(h2_mech, rho)
        t, T, Y = reactor.integrate(1200.0, h2_air_stoich, 1e-3, n_out=20)
        p_end = h2_mech.pressure(rho, T[-1], Y[:, -1])
        assert T[-1] > 2000.0
        assert p_end > 1.5 * P_ATM

    def test_cv_hotter_than_cp(self, h2_mech, h2_air_stoich):
        """Constant-volume combustion reaches higher T than constant-p."""
        rho = h2_mech.density(P_ATM, 1200.0, h2_air_stoich)
        _, T_v, _ = ConstVolumeReactor(h2_mech, rho).integrate(
            1200.0, h2_air_stoich, 2e-3, n_out=20
        )
        _, T_p, _ = ConstPressureReactor(h2_mech, P_ATM).integrate(
            1200.0, h2_air_stoich, 2e-3, n_out=20
        )
        assert T_v[-1] > T_p[-1]


class TestIgnitionDelay:
    @pytest.mark.slow
    def test_monotone_decreasing_with_temperature(self, h2_mech, h2_air_stoich):
        """The autoignition physics behind §6: hotter mixtures ignite faster."""
        taus = [
            ignition_delay(h2_mech, T0, P_ATM, h2_air_stoich, t_end=0.05)
            for T0 in (1000.0, 1100.0, 1300.0)
        ]
        assert taus[0] > taus[1] > taus[2]
        assert np.isfinite(taus).all()

    def test_magnitude_at_1100k(self, h2_mech, h2_air_stoich):
        """Above crossover, H2/air ignites within ~30-300 us at 1 atm."""
        tau = ignition_delay(h2_mech, 1100.0, P_ATM, h2_air_stoich, t_end=0.01)
        assert 1e-5 < tau < 1e-3

    def test_no_ignition_returns_inf(self, h2_mech, h2_air_stoich):
        tau = ignition_delay(h2_mech, 700.0, P_ATM, h2_air_stoich, t_end=1e-4)
        assert tau == np.inf

    def test_lean_hot_faster_than_stoich(self, h2_mech):
        """Fig 11's mechanism: mixing with 1100 K lean coflow ignites faster
        than colder, richer mixtures (shorter delay on the lean side)."""
        # lean mixture at the hot-coflow end of the mixing line
        def mix(z):
            """Mix fuel jet (65% H2 / 35% N2 at 400 K) with air coflow at 1100 K."""
            Y = np.zeros(h2_mech.n_species)
            X = np.zeros(h2_mech.n_species)
            X[h2_mech.index("H2")] = 0.65
            X[h2_mech.index("N2")] = 0.35
            y_fuel = h2_mech.mole_to_mass(X)
            y_air = np.zeros(h2_mech.n_species)
            y_air[h2_mech.index("O2")] = 0.233
            y_air[h2_mech.index("N2")] = 0.767
            Y = z * y_fuel + (1 - z) * y_air
            T = z * 400.0 + (1 - z) * 1100.0
            return T, Y

        t_lean, y_lean = mix(0.05)
        t_rich, y_rich = mix(0.4)
        tau_lean = ignition_delay(h2_mech, t_lean, P_ATM, y_lean, t_end=0.05)
        tau_rich = ignition_delay(h2_mech, t_rich, P_ATM, y_rich, t_end=0.05)
        assert tau_lean < tau_rich

    def test_delay_not_quantized_by_output_grid(self, h2_mech, h2_air_stoich):
        """Regression: the delay comes from a solve_ivp terminal event,
        not interpolation on an output grid (which biased it by up to
        half a sample interval). The event-located delay agrees with an
        independent tight trajectory to far better than that bias
        (t_end/2/500 = 1e-5 s at the historical 500-sample grid)."""
        tau = ignition_delay(h2_mech, 1100.0, P_ATM, h2_air_stoich, t_end=0.01)
        reactor = ConstPressureReactor(h2_mech, P_ATM)
        t, T, _ = reactor.integrate(1100.0, h2_air_stoich, 2e-4,
                                    n_out=20001, rtol=1e-10, atol=1e-13)
        target = 1100.0 + 400.0
        k = int(np.argmax(T >= target))
        frac = (target - T[k - 1]) / (T[k] - T[k - 1])
        tau_grid = t[k - 1] + frac * (t[k] - t[k - 1])
        assert abs(tau - tau_grid) < 1e-7

    def test_ho2_precedes_oh(self, h2_mech, h2_air_stoich):
        """HO2 is the autoignition precursor: it peaks before OH rises
        (the §6 flame-base marker result)."""
        reactor = ConstPressureReactor(h2_mech, P_ATM)
        t, T, Y = reactor.integrate(1050.0, h2_air_stoich, 2e-3, n_out=2000)
        ho2 = Y[h2_mech.index("HO2")]
        oh = Y[h2_mech.index("OH")]
        t_ho2_rise = t[np.argmax(ho2 > 0.2 * ho2.max())]
        t_oh_rise = t[np.argmax(oh > 0.2 * oh.max())]
        assert t_ho2_rise < t_oh_rise
