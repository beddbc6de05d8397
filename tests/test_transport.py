"""Tests for molecular transport: collision integrals, mixture rules."""

import numpy as np
import pytest

from repro.transport import (
    ConstantLewisTransport,
    MixtureAveragedTransport,
    omega11,
    omega22,
)
from repro.util.constants import P_ATM
from tests.helpers import mole_fractions
from tests.helpers import PowerLawTransport


class TestCollisionIntegrals:
    def test_omega22_reference_point(self):
        # tabulated Omega(2,2)* at T* = 1.0 is ~1.587 (Hirschfelder)
        assert omega22(1.0) == pytest.approx(1.587, rel=0.01)

    def test_omega11_reference_point(self):
        # tabulated Omega(1,1)* at T* = 1.0 is ~1.439
        assert omega11(1.0) == pytest.approx(1.439, rel=0.01)

    def test_decreasing_with_temperature(self):
        t = np.array([0.5, 1.0, 5.0, 50.0])
        assert np.all(np.diff(omega22(t)) < 0)
        assert np.all(np.diff(omega11(t)) < 0)

    def test_approach_unity_at_high_t(self):
        assert 0.5 < omega22(100.0) < 1.0
        assert 0.5 < omega11(100.0) < 1.0


class TestMixtureAveraged:
    def test_air_viscosity(self, air_mech, air_y):
        tr = MixtureAveragedTransport(air_mech)
        mu = tr.mixture_viscosity(np.array(300.0), mole_fractions(air_mech, air_y))
        assert float(mu) == pytest.approx(1.85e-5, rel=0.03)

    def test_air_conductivity(self, air_mech, air_y):
        tr = MixtureAveragedTransport(air_mech)
        lam = tr.mixture_conductivity(np.array(300.0), mole_fractions(air_mech, air_y))
        assert float(lam) == pytest.approx(0.026, rel=0.05)

    def test_air_prandtl_number(self, air_mech, air_y):
        tr = MixtureAveragedTransport(air_mech)
        props = tr.evaluate(np.array(300.0), P_ATM, air_y)
        cp = air_mech.cp_mass(np.array(300.0), air_y)
        pr = float(props.viscosity * cp / props.conductivity)
        assert pr == pytest.approx(0.71, rel=0.1)

    def test_viscosity_increases_with_temperature(self, air_mech, air_y):
        tr = MixtureAveragedTransport(air_mech)
        T = np.array([300.0, 600.0, 1200.0])
        X = mole_fractions(air_mech, air_y)[:, None] * np.ones((1, 3))
        mu = tr.mixture_viscosity(T, X)
        assert np.all(np.diff(mu) > 0)

    def test_binary_diffusion_symmetric(self, h2_mech):
        tr = MixtureAveragedTransport(h2_mech)
        d = tr.binary_diffusion(np.array(500.0), P_ATM)
        np.testing.assert_allclose(d, np.swapaxes(d, 0, 1), rtol=1e-12)

    def test_diffusion_scales_inverse_pressure(self, h2_mech):
        tr = MixtureAveragedTransport(h2_mech)
        d1 = tr.binary_diffusion(np.array(500.0), P_ATM)
        d2 = tr.binary_diffusion(np.array(500.0), 2 * P_ATM)
        np.testing.assert_allclose(d1, 2 * d2, rtol=1e-12)

    def test_h2_diffuses_fastest(self, h2_mech, h2_air_stoich):
        """Light H2 has the largest mixture diffusivity (Lewis < 1)."""
        tr = MixtureAveragedTransport(h2_mech)
        props = tr.evaluate(np.array(500.0), P_ATM, h2_air_stoich)
        d = props.diffusivities
        heavy = [h2_mech.index(n) for n in ("O2", "N2", "H2O2")]
        assert all(d[h2_mech.index("H2")] > d[i] for i in heavy)
        assert d[h2_mech.index("H")] > d[h2_mech.index("H2O")]

    def test_o2_n2_binary_diffusion_magnitude(self, air_mech):
        tr = MixtureAveragedTransport(air_mech)
        d = tr.binary_diffusion(np.array(300.0), P_ATM)
        # literature: D(O2-N2, 300 K, 1 atm) ~ 0.21 cm^2/s
        assert float(d[0, 1]) == pytest.approx(2.1e-5, rel=0.15)

    def test_positive_everywhere(self, h2_mech):
        rng = np.random.default_rng(0)
        Y = rng.random((h2_mech.n_species, 8))
        Y /= Y.sum(axis=0)
        T = np.linspace(300.0, 2500.0, 8)
        tr = MixtureAveragedTransport(h2_mech)
        props = tr.evaluate(T, P_ATM, Y)
        assert np.all(props.viscosity > 0)
        assert np.all(props.conductivity > 0)
        assert np.all(props.diffusivities > 0)

    def test_soret_ratios_only_light_species(self, h2_mech, h2_air_stoich):
        tr = MixtureAveragedTransport(h2_mech, soret=True)
        props = tr.evaluate(np.array(1000.0), P_ATM, h2_air_stoich)
        theta = props.thermal_diffusion_ratios
        assert theta[h2_mech.index("H2")] != 0.0
        assert theta[h2_mech.index("N2")] == 0.0

    def test_missing_transport_data_raises(self, h2_mech):
        from repro.chemistry.mechanism import Mechanism
        from repro.chemistry.mechanisms.builders import make_species

        sp = make_species("O2")
        sp.transport = None
        with pytest.raises(ValueError, match="missing transport"):
            MixtureAveragedTransport(Mechanism([sp, make_species("N2")]))

    def test_shape_handling(self, air_mech, air_y):
        tr = MixtureAveragedTransport(air_mech)
        T = np.full((4, 3), 400.0)
        Y = air_y[:, None, None] * np.ones((1, 4, 3))
        props = tr.evaluate(T, P_ATM, Y)
        assert props.viscosity.shape == (4, 3)
        assert props.diffusivities.shape == (2, 4, 3)


class TestSimpleTransport:
    def test_power_law_exponent(self, air_mech):
        tr = PowerLawTransport(air_mech, mu_ref=1.8e-5, t_ref=300.0, exponent=0.7)
        Y = air_mech.mass_fractions_from({"O2": 0.233, "N2": 0.767})
        p1 = tr.evaluate(np.array(300.0), P_ATM, Y)
        p2 = tr.evaluate(np.array(600.0), P_ATM, Y)
        assert float(p2.viscosity / p1.viscosity) == pytest.approx(2.0**0.7, rel=1e-10)

    def test_power_law_unity_lewis(self, air_mech, air_y):
        tr = PowerLawTransport(air_mech, prandtl=0.72)
        props = tr.evaluate(np.array(500.0), P_ATM, air_y)
        rho = air_mech.density(P_ATM, np.array(500.0), air_y)
        cp = air_mech.cp_mass(np.array(500.0), air_y)
        alpha = props.conductivity / (rho * cp)
        np.testing.assert_allclose(props.diffusivities, alpha, rtol=1e-12)

    def test_constant_lewis_dict(self, h2_mech, h2_air_stoich):
        tr = ConstantLewisTransport(h2_mech, lewis={"H2": 0.3, "H": 0.18})
        props = tr.evaluate(np.array(800.0), P_ATM, h2_air_stoich)
        d = props.diffusivities
        assert d[h2_mech.index("H2")] == pytest.approx(
            d[h2_mech.index("N2")] / 0.3, rel=1e-10
        )

    def test_constant_lewis_bad_shape(self, h2_mech):
        with pytest.raises(ValueError, match="lewis"):
            ConstantLewisTransport(h2_mech, lewis=np.ones(3))

    def test_prandtl_consistency(self, air_mech, air_y):
        class _Pr07(ConstantLewisTransport):
            PRANDTL = 0.7

        tr = _Pr07(air_mech)
        props = tr.evaluate(np.array(400.0), P_ATM, air_y)
        cp = air_mech.cp_mass(np.array(400.0), air_y)
        assert float(props.viscosity * cp / props.conductivity) == pytest.approx(0.7)


class TestWorkspaceEvaluate:
    """The arena-backed transport evaluation is bitwise-equal to plain."""

    @pytest.mark.parametrize("soret", [False, True])
    def test_bitwise_vs_plain(self, h2_mech, soret):
        from repro.core.workspace import Workspace

        tr = MixtureAveragedTransport(h2_mech, soret=soret)
        rng = np.random.default_rng(11)
        S = (6, 5)
        T = 400.0 + 1400.0 * rng.random(S)
        p = P_ATM * (1.0 + 0.2 * (rng.random(S) - 0.5))
        Y = rng.random((h2_mech.n_species,) + S) + 0.05
        Y /= Y.sum(axis=0)
        plain = tr.evaluate(T, p, Y)
        fast = tr.evaluate(T, p, Y, workspace=Workspace())
        assert np.array_equal(plain.viscosity, fast.viscosity)
        assert np.array_equal(plain.conductivity, fast.conductivity)
        assert np.array_equal(plain.diffusivities, fast.diffusivities)
        if soret:
            assert np.array_equal(plain.thermal_diffusion_ratios,
                                  fast.thermal_diffusion_ratios)
        else:
            assert fast.thermal_diffusion_ratios is None

    def test_warm_rerun_allocates_no_new_buffers(self, h2_mech):
        from repro.core.workspace import Workspace

        tr = MixtureAveragedTransport(h2_mech)
        rng = np.random.default_rng(12)
        S = (8,)
        T = 400.0 + 1400.0 * rng.random(S)
        Y = rng.random((h2_mech.n_species,) + S) + 0.05
        Y /= Y.sum(axis=0)
        ws = Workspace()
        tr.evaluate(T, P_ATM, Y, workspace=ws)
        n = len(ws)
        tr.evaluate(T, 1.1 * P_ATM, Y, workspace=ws)
        assert len(ws) == n
