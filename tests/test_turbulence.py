"""Tests for synthetic turbulence and turbulence statistics."""

import numpy as np
import pytest

from repro.turbulence import (
    integral_length_scale,
    passot_pouquet,
    rms_fluctuation,
    synthetic_velocity_field,
    turbulence_scales,
)
from repro.turbulence.synthetic import divergence


class TestSpectra:
    def test_passot_pouquet_normalization(self):
        u_rms, kp = 2.0, 10.0
        k = np.linspace(0.0, 200.0, 20000)
        e = passot_pouquet(k, u_rms, kp)
        ke = np.trapezoid(e, k)
        assert ke == pytest.approx(1.5 * u_rms**2, rel=1e-3)

    def test_passot_pouquet_peak_location(self):
        k = np.linspace(0.1, 50.0, 5000)
        e = passot_pouquet(k, 1.0, 10.0)
        # E ~ k^4 exp(-2(k/kp)^2) peaks at k = kp
        assert k[np.argmax(e)] == pytest.approx(10.0, rel=0.02)



class TestSyntheticField:
    def test_rms_matches_target(self):
        vel = synthetic_velocity_field((48, 48), (1.0, 1.0), u_rms=2.5,
                                       length_scale=0.2, seed=1)
        assert rms_fluctuation(vel) == pytest.approx(2.5, rel=1e-6)

    def test_divergence_free(self):
        vel = synthetic_velocity_field((32, 32), (1.0, 1.0), u_rms=1.0,
                                       length_scale=0.25, seed=2)
        div = divergence(vel, (1.0, 1.0))
        # compare against typical gradient magnitude (spectral roundoff)
        grad_scale = np.abs(np.gradient(vel[0], 1.0 / 32)[0]).max()
        assert np.abs(div).max() < 1e-5 * max(grad_scale, 1.0)

    def test_zero_mean(self):
        vel = synthetic_velocity_field((32, 32), (1.0, 1.0), u_rms=1.0,
                                       length_scale=0.25, seed=3)
        for v in vel:
            assert abs(v.mean()) < 1e-12

    def test_reproducible(self):
        a = synthetic_velocity_field((16, 16), (1.0, 1.0), 1.0, 0.3, seed=7)
        b = synthetic_velocity_field((16, 16), (1.0, 1.0), 1.0, 0.3, seed=7)
        np.testing.assert_array_equal(a[0], b[0])

    def test_3d_field(self):
        vel = synthetic_velocity_field((16, 16, 16), (1.0, 1.0, 1.0), 1.0,
                                       0.3, seed=4)
        assert len(vel) == 3
        div = divergence(vel, (1.0, 1.0, 1.0))
        assert np.abs(div).max() < 1e-5

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            synthetic_velocity_field((16,), (1.0,), 1.0, 0.3)

    def test_length_scale_controls_structure(self):
        """Larger length scale -> larger integral scale."""
        small = synthetic_velocity_field((64, 64), (1.0, 1.0), 1.0, 0.08, seed=5)
        large = synthetic_velocity_field((64, 64), (1.0, 1.0), 1.0, 0.4, seed=5)
        l_s = integral_length_scale(small[1], 1.0, axis=1)
        l_l = integral_length_scale(large[1], 1.0, axis=1)
        assert l_l > l_s


class TestStatistics:
    def test_rms_of_known_field(self):
        x = np.linspace(0, 2 * np.pi, 128, endpoint=False)
        u = np.sqrt(2.0) * np.sin(x)[None, :] * np.ones((8, 1))
        assert rms_fluctuation([u]) == pytest.approx(1.0, rel=1e-6)

    def test_integral_scale_of_cosine(self):
        """Autocorrelation of cos(kx) is cos(kr): integral to first zero
        is 1/k * integral_0^{pi/2} cos = 1/k."""
        n, L = 256, 2 * np.pi
        x = np.arange(n) * L / n
        u = np.cos(4 * x)
        l = integral_length_scale(u, L)
        assert l == pytest.approx(1.0 / 4.0, rel=0.05)

    def test_turbulence_scales_consistency(self):
        vel = synthetic_velocity_field((64, 64), (1e-2, 1e-2), u_rms=3.0,
                                       length_scale=2e-3, seed=6)
        sc = turbulence_scales(vel, (1e-2, 1e-2), nu=1.5e-5,
                               flame_speed=1.8, flame_thickness=3e-4)
        assert sc.u_rms == pytest.approx(3.0, rel=1e-6)
        assert sc.dissipation > 0
        assert sc.kolmogorov < sc.l_integral
        assert sc.re_turb == pytest.approx(sc.u_rms * sc.l_integral / 1.5e-5)
        assert sc.karlovitz == pytest.approx((3e-4 / sc.kolmogorov) ** 2)
        d = sc.as_dict()
        assert set(d) == {"u_rms", "dissipation", "lt", "l_integral",
                          "kolmogorov", "Re_t", "Ka", "Da"}

    def test_higher_intensity_higher_karlovitz(self):
        """The Table 1 trend: u'/SL up -> Ka up."""
        kas = []
        for u_rms in (1.0, 3.0):
            vel = synthetic_velocity_field((48, 48), (1e-2, 1e-2), u_rms,
                                           2e-3, seed=8)
            sc = turbulence_scales(vel, (1e-2, 1e-2), nu=1.5e-5,
                                   flame_speed=1.8, flame_thickness=3e-4)
            kas.append(sc.karlovitz)
        assert kas[1] > kas[0]
