"""Tests for the analysis substrate: mixture fraction, progress
variable, conditional statistics, flame geometry."""

import numpy as np
import pytest

from repro.analysis import (
    bilger_mixture_fraction,
    conditional_mean,
    count_flame_pieces,
    flame_contours,
    gradient_magnitude,
    liftoff_height,
    progress_variable,
    stoichiometric_mixture_fraction,
    surface_length,
)
from repro.core import Grid


@pytest.fixture(scope="module")
def streams(h2_mech_mod):
    mech = h2_mech_mod
    X = np.zeros(mech.n_species)
    X[mech.index("H2")] = 0.65
    X[mech.index("N2")] = 0.35
    y_fuel = mech.mole_to_mass(X)
    y_ox = np.zeros(mech.n_species)
    y_ox[mech.index("O2")] = 0.233
    y_ox[mech.index("N2")] = 0.767
    return y_fuel, y_ox


@pytest.fixture(scope="module")
def h2_mech_mod():
    from repro.chemistry import h2_li2004

    return h2_li2004()


class TestMixtureFraction:
    def test_pure_streams(self, h2_mech_mod, streams):
        y_fuel, y_ox = streams
        Y = np.stack([y_fuel, y_ox], axis=1)
        z = bilger_mixture_fraction(h2_mech_mod, Y, y_fuel, y_ox)
        assert z[0] == pytest.approx(1.0, abs=1e-12)
        assert z[1] == pytest.approx(0.0, abs=1e-12)

    def test_linear_in_mixing(self, h2_mech_mod, streams):
        y_fuel, y_ox = streams
        fracs = np.linspace(0, 1, 7)
        Y = np.stack([f * y_fuel + (1 - f) * y_ox for f in fracs], axis=1)
        z = bilger_mixture_fraction(h2_mech_mod, Y, y_fuel, y_ox)
        np.testing.assert_allclose(z, fracs, atol=1e-12)

    def test_conserved_under_reaction(self, h2_mech_mod, streams):
        """Burning a mixture (moving O/H atoms to H2O) leaves Z unchanged."""
        y_fuel, y_ox = streams
        mech = h2_mech_mod
        y_mix = 0.3 * y_fuel + 0.7 * y_ox
        from repro.chemistry import ConstPressureReactor
        from repro.util.constants import P_ATM

        _, _, Y = ConstPressureReactor(mech, P_ATM).integrate(
            1300.0, y_mix, 1e-3, n_out=10
        )
        z = bilger_mixture_fraction(mech, Y, y_fuel, y_ox)
        np.testing.assert_allclose(z, z[0], atol=1e-6)

    def test_stoichiometric_value_h2_air(self, h2_mech_mod, streams):
        """Z_st for the paper's 65/35 H2/N2 jet vs air is ~0.16."""
        y_fuel, y_ox = streams
        z_st = stoichiometric_mixture_fraction(h2_mech_mod, y_fuel, y_ox)
        assert 0.1 < z_st < 0.25

    def test_equal_streams_rejected(self, h2_mech_mod, streams):
        y_fuel, _ = streams
        Y = y_fuel[:, None]
        with pytest.raises(ValueError):
            bilger_mixture_fraction(h2_mech_mod, Y, y_fuel, y_fuel)


class TestProgressVariable:
    def test_endpoints(self, h2_mech_mod):
        mech = h2_mech_mod
        Y = np.zeros((mech.n_species, 2))
        Y[mech.index("O2"), 0] = 0.22
        Y[mech.index("O2"), 1] = 0.05
        Y[mech.index("N2")] = 1.0 - Y[mech.index("O2")]
        c = progress_variable(mech, Y, y_o2_unburned=0.22, y_o2_burned=0.05)
        assert c[0] == pytest.approx(0.0)
        assert c[1] == pytest.approx(1.0)

    def test_clipped(self, h2_mech_mod):
        mech = h2_mech_mod
        Y = np.zeros((mech.n_species, 1))
        Y[mech.index("O2")] = 0.30  # above unburned level
        c = progress_variable(mech, Y, 0.22, 0.05)
        assert c[0] == 0.0

    def test_equal_levels_rejected(self, h2_mech_mod):
        with pytest.raises(ValueError):
            progress_variable(h2_mech_mod, np.zeros((9, 1)), 0.2, 0.2)

    def test_gradient_magnitude(self):
        grid = Grid((64, 48), (1.0, 2.0), periodic=(True, True))
        xx, yy = grid.meshgrid()
        f = np.sin(2 * np.pi * xx) * np.cos(np.pi * yy)
        g = gradient_magnitude(f, grid)
        gx = 2 * np.pi * np.cos(2 * np.pi * xx) * np.cos(np.pi * yy)
        gy = -np.pi * np.sin(2 * np.pi * xx) * np.sin(np.pi * yy)
        np.testing.assert_allclose(g, np.sqrt(gx**2 + gy**2), atol=1e-4)


class TestConditional:
    def test_known_relationship(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, 20000)
        y = 3.0 * x + rng.normal(0, 0.01, x.size)
        centers, mean, std, count = conditional_mean(x, y, bins=10)
        np.testing.assert_allclose(mean, 3.0 * centers, atol=0.02)
        # in-bin spread: slope 3 x bin width 0.1 -> std ~ 3*0.1/sqrt(12)
        assert np.all(std < 0.12)
        assert count.sum() == x.size

    def test_empty_bins_are_nan(self):
        x = np.array([0.1, 0.1, 0.9, 0.9])
        y = np.array([1.0, 1.0, 2.0, 2.0])
        centers, mean, std, count = conditional_mean(x, y, bins=5, range_=(0, 1))
        assert np.isnan(mean[2])
        assert mean[0] == pytest.approx(1.0)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            conditional_mean(np.zeros(3), np.zeros(4))


class TestFlameGeometry:
    def _circle_field(self, n=96, r=0.3):
        grid = Grid((n, n), (1.0, 1.0), periodic=(False, False))
        xx, yy = grid.meshgrid()
        return grid, np.sqrt((xx - 0.5) ** 2 + (yy - 0.5) ** 2) - r

    def test_circle_contour_length(self):
        grid, f = self._circle_field(r=0.3)
        segs = flame_contours(f, grid, level=0.0)
        length = surface_length(segs)
        assert length == pytest.approx(2 * np.pi * 0.3, rel=0.01)

    def test_circle_is_one_piece(self):
        grid, f = self._circle_field()
        segs = flame_contours(f, grid, level=0.0)
        assert count_flame_pieces(segs) == 1

    def test_two_circles_two_pieces(self):
        grid = Grid((128, 64), (2.0, 1.0), periodic=(False, False))
        xx, yy = grid.meshgrid()
        f = np.minimum(
            np.sqrt((xx - 0.5) ** 2 + (yy - 0.5) ** 2) - 0.2,
            np.sqrt((xx - 1.5) ** 2 + (yy - 0.5) ** 2) - 0.2,
        )
        segs = flame_contours(f, grid, level=0.0)
        assert count_flame_pieces(segs) == 2

    def test_no_contour(self):
        grid, f = self._circle_field()
        segs = flame_contours(f, grid, level=10.0)
        assert len(segs) == 0
        assert surface_length(segs) == 0.0
        assert count_flame_pieces(segs) == 0

    def test_wrinkled_longer_than_flat(self):
        """More wrinkling -> more flame surface (the Fig 12 metric)."""
        grid = Grid((128, 128), (1.0, 1.0), periodic=(False, False))
        xx, yy = grid.meshgrid()
        flat = yy - 0.5
        wavy = yy - 0.5 - 0.08 * np.sin(6 * np.pi * xx)
        l_flat = surface_length(flame_contours(flat, grid, 0.0))
        l_wavy = surface_length(flame_contours(wavy, grid, 0.0))
        assert l_wavy > 1.1 * l_flat

    def test_requires_2d(self):
        grid = Grid((32,), (1.0,))
        with pytest.raises(ValueError):
            flame_contours(np.zeros(32), grid, 0.0)

    def test_liftoff_height(self):
        grid = Grid((50, 20), (1.0, 0.4), periodic=(False, False))
        xx, _ = grid.meshgrid()
        oh = np.where(xx > 0.42, 1e-3, 0.0)
        h = liftoff_height(oh, grid, threshold=1e-4, axis=0)
        assert h == pytest.approx(grid.coords[0][np.searchsorted(grid.coords[0], 0.42)])

    def test_liftoff_nan_when_absent(self):
        grid = Grid((20, 20), (1.0, 1.0), periodic=(False, False))
        assert np.isnan(liftoff_height(np.zeros((20, 20)), grid, 0.5))
