"""Tests for the visualization substrate (§8)."""

import numpy as np
import pytest

from repro.viz import (
    ColorMap,
    ParallelCoordinates,
    TimeHistogram,
    TransferFunction,
    VolumeRenderer,
    render_isosurface_mask,
    save_ppm,
    simultaneous_render,
)


class TestTransfer:
    def test_colormap_endpoints(self):
        cm = ColorMap([(0.0, (0, 0, 0)), (1.0, (1, 1, 1))])
        np.testing.assert_allclose(cm(0.0), [0, 0, 0])
        np.testing.assert_allclose(cm(1.0), [1, 1, 1])
        np.testing.assert_allclose(cm(0.5), [0.5, 0.5, 0.5])

    def test_colormap_needs_two_stops(self):
        with pytest.raises(ValueError):
            ColorMap([(0.0, (0, 0, 0))])

    def test_colormap_ordering(self):
        with pytest.raises(ValueError):
            ColorMap([(1.0, (0, 0, 0)), (0.0, (1, 1, 1))])

    def test_transfer_normalization(self):
        tf = TransferFunction(100.0, 200.0, ColorMap.fire(), opacity=0.5)
        rgb, a = tf(np.array([100.0, 150.0, 250.0]))
        assert rgb.shape == (3, 3)
        np.testing.assert_allclose(a, 0.5)
        assert tf.normalize(250.0) == 1.0  # clipped

    def test_opacity_ramp(self):
        tf = TransferFunction(0.0, 1.0, ColorMap.fire(),
                              opacity=[(0.0, 0.0), (1.0, 1.0)])
        _, a = tf(np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(a, [0.0, 0.5, 1.0])

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            TransferFunction(1.0, 1.0, ColorMap.fire())


class TestVolumeRenderer:
    def test_2d_field_shape(self):
        field = np.random.default_rng(0).random((24, 32))
        img = VolumeRenderer().render(
            field, TransferFunction(0, 1, ColorMap.fire(), 0.5)
        )
        assert img.shape == (24, 32, 3)
        assert img.min() >= 0 and img.max() <= 1

    def test_3d_compositing_opaque_front_hides_back(self):
        field = np.zeros((8, 8, 4))
        field[:, :, 0] = 1.0  # bright front slab
        tf = TransferFunction(0, 1, ColorMap([(0, (0, 0, 1)), (1, (1, 0, 0))]),
                              opacity=[(0.0, 0.0), (1.0, 1.0)])
        img = VolumeRenderer(axis=2).render(field, tf)
        # front sample fully opaque and red
        np.testing.assert_allclose(img[..., 0], 1.0, atol=1e-6)
        np.testing.assert_allclose(img[..., 2], 0.0, atol=1e-6)

    def test_transparent_volume_shows_background(self):
        field = np.zeros((4, 4))
        tf = TransferFunction(0, 1, ColorMap.fire(), opacity=0.0)
        class _Tinted(VolumeRenderer):
            BACKGROUND = (0.2, 0.3, 0.4)

        img = _Tinted().render(field, tf)
        np.testing.assert_allclose(img[0, 0], [0.2, 0.3, 0.4], atol=1e-12)

    def test_layers_must_match_shape(self):
        tf = TransferFunction(0, 1, ColorMap.fire(), 0.5)
        with pytest.raises(ValueError):
            VolumeRenderer().render_multi(
                [(np.zeros((4, 4)), tf), (np.zeros((5, 4)), tf)]
            )

    def test_multivariate_both_visible(self):
        """Fused rendering keeps spatially disjoint structures visible."""
        a = np.zeros((16, 16))
        b = np.zeros((16, 16))
        # mid-range values: fire(0.7) is orange, cool(0.7) blue-cyan
        # (fire saturates to white at 1.0); pin the auto-scaled range
        # with a single full-intensity pixel per field
        a[2:6, 2:6] = 0.7
        b[10:14, 10:14] = 0.7
        a[0, 0] = 1.0
        b[15, 15] = 1.0
        img = simultaneous_render({"HO2": a, "OH": b})
        lit_a = img[3, 3].sum()
        lit_b = img[12, 12].sum()
        dark = img[8, 8].sum()
        assert lit_a > dark and lit_b > dark
        # HO2 (fire) is warm; OH (cool) is blue-ish
        assert img[3, 3, 0] > img[3, 3, 2]
        assert img[12, 12, 2] > img[12, 12, 0]

    def test_isosurface_mask(self):
        f = np.linspace(0, 1, 101)
        m = render_isosurface_mask(f, 0.5, width=0.05)
        assert np.argmax(m) == 50
        assert m[50] == pytest.approx(1.0)
        assert m[0] < 1e-10


class TestImageIO:
    def test_ppm_roundtrip(self, tmp_path):
        img = np.random.default_rng(1).random((12, 10, 3))
        path = str(tmp_path / "x.ppm")
        save_ppm(path, img)
        header, raw = (tmp_path / "x.ppm").read_bytes().split(b"\n", 1)
        assert header == b"P6 10 12 255"
        back = np.frombuffer(raw, dtype=np.uint8).reshape(12, 10, 3) / 255
        np.testing.assert_allclose(back, img, atol=1 / 255)

    def test_bad_shape(self, tmp_path):
        with pytest.raises(ValueError):
            save_ppm(str(tmp_path / "y.ppm"), np.zeros((4, 4)))


class TestParallelCoordinates:
    @pytest.fixture
    def pc(self):
        rng = np.random.default_rng(2)
        t = rng.random((20, 20))
        return ParallelCoordinates({"T": t, "OH": t**2, "chi": 1.0 - t})

    def test_selection_all_without_brush(self, pc):
        assert pc.selection().all()

    def test_brush_intersection(self, pc):
        pc.brush("T", 0.5, 1.0)
        frac1 = pc.selection().mean()
        pc.brush("OH", 0.5, 1.0)
        frac2 = pc.selection().mean()
        assert frac2 <= frac1

    def test_brush_reversed_bounds(self, pc):
        pc.brush("T", 1.0, 0.5)
        assert pc._brushes["T"] == (0.5, 1.0)

    def test_unknown_variable(self, pc):
        with pytest.raises(KeyError):
            pc.brush("nope", 0, 1)

    def test_polylines_shape(self, pc):
        lines = pc.polylines(n_max=50)
        assert lines.shape[1] == 3
        assert lines.shape[0] <= 50
        assert lines.min() >= 0 and lines.max() <= 1

    def test_negative_correlation_found(self, pc):
        """The Fig 15 workflow: chi and T are perfectly anticorrelated."""
        assert pc.correlation("T", "chi") == pytest.approx(-1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ParallelCoordinates({"a": np.zeros((2, 2)), "b": np.zeros((3, 2))})


class TestTimeHistogram:
    def test_accumulates(self):
        th = TimeHistogram(0.0, 1.0, bins=10)
        th.add_snapshot(0.0, np.full(100, 0.05))
        th.add_snapshot(1.0, np.full(100, 0.95))
        m = th.matrix
        assert m.shape == (2, 10)
        assert m[0, 0] == 100 and m[1, -1] == 100

    def test_normalized(self):
        th = TimeHistogram(0.0, 1.0, bins=4)
        th.add_snapshot(0.0, np.array([0.1, 0.1, 0.9]))
        n = th.normalized()
        assert n.max() == 1.0

    def test_interesting_steps(self):
        th = TimeHistogram(0.0, 1.0, bins=8)
        rng = np.random.default_rng(3)
        base = rng.random(500) * 0.3
        for t in range(4):
            th.add_snapshot(t, base)
        th.add_snapshot(4, base + 0.6)  # sudden shift
        assert 4 in th.interesting_steps(1)

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            TimeHistogram(1.0, 0.0)
