import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caossim import scene as sc
from caossim.errors import ConfigError, LayoutError
from caossim.plan import PixelGrid


def oversampled_trapezoid(a, b, refine):
    """Independent quadrature: trapezoid on the union grid refined `refine` times."""
    lo = max(a.support[0], b.support[0])
    hi = min(a.support[1], b.support[1])
    if hi <= lo:
        return 0.0
    knots = np.unique(np.clip(np.concatenate([a.wavelengths, b.wavelengths]), lo, hi))
    fine = [knots]
    steps = np.linspace(0.0, 1.0, refine, endpoint=False)[1:]
    fine.append((knots[:-1, None] + np.diff(knots)[:, None] * steps[None, :]).ravel())
    grid = np.unique(np.concatenate(fine))
    return float(np.trapezoid(a.sample(grid) * b.sample(grid), grid))


class TestBandIntegrate:
    def test_disjoint_supports(self):
        a = sc.flat_spectrum(350, 1000)
        b = sc.flat_spectrum(1100, 1800)
        assert sc.band_integrate(a, b) == 0.0

    def test_flat_rectangle(self):
        a = sc.flat_spectrum(500, 600)
        b = sc.flat_spectrum(500, 600)
        assert sc.band_integrate(a, b) == pytest.approx(100.0, rel=1e-12)

    def test_gaussian_pair_matches_fine_grid_oracle(self):
        led = sc.gaussian_spectrum(530, 35)
        filt = sc.gaussian_spectrum(550, 40)
        got = sc.band_integrate(led, filt)
        oracle = oversampled_trapezoid(led, filt, refine=10)
        assert got == pytest.approx(oracle, rel=1e-6)
        assert got > 0

    @settings(deadline=None, max_examples=20)
    @given(st.floats(min_value=0.01, max_value=50.0))
    def test_bilinear_in_either_argument(self, factor):
        a = sc.gaussian_spectrum(530, 35)
        b = sc.gaussian_spectrum(550, 40)
        base = sc.band_integrate(a, b)
        a_scaled = sc.SpectralCurve(a.wavelengths, a.values * factor)
        b_scaled = sc.SpectralCurve(b.wavelengths, b.values * factor)
        assert sc.band_integrate(a_scaled, b) == pytest.approx(factor * base, rel=1e-12)
        assert sc.band_integrate(a, b_scaled) == pytest.approx(factor * base, rel=1e-12)

    def test_symmetric(self):
        a = sc.gaussian_spectrum(455, 18)
        b = sc.flat_spectrum(400, 500, 0.7)
        assert sc.band_integrate(a, b) == pytest.approx(sc.band_integrate(b, a), rel=1e-14)


class TestGaussianSpectrum:
    def test_half_maximum_at_half_fwhm(self):
        curve = sc.gaussian_spectrum(455, 18)
        for wl in (455 - 9, 455 + 9):
            assert curve.sample(np.array([wl]))[0] == pytest.approx(0.5, abs=1e-3)

    def test_peak_is_one(self):
        curve = sc.gaussian_spectrum(625, 17)
        assert curve.sample(np.array([625.0]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_fwhm_recovered_within_half_nm(self):
        curve = sc.gaussian_spectrum(530, 35)
        fine = np.linspace(*curve.support, 20001)
        vals = curve.sample(fine)
        above = fine[vals >= 0.5]
        assert (above[-1] - above[0]) == pytest.approx(35.0, abs=0.5)

    def test_rejects_bad_fwhm(self):
        with pytest.raises(ConfigError):
            sc.gaussian_spectrum(500, 0.0)


class TestHdrTarget:
    def test_six_patch_levels(self):
        grid = PixelGrid(24, 16)
        target = sc.hdr_patch_target(grid, [0, 20, 30, 48, 58, 64], (2, 3))
        values = set(np.unique(target.irradiance))
        expected = {0.0} | {10.0 ** (-d / 20.0) for d in (0, 20, 30, 48, 58, 64)}
        assert values == expected
        assert target.irradiance.min() == 0.0
        assert target.irradiance.max() == 1.0
        assert np.isclose(sorted(values)[1], 10.0**-3.2)

    def test_single_open_patch(self):
        grid = PixelGrid(4, 4)
        target = sc.hdr_patch_target(grid, [0], layout=(1, 1))
        x0, y0, w, h = sc.hdr_patch_layout(grid, (1, 1)).patches[0]
        assert np.all(target.irradiance[y0 : y0 + h, x0 : x0 + w] == 1.0)

    def test_layout_errors(self):
        with pytest.raises(LayoutError):
            sc.hdr_patch_target(PixelGrid(2, 2), [0, 20, 30, 48, 58, 64], (2, 3))
        with pytest.raises(LayoutError):
            sc.hdr_patch_target(PixelGrid(24, 16), [0, 20], (2, 3))

    @pytest.mark.parametrize(
        "levels, layout, message",
        [
            ([0, 20, 30, 48, 58, 64], (-2, -3), "a -2x-3 layout needs at least one row"),
            ([], (1, 0), "a 1x0 layout needs at least one row"),
            ([0, -7000.0], (1, 2), "patch level -7000.0 dB gives irradiance inf"),
            ([0, 7000.0], (1, 2), "patch level 7000.0 dB gives irradiance 0.0"),
            ([0, float("nan")], (1, 2), "patch level nan dB gives irradiance nan"),
            ([0, float("-inf")], (1, 2), "patch level -inf dB gives irradiance inf"),
        ],
        ids=["negative-layout", "zero-columns", "overflow", "underflow", "nan", "minus-inf"],
    )
    def test_refuses_a_layout_or_level_it_would_reinterpret(self, levels, layout, message):
        # Each level's irradiance 10**(-L / 20) must be a positive finite float.
        with pytest.raises(LayoutError, match=re.escape(message)):
            sc.hdr_patch_target(PixelGrid(24, 16), levels, layout=layout)


class TestDualBandSource:
    def test_nonzero_in_both_detector_bands(self):
        grid = PixelGrid(8, 8)
        target = sc.dual_band_source(grid, spot=(4, 4), radius=2.0)
        si = target.effective_irradiance(sc.si_band_responsivity())
        ge = target.effective_irradiance(sc.ge_band_responsivity())
        assert si.max() > 0
        assert ge.max() > 0
        spot = sc.disc_mask(grid, (4, 4), 2.0)
        assert np.all(si[~spot] == 0) and np.all(ge[~spot] == 0)

    def test_spot_is_one_spectrum_scaled_per_pixel(self):
        grid = PixelGrid(8, 8)
        target = sc.dual_band_source(grid, spot=(4, 4), radius=2.0)
        band = sc.ge_band_responsivity()
        expected = sc.disc_mask(grid, (4, 4), 2.0) * sc.band_integrate(target.spectrum, band)
        assert np.array_equal(target.effective_irradiance(band), expected)

    @pytest.mark.parametrize(
        "spot, radius, message",
        [
            ((9, 4), 2.0, "spot (9, 4) outside the grid"),
            ((4, 0), 2.0, "spot (4, 0) outside the grid"),
            ((4, 4), -1.0, "spot radius must be finite and >= 0, got -1.0"),
            ((4, 4), float("nan"), "spot radius must be finite and >= 0, got nan"),
            ((4, 4), float("inf"), "spot radius must be finite and >= 0, got inf"),
        ],
        ids=["column-outside", "row-outside", "negative-radius", "nan-radius", "inf-radius"],
    )
    def test_refuses_a_spot_outside_the_grid_or_a_bad_radius(self, spot, radius, message):
        with pytest.raises(LayoutError, match=re.escape(message)):
            sc.dual_band_source(PixelGrid(8, 8), spot=spot, radius=radius)


class TestTwoHoleTarget:
    def setup_method(self):
        self.grid = PixelGrid(16, 8)
        self.green_led = sc.gaussian_spectrum(530, 35)
        self.red_led = sc.gaussian_spectrum(625, 17)
        self.blue_led = sc.gaussian_spectrum(455, 18)
        self.green_filter = sc.gaussian_spectrum(550, 40)
        self.red_filter = sc.gaussian_spectrum(620, 10)
        self.sources = [(self.green_led, 1), (self.red_led, 2), (self.blue_led, 3)]

    def test_matched_filter_lights_one_image(self):
        target = sc.two_hole_target(
            self.grid,
            hole_positions=[(4, 4), (12, 4)],
            hole_filters=[self.red_filter, self.green_filter],
            sources=self.sources,
            hole_radius=2.0,
        )
        green_img, red_img, blue_img = target.per_source
        right = sc.disc_mask(self.grid, (12, 4), 2.0)
        left = sc.disc_mask(self.grid, (4, 4), 2.0)
        assert np.all(green_img[right] > 0) and np.all(green_img[~right] == 0)
        assert np.all(red_img[left] > 0) and np.all(red_img[~left] == 0)
        assert np.all(blue_img == 0)

    def test_disjoint_filter_dark_everywhere(self):
        uv_filter = sc.gaussian_spectrum(200, 10)
        target = sc.two_hole_target(
            self.grid,
            hole_positions=[(4, 4)],
            hole_filters=[uv_filter],
            sources=self.sources,
            hole_radius=2.0,
        )
        assert np.all(target.per_source == 0)

    @pytest.mark.parametrize("radius", [-1.0, float("nan"), float("inf")])
    def test_refuses_a_negative_or_non_finite_radius(self, radius):
        with pytest.raises(LayoutError, match="hole radius must be finite and >= 0"):
            sc.two_hole_target(
                self.grid,
                hole_positions=[(4, 4)],
                hole_filters=[self.red_filter],
                sources=self.sources,
                hole_radius=radius,
            )


class TestFileFormats:
    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.uniform(0, 3.7, size=(5, 7))
        path = tmp_path / "img.pgm"
        sc.write_image_pgm(img, path)
        back = sc.read_image_pgm(path)
        assert back.shape == img.shape
        assert np.allclose(back, img, atol=3.7 / 65535.0)

    def test_csv_roundtrip(self, tmp_path):
        img = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
        path = tmp_path / "img.csv"
        sc.write_image_csv(img, path)
        assert np.array_equal(sc.read_image_csv(path), img)

    @pytest.mark.parametrize("shape", [(12, 1), (1, 12), (1, 1)])
    def test_csv_roundtrip_keeps_a_single_row_or_column(self, tmp_path, shape):
        img = np.arange(np.prod(shape), dtype=np.float64).reshape(shape) / 7.0
        path = tmp_path / "img.csv"
        sc.write_image_csv(img, path)
        back = sc.read_image_csv(path)
        assert back.shape == shape and np.array_equal(back, img)


def test_scene_rejects_negative_values():
    grid = PixelGrid(2, 2)
    with pytest.raises(ConfigError):
        sc.Scene(grid=grid, irradiance=np.array([[1.0, -0.1], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "content, message",
    [
        ({}, "exactly one of irradiance and per_source"),
        (dict(irradiance=np.ones((2, 3)), per_source=np.ones((2, 2, 3))),
         "exactly one of irradiance and per_source"),
        (dict(per_source=np.ones((2, 2, 3)), spectrum=sc.gaussian_spectrum(1000.0, 10.0)),
         "spectrum applies to irradiance only"),
    ],
    ids=["empty", "irradiance-and-per-source", "per-source-spectrum"],
)
def test_scene_refuses_content_it_would_ignore(content, message):
    # An empty scene failed only at capture; with both maps each mode dropped
    # one, and a per-source scene dropped its spectrum.
    with pytest.raises(ConfigError, match=message):
        sc.Scene(grid=PixelGrid(3, 2), **content)


def test_detector_model_validation():
    with pytest.raises(ConfigError):
        sc.DetectorModel(gain=0.0)
    with pytest.raises(ConfigError):
        sc.DetectorModel(pink_noise=(1.0, 3.0))
    with pytest.raises(ConfigError, match=r"pink_noise must be \(amplitude, alpha\), got None"):
        sc.DetectorModel(pink_noise=None)  # amplitude 0 is the one spelling of off
    sc.DetectorModel(pink_noise=(1.0, 1.0), adc_bits=16, adc_fullscale=10.0)
