import numpy as np
import pytest

from caossim import decode, metrics, scene as sc, sensor
from caossim.errors import EmptyRegion
from caossim.plan import Mode, PixelGrid, build_plan
from caossim.scene import Scene

LEVELS = [0, 20, 30, 48, 58, 64]


def hdr_fixture(grid=None):
    grid = grid or PixelGrid(24, 16)
    target = sc.hdr_patch_target(grid, LEVELS, (2, 3))
    layout = sc.hdr_patch_layout(grid, (2, 3))
    return grid, target, layout


class TestPatchDr:
    def test_noiseless_decode_round_trips_levels(self):
        grid, target, layout = hdr_fixture()
        p = build_plan(grid, channels=4, f1=2.0, bit_rate=1.0, sample_rate=128.0, key_seed=6)
        image = decode.decode_frame(sensor.synthesize(p, target), p)
        report = metrics.patch_dr(image, layout.patches, background=layout.background)
        assert report.dr_values() == pytest.approx(LEVELS, abs=1e-7)

    def test_uniform_image_zero_db(self):
        img = np.ones((4, 6))
        report = metrics.patch_dr(img, [(0, 0, 2, 4), (3, 0, 2, 4)])
        assert report.dr_values() == [0.0, 0.0]

    def test_scale_invariance(self):
        grid, target, layout = hdr_fixture()
        a = metrics.patch_dr(target.irradiance, layout.patches)
        b = metrics.patch_dr(37.5 * target.irradiance, layout.patches)
        assert a.dr_values() == pytest.approx(b.dr_values(), rel=1e-12)

    def test_convention_ten(self):
        grid, target, layout = hdr_fixture()
        report = metrics.patch_dr(target.irradiance, layout.patches, convention=10)
        assert report.dr_values() == pytest.approx([lvl / 2 for lvl in LEVELS], abs=1e-9)

    def test_empty_region_error(self):
        with pytest.raises(EmptyRegion):
            metrics.patch_dr(np.ones((4, 4)), [(0, 0, 8, 8)])

    def test_report_serialization(self):
        grid, target, layout = hdr_fixture()
        report = metrics.patch_dr(target.irradiance, layout.patches, background=layout.background)
        text = report.to_text()
        assert text.startswith("caossim-patch-report v1")
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "col0,row0,width,height,mean,std,dr_db,snr"
        assert len(csv_text.strip().splitlines()) == 1 + len(LEVELS)


class TestCrosstalk:
    def test_octave_square_plan_clean(self):
        p = build_plan(PixelGrid(4, 4), channels=4, f1=2.0, bit_rate=1.0, sample_rate=128.0)
        for probe in range(1, 5):
            leak = metrics.crosstalk(p, probe)
            others = np.delete(leak, probe - 1)
            assert leak[probe - 1] == 0.0
            assert np.all(others < -100.0)

    def test_hopping_plan_is_read_per_channel_slot(self):
        # Each bit's spectra are un-hopped before summing, so the probe's own
        # hopped light is not read as leakage on the carriers it hops to.
        keys = dict(channels=4, f1=4.0, bit_rate=1.0, sample_rate=128.0, key_seed=3)
        hopping = build_plan(PixelGrid(4, 4), hopping=True, **keys)
        fixed = build_plan(PixelGrid(4, 4), **keys)
        for probe in range(1, 5):
            leak = metrics.crosstalk(hopping, probe)
            others = np.delete(leak, probe - 1)
            assert leak[probe - 1] == 0.0
            assert np.all(others < -300.0)
        # Unhopped, the un-hop is the identity: the energies as summed in bin order.
        probe = np.arange(fixed.grid.pixel_count) == np.flatnonzero(fixed.member_index == 0)[0]
        stream = sensor.synthesize(fixed, sc.Scene(grid=fixed.grid, irradiance=fixed.image(probe)))
        energy = (decode.per_bit_spectra(stream, fixed) ** 2).sum(axis=0)
        with np.errstate(divide="ignore"):
            want = np.maximum(10.0 * np.log10(energy / energy[0]), -400.0)
        assert metrics.crosstalk(fixed, 1).tobytes() == want.tobytes()

    def test_sine_exact_bin_plan_clean(self):
        # Scaled version of the 25/29/35 kHz ladder: same bin structure.
        p = build_plan(
            PixelGrid(3, 2),
            mode=Mode.ACTIVE_OVERLAPPED,
            frequencies=(25000.0, 29000.0, 35000.0),
            bit_rate=500.0,
            sample_rate=256000.0,
            key_seed=2,
        )
        # Every pixel rides every source carrier: the probe is one pixel lit by one source.
        for probe in range(1, 4):
            leak = metrics.crosstalk(p, probe)
            others = np.delete(leak, probe - 1)
            assert leak[probe - 1] == 0.0
            assert np.all(others < -100.0)
        for probe in (0, 4):
            with pytest.raises(ValueError, match=f"probe channel {probe} outside 1..3"):
                metrics.crosstalk(p, probe)


class TestWrongKey:
    def make_capture(self, key_seed=12345, hopping=True, **flags):
        grid = PixelGrid(16, 16)
        p = build_plan(
            grid,
            channels=4,
            f1=2.0,
            bit_rate=1.0,
            sample_rate=128.0,
            key_seed=key_seed,
            hopping=hopping,
            **flags,
        )
        rng = np.random.default_rng(77)
        scene = Scene(grid=grid, irradiance=rng.uniform(0.0, 1.0, (16, 16)))
        return p, sensor.synthesize(p, scene)

    def test_correct_seed_high_correlation(self):
        p, stream = self.make_capture()
        rho = metrics.wrong_key_correlation(stream, p, wrong_seed=p.key_seed)
        assert rho > 0.999

    def test_wrong_seed_low_correlation(self):
        p, stream = self.make_capture()
        rng = np.random.default_rng(5)
        rhos = [
            abs(metrics.wrong_key_correlation(stream, p, int(seed)))
            for seed in rng.integers(1, 2**62, size=50)
        ]
        assert float(np.median(rhos)) < 0.3

    def test_combined_protection_not_weaker_than_single(self):
        rng = np.random.default_rng(31)
        seeds = [int(s) for s in rng.integers(1, 2**62, size=24)]
        configs = {
            "combined": dict(hopping=True, shuffle_pixels=True, shuffle_codes=True),
            "hop-only": dict(hopping=True, shuffle_pixels=False, shuffle_codes=False),
            "space-only": dict(hopping=False, shuffle_pixels=True, shuffle_codes=False),
            "code-only": dict(hopping=False, shuffle_pixels=False, shuffle_codes=True),
        }
        medians = {}
        for name, flags in configs.items():
            hopping = flags.pop("hopping")
            p, stream = self.make_capture(hopping=hopping, **flags)
            rhos = [
                abs(metrics.wrong_key_correlation(stream, p, seed)) for seed in seeds
            ]
            medians[name] = float(np.median(rhos))
        for name in ("hop-only", "space-only", "code-only"):
            assert medians["combined"] <= medians[name] + 0.05, medians


class TestSpeedupAndRmse:
    def test_worked_example_eight_times(self):
        grid = PixelGrid(254, 8)
        fast = build_plan(grid, channels=8, f1=16.0, bit_rate=1.0, sample_rate=8192.0)
        slow = build_plan(grid, mode=Mode.FM_CDMA, f1=1024.0, bit_rate=1.0, sample_rate=8192.0)
        assert metrics.speedup(fast, slow) == pytest.approx(8.0)
        assert metrics.speedup(fast, slow) * metrics.speedup(slow, fast) == pytest.approx(1.0)

    def test_identical_plans(self):
        p = build_plan(PixelGrid(4, 4), channels=2, f1=2.0, bit_rate=1.0, sample_rate=64.0)
        assert metrics.speedup(p, p) == 1.0
