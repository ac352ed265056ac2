import os
import tempfile
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from caossim import codes, decode, presets, sensor
from caossim import plan as plan_mod
from caossim import scene as scene_mod
from caossim.errors import ConfigError, LengthMismatch, PlanMismatch, TimingError
from caossim.plan import Mode, PixelGrid, build_plan
from caossim.scene import DetectorModel, Scene
from test_plan import large_grid_plan, random_plans
from test_sensor import file_bytes, whole_stream_capture


def positive_scene(grid, seed=0):
    rng = np.random.default_rng(seed)
    return Scene(grid=grid, irradiance=rng.uniform(0.1, 1.0, (grid.rows, grid.columns)))


class TestDspGain:
    def test_values(self):
        assert decode.dsp_gain_db(65536) == pytest.approx(45.15, abs=0.02)
        assert decode.dsp_gain_db(16384) == pytest.approx(39.13, abs=0.01)
        assert decode.dsp_gain_db(2) == 0.0

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            decode.dsp_gain_db(1)


class TestPerBitSpectra:
    def test_single_pixel_peak_near_f_over_pi(self):
        grid = PixelGrid(1, 1)
        plan = build_plan(grid, channels=1, f1=1.0, bit_rate=1.0, sample_rate=2.0**20)
        gain = 2.5
        scene = Scene(grid=grid, irradiance=np.array([[1.0]]))
        stream = sensor.synthesize(plan, scene, DetectorModel(gain=gain))
        spectra = decode.per_bit_spectra(stream, plan)
        f_count = plan.samples_per_bit
        bits = plan.code_bits(0)
        for w in range(plan.code_length):
            if bits[w]:
                assert spectra[w, 0] == pytest.approx(gain * f_count / np.pi, rel=1e-9)
            else:
                assert spectra[w, 0] < 1e-6

    def test_all_zero_stream(self):
        grid = PixelGrid(2, 2)
        plan = build_plan(grid, channels=2, f1=2.0, bit_rate=1.0, sample_rate=64.0)
        stream = sensor.SampleStream(
            rate=plan.sample_rate,
            samples=np.zeros(plan.frame_samples),
            bits=plan.code_length,
            samples_per_bit=plan.samples_per_bit,
        )
        assert np.all(decode.per_bit_spectra(stream, plan) == 0.0)

    def test_no_cross_channel_leakage(self):
        # Octave square carriers on exact bins: a pixel on one channel leaves
        # every other carrier bin numerically empty.
        grid = PixelGrid(4, 1)
        plan = build_plan(grid, channels=4, f1=2.0, bit_rate=1.0, sample_rate=128.0)
        img = np.zeros((1, 4))
        img[0, 2] = 1.0  # member 2 only
        stream = sensor.synthesize(plan, Scene(grid=grid, irradiance=img))
        spectra = decode.per_bit_spectra(stream, plan)
        peak = spectra[:, 2].max()
        others = np.delete(spectra, 2, axis=1)
        assert peak > 0
        assert others.max() < 1e-9 * peak

    def test_plan_mismatch(self):
        grid = PixelGrid(2, 2)
        plan = build_plan(grid, channels=2, f1=2.0, bit_rate=1.0, sample_rate=64.0)
        other = build_plan(grid, channels=2, f1=2.0, bit_rate=1.0, sample_rate=128.0)
        stream = sensor.synthesize(plan, positive_scene(grid))
        with pytest.raises(PlanMismatch):
            decode.per_bit_spectra(stream, other)

    def test_block_spectra_are_rows_of_frame_spectra(self):
        grid = PixelGrid(6, 6)
        plan = build_plan(grid, channels=3, f1=2.0, bit_rate=1.0, sample_rate=64.0, key_seed=3)
        scene = positive_scene(grid)
        # Same block boundaries on both sides: a product's rounding can depend on its shape.
        with mock.patch.object(sensor, "BLOCK_SAMPLES", 4 * plan.samples_per_bit):
            frame = decode.per_bit_spectra(sensor.synthesize(plan, scene), plan)
            block = sensor.synthesize(plan, scene, bit_range=(4, 8))
            assert decode.per_bit_spectra(block, plan).tobytes() == frame[4:8].tobytes()

    def test_decode_frame_rejects_a_partial_stream(self):
        grid = PixelGrid(2, 2)
        plan = build_plan(grid, channels=2, f1=2.0, bit_rate=1.0, sample_rate=64.0)
        block = sensor.synthesize(plan, positive_scene(grid), bit_range=(0, 2))
        with pytest.raises(PlanMismatch, match="2 bits"):
            decode.decode_frame(block, plan)


class TestOneLitPixel:
    """A single lit pixel decodes back to its own position and nowhere else."""

    def assert_single_pixel(self, plan, pixel):
        img = np.zeros((plan.grid.rows, plan.grid.columns))
        img[pixel[1] - 1, pixel[0] - 1] = 0.75
        stream = sensor.synthesize(plan, Scene(grid=plan.grid, irradiance=img))
        image = decode.decode_frame(stream, plan)
        assert np.max(np.abs(image.raw - img)) < 1e-9 * img.max()

    def test_static_plan(self):
        plan = build_plan(PixelGrid(4, 2), channels=4, f1=2.0, bit_rate=1.0, sample_rate=128.0)
        self.assert_single_pixel(plan, (2, 1))

    def test_hopped_plan(self):
        plan = build_plan(
            PixelGrid(4, 2),
            channels=4, f1=2.0, bit_rate=1.0, sample_rate=128.0, key_seed=8, hopping=True,
        )
        self.assert_single_pixel(plan, plan.grid.positions()[5])

    def test_fm_cdma_plan(self):
        plan = build_plan(
            PixelGrid(3, 1), mode=Mode.FM_CDMA, f1=4.0, bit_rate=1.0, sample_rate=64.0
        )
        self.assert_single_pixel(plan, (1, 1))


class TestCorrelate:
    def test_walsh_identity_brute_force(self):
        # The correlation the decoder computes by transform, (2 / W) (2 codes - 1) @ seq,
        # maps a sequence a * codes[j] to a on code j and to zero on every other code.
        book = codes.codebook(7)  # W = 8
        signed = 2.0 * book.codes - 1.0
        for j in range(book.num_codes):
            amplitude = 2.75
            seq = amplitude * book.codes[j].astype(np.float64)
            est = (2.0 / book.length) * (signed @ seq)
            expected = np.zeros(book.num_codes)
            expected[j] = amplitude
            assert np.allclose(est, expected, atol=1e-12)


    def test_transform_correlation_equals_signed_code_product(self):
        plan = build_plan(PixelGrid(9, 7), channels=3, f1=2.0, bit_rate=1.0, sample_rate=64.0,
                          key_seed=5, hopping=True)
        eq = np.random.default_rng(0).uniform(0.0, 2.0, (plan.code_length, plan.channel_count))
        signed = 2.0 * plan.codebook.codes[plan.code_row] - 1.0
        want = (2.0 / plan.code_length) * (signed @ eq)
        got = (2.0 / plan.code_length) * codes.hadamard_transform(eq)[1 + plan.code_row]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_noiseless_large_hopping_grid_decodes_exactly():
    # 65536 pixels in 16384 sets, W = 20480: the dense code matrix alone
    # would take 3.4 GB, the transform needs none.
    plan = large_grid_plan()
    scene = positive_scene(plan.grid, seed=4)
    image = decode.decode_frame(sensor.synthesize(plan, scene), plan)
    truth = scene.effective_irradiance()
    assert np.max(np.abs(image.raw - truth)) <= 1e-9 * truth.max()
    assert "codes" not in plan.codebook.__dict__


class TestRoundTrip:
    def assert_roundtrip(self, plan, scene, rel=1e-9):
        image = decode.decode_frame(sensor.synthesize(plan, scene), plan)
        expected = scene.effective_irradiance()
        got = image.normalized
        want = expected / expected.max()
        assert np.max(np.abs(got - want)) < rel * want.max()

    def test_noiseless_fdma_cdma(self):
        grid = PixelGrid(4, 4)
        plan = build_plan(
            grid, channels=2, f1=2.0, bit_rate=1.0, sample_rate=64.0, key_seed=3
        )
        self.assert_roundtrip(plan, positive_scene(grid))

    def test_raw_values_equal_gain_times_irradiance(self):
        grid = PixelGrid(4, 4)
        plan = build_plan(grid, channels=4, f1=2.0, bit_rate=1.0, sample_rate=128.0)
        scene = positive_scene(grid, seed=5)
        gain = 3.0
        stream = sensor.synthesize(plan, scene, DetectorModel(gain=gain))
        image = decode.decode_frame(stream, plan)
        assert np.allclose(image.raw, gain * scene.irradiance, rtol=1e-9)

    def test_monotonic_linearity(self):
        grid = PixelGrid(4, 2)
        plan = build_plan(grid, channels=4, f1=2.0, bit_rate=1.0, sample_rate=128.0)
        base = positive_scene(grid, seed=1).irradiance.copy()
        bumped = base.copy()
        bumped[1, 2] *= 2.0
        img_a = decode.decode_frame(sensor.synthesize(plan, Scene(grid=grid, irradiance=base)), plan)
        img_b = decode.decode_frame(
            sensor.synthesize(plan, Scene(grid=grid, irradiance=bumped)), plan
        )
        assert img_b.raw[1, 2] == pytest.approx(2.0 * img_a.raw[1, 2], rel=1e-9)
        mask = np.ones_like(base, dtype=bool)
        mask[1, 2] = False
        assert np.allclose(img_b.raw[mask], img_a.raw[mask], rtol=1e-9)

    def test_dual_pd_normalized_images_identical(self):
        grid = PixelGrid(4, 4)
        plan = build_plan(
            grid, channels=4, f1=2.0, bit_rate=1.0, sample_rate=128.0, key_seed=21
        )
        scene = positive_scene(grid, seed=2)
        pair = decode.decode_frame(sensor.capture_dual(plan, scene), plan)
        assert np.allclose(pair[0].normalized, pair[1].normalized, atol=1e-9)

    def test_active_overlapped_per_source_images(self):
        grid = PixelGrid(3, 3)
        plan = build_plan(
            grid,
            mode=Mode.ACTIVE_OVERLAPPED,
            frequencies=(3.0, 5.0, 7.0),
            bit_rate=1.0,
            sample_rate=64.0,
            key_seed=4,
        )
        rng = np.random.default_rng(9)
        maps = rng.uniform(0.05, 1.0, (3, 3, 3))
        scene = Scene(grid=grid, per_source=maps)
        images = decode.decode_frame(sensor.synthesize(plan, scene), plan)
        assert len(images) == 3
        reference = maps.max()
        for p, img in enumerate(images):
            assert np.allclose(img.normalized, maps[p] / reference, atol=1e-9)
        refs = {img.normalization_reference for img in images}
        assert len(refs) == 1  # normalized across the image set

    def test_sparse_active_pixel_grid(self):
        # Partially-filled grids: only the selected pixels are encoded, and
        # unselected positions decode to zero.
        pixels = ((1, 1), (3, 2), (4, 4), (2, 3), (4, 1))
        grid = PixelGrid(4, 4, active_pixels=pixels)
        plan = build_plan(
            grid, channels=2, f1=2.0, bit_rate=1.0, sample_rate=64.0,
            key_seed=77, hopping=True,
        )
        rng = np.random.default_rng(1)
        img = np.zeros((4, 4))
        for m, n in pixels:
            img[n - 1, m - 1] = rng.uniform(0.2, 1.0)
        scene = Scene(grid=grid, irradiance=img)
        recovered = decode.decode_frame(sensor.synthesize(plan, scene), plan)
        assert np.max(np.abs(recovered.normalized - img / img.max())) < 1e-9
        outside = recovered.values.copy()
        for m, n in pixels:
            outside[n - 1, m - 1] = 0.0
        assert np.all(outside == 0.0)

    def test_pink_noise_favors_higher_carrier(self):
        # 1/f noise: the same pixel decodes cleaner on carrier 8 f1 than f1.
        grid = PixelGrid(4, 1)
        plan = build_plan(grid, channels=4, f1=4.0, bit_rate=1.0, sample_rate=128.0)
        img = np.zeros((1, 4))
        img[0, 0] = 1.0  # member 0, carrier f1
        img[0, 3] = 1.0  # member 3, carrier 8 f1
        scene = Scene(grid=grid, irradiance=img)
        det = DetectorModel(pink_noise=(0.5, 1.0))
        clean = sensor.synthesize(plan, scene)
        lo_vals, hi_vals = [], []
        for seed in range(120):
            noisy = sensor.add_noise(clean, det, seed)
            image = decode.decode_frame(noisy, plan)
            lo_vals.append(image.raw[0, 0])
            hi_vals.append(image.raw[0, 3])
        snr_lo = np.mean(lo_vals) / np.std(lo_vals)
        snr_hi = np.mean(hi_vals) / np.std(hi_vals)
        assert snr_hi > snr_lo


#: Plans of the white-noise statistics test on an 8x8 grid at F = 64, and the side decoded.
_NOISE_STATISTICS_PLANS = {
    "passive-fdma-cdma": (dict(mode=Mode.PASSIVE_FDMA_CDMA, channels=4, f1=2.0), sensor.PD1),
    "hopping-passive-fdma-cdma": (
        dict(mode=Mode.PASSIVE_FDMA_CDMA, channels=4, f1=2.0, hopping=True), sensor.PD1
    ),
    "hopping-passive-fdma-cdma-pd2": (
        dict(mode=Mode.PASSIVE_FDMA_CDMA, channels=4, f1=2.0, hopping=True), sensor.PD2
    ),
    "fm-cdma": (dict(mode=Mode.FM_CDMA, f1=8.0), sensor.PD1),
    "active-overlapped": (
        dict(mode=Mode.ACTIVE_OVERLAPPED, frequencies=(5.0, 7.0, 11.0)), sensor.PD1
    ),
    "active-overlapped-pd2": (
        dict(mode=Mode.ACTIVE_OVERLAPPED, frequencies=(5.0, 7.0, 11.0)), sensor.PD2
    ),
    "plain-cdma": (dict(mode=Mode.PLAIN_CDMA), sensor.PD1),
    "plain-cdma-pd2": (dict(mode=Mode.PLAIN_CDMA), sensor.PD2),
}


@pytest.mark.parametrize("case", list(_NOISE_STATISTICS_PLANS))
def test_decoded_white_noise_has_the_predicted_std_and_no_bias(case):
    # At high per-bit SNR a pixel reads bit w's carrier bin with std
    # sigma sqrt(F / 2) c / g_w, g_w the unit-carrier gain of the carrier its
    # slot rides in bit w and c = sqrt(2) at a real bin (0 or F / 2), where
    # all of the noise is in one part; the (2 / W) signed-code correlation
    # gives it std sigma sqrt(2 F / W) rms_w(c / g_w).
    sigma, f_count, trials = 1.0, 64, 120
    kwargs, side = _NOISE_STATISTICS_PLANS[case]
    grid = PixelGrid(8, 8)
    plan = build_plan(grid, bit_rate=1.0, sample_rate=float(f_count), key_seed=5, **kwargs)
    real_bin = (plan.carrier_bins == 0) | (2 * plan.carrier_bins == f_count)
    spread = np.where(real_bin, np.sqrt(2.0), 1.0) / plan.carrier_bin_gains
    # Bit 0 is ON in every code, so a complement-coded PD2 is dark there and
    # the decoder reads that bit as 0: its pixels are unbiased, and their
    # noise sums over bits 1 to W - 1 only.
    dark_pd2 = side == sensor.PD2 and plan.mode in (Mode.PLAIN_CDMA, Mode.ACTIVE_OVERLAPPED)
    hops = plan.hop_schedule[1:] if dark_pd2 else plan.hop_schedule
    rms = np.sqrt(np.sum(spread[hops] ** 2, axis=0) / plan.code_length)  # by slot
    scale = sigma * np.sqrt(2.0 * f_count / plan.code_length)
    if plan.mode is Mode.ACTIVE_OVERLAPPED:  # one image per source slot
        scene = Scene(grid, per_source=np.ones((plan.channel_count, 8, 8)))
        want = np.stack([np.full((8, 8), scale * r) for r in rms])
    else:
        scene = Scene(grid, irradiance=np.ones((8, 8)))
        want = plan.image(scale * rms[plan.member_index])[None]
    rng = np.random.default_rng(17)
    detectors = (DetectorModel(noise_sigma=sigma),) * (1 + (side == sensor.PD2))
    decoded = (decode.decode_capture(plan, scene, detectors, rng) for _ in range(trials))
    # (trials, images, rows, columns), the images of the tested side
    raw = np.array(
        [[image.raw for image in decode.image_list(d) if image.pd_side == side] for d in decoded]
    )
    ratio = float(np.sqrt(np.mean((raw.std(axis=0, ddof=1) / want) ** 2)))
    assert ratio == pytest.approx(1.0, abs=0.05)
    standard_error = np.sqrt(np.mean(want**2) / raw.size)
    assert abs(np.mean(raw - 1.0)) < 3.0 * standard_error


def test_decode_report_flags_wrong_truth(tmp_path):
    grid = PixelGrid(4, 4)
    plan = build_plan(grid, channels=2, f1=2.0, bit_rate=1.0, sample_rate=64.0, key_seed=1)
    scene = positive_scene(grid)
    stream = sensor.synthesize(plan, scene)
    image = decode.decode_frame(stream, plan)
    good = decode.decode_report(image, plan, truth=scene.irradiance)
    assert good["images"][0]["truth_correlation_ok"]
    wrong = decode.decode_report(image, plan, truth=scene.irradiance[::-1].copy())
    assert not wrong["images"][0]["truth_correlation_ok"]
    path = tmp_path / "report.json"
    decode.write_decode_report(good, path)
    assert "caossim-decode-report" in path.read_text()


@st.composite
def noiseless_captures(draw):
    """Random valid plan, a positive scene, its truth maps and a detector count."""
    mode = draw(st.sampled_from(list(Mode)))
    grid = PixelGrid(draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    channels = draw(st.integers(1, 4))
    timing = {
        Mode.PASSIVE_FDMA_CDMA: dict(channels=channels, f1=2.0, sample_rate=128.0),
        Mode.FM_CDMA: dict(f1=4.0, sample_rate=64.0),
        Mode.FM_TDMA: dict(f1=4.0, sample_rate=64.0),
        Mode.PLAIN_CDMA: dict(sample_rate=64.0),
        Mode.ACTIVE_OVERLAPPED: dict(frequencies=(3.0, 5.0, 7.0, 9.0)[:channels], sample_rate=64.0),
    }[mode]
    # Hopping only over two or more carriers, and a frame index only where
    # the code shuffle is on: a key, and two or more code sets to shuffle.
    carriers = channels if mode in (Mode.PASSIVE_FDMA_CDMA, Mode.ACTIVE_OVERLAPPED) else 1
    sets = -(-grid.pixel_count // carriers) if mode is Mode.PASSIVE_FDMA_CDMA else grid.pixel_count
    key_seed = draw(st.integers(0, 2**32))
    code_shuffle = key_seed and mode is not Mode.FM_TDMA and sets > 1
    plan = build_plan(
        grid,
        mode=mode,
        bit_rate=1.0,
        key_seed=key_seed,
        hopping=carriers > 1 and draw(st.booleans()),
        frame_index=draw(st.integers(0, 5)) if code_shuffle else 0,
        **timing,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if mode is Mode.ACTIVE_OVERLAPPED:
        maps = rng.uniform(0.05, 1.0, (plan.channel_count, grid.rows, grid.columns))
        scene, truth = Scene(grid=grid, per_source=maps), list(maps)
    else:
        img = rng.uniform(0.05, 1.0, (grid.rows, grid.columns))
        scene, truth = Scene(grid=grid, irradiance=img), [img]
    return plan, scene, truth, draw(st.integers(1, 2))


@settings(max_examples=300, deadline=None)
@given(noiseless_captures())
def test_noiseless_decode_matches_scene(case):
    # Two detectors give PD1's images, then PD2's, in one flat tuple.
    plan, scene, truth, count = case
    gain = 1.5
    detectors = (DetectorModel(gain=gain),) * count
    images = decode.image_list(decode.decode_capture(plan, scene, detectors, seed=3))
    sides = [side for side in (sensor.PD1, sensor.PD2)[:count] for _ in truth]
    assert len(images) == len(sides)
    for image, side, expected in zip(images, sides, truth * count):
        assert isinstance(image, decode.RecoveredImage)
        assert image.pd_side == side
        assert np.max(np.abs(image.raw - gain * expected)) <= 1e-9 * gain * expected.max()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_sample_names_its_bit(bad):
    grid = PixelGrid(4, 4)
    plan = build_plan(grid, channels=2, f1=2.0, bit_rate=1.0, sample_rate=64.0, key_seed=1)
    stream = sensor.synthesize(plan, positive_scene(grid))
    samples = stream.samples.copy()
    samples[5 * plan.samples_per_bit + 3] = bad
    stream = replace(stream, samples=samples)
    with pytest.raises(ConfigError, match="bit 5 "):
        decode.per_bit_spectra(stream, plan)
    with pytest.raises(ConfigError, match="bit 5 "):
        decode.decode_frame(stream, plan)


def draw_spectra_plan(draw):
    """A random valid plan on its mode's square, sine or static carriers, over F from 20 to 300."""
    mode = draw(st.sampled_from(list(Mode)))
    f_count = draw(st.integers(20, 300))
    top = (f_count - 1) // 2  # highest bin below Nyquist
    multichannel = mode in (Mode.PASSIVE_FDMA_CDMA, Mode.ACTIVE_OVERLAPPED)
    channels = draw(st.integers(1, 4)) if multichannel else 1
    if mode is Mode.ACTIVE_OVERLAPPED:
        bins = st.lists(st.integers(1, top), min_size=channels, max_size=channels, unique=True)
        timing = dict(frequencies=tuple(map(float, draw(bins))))
    elif mode is Mode.PLAIN_CDMA:
        timing = {}
    else:
        f1 = draw(st.integers(1, top >> (channels - 1)))
        timing = dict(channels=channels, f1=float(f1))
    try:
        plan = build_plan(
            PixelGrid(draw(st.integers(1, 4)), draw(st.integers(1, 4))),
            mode=mode,
            bit_rate=1.0,
            sample_rate=float(f_count),
            key_seed=draw(st.integers(0, 2**32)),
            hopping=channels > 1 and draw(st.booleans()),
            **timing,
        )
    except TimingError as refused:
        # Square harmonics of one carrier, folded or not, reach another's bin.
        if "own-bin magnitude" not in str(refused):
            raise
        reject()
    return plan


@st.composite
def spectra_cases(draw):
    """A random valid plan on square, sine or static carriers and a noisy stream of one dtype."""
    plan = draw_spectra_plan(draw)
    mode, channels = plan.mode, plan.channel_count
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if mode is Mode.ACTIVE_OVERLAPPED:
        maps = rng.uniform(0.05, 1.0, (channels, plan.grid.rows, plan.grid.columns))
        scene = Scene(grid=plan.grid, per_source=maps)
    else:
        scene = positive_scene(plan.grid, seed=int(rng.integers(2**32)))
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    stream = sensor.synthesize(plan, scene, dtype=dtype)
    stream = sensor.add_noise(stream, DetectorModel(noise_sigma=0.1), seed=rng)
    block_bits = draw(st.integers(1, plan.code_length))
    return plan, stream, block_bits


@settings(max_examples=200, deadline=None)
@given(spectra_cases())
def test_per_bit_spectra_are_rfft_magnitudes_at_the_carrier_bins(case):
    plan, stream, block_bits = case
    f_count = plan.samples_per_bit
    want = np.abs(np.fft.rfft(stream.per_bit().astype(np.float64), axis=1))[:, plan.carrier_bins]
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block_bits * f_count):
        got = decode.per_bit_spectra(stream, plan)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
        # A block read alone gives its rows of the frame's spectra, bit for bit.
        start = block_bits * (plan.code_length // block_bits // 2)
        stop = min(start + block_bits, plan.code_length)
        samples = stream.samples[start * f_count : stop * f_count].copy()
        block = replace(stream, samples=samples, bits=stop - start, first_bit=start)
        assert decode.per_bit_spectra(block, plan).tobytes() == got[start:stop].tobytes()


def longdouble_carriers(plan):
    """Reference unit carriers in np.longdouble, the angle reduced as (k n) mod F first."""
    f_count, bins = plan.samples_per_bit, plan.carrier_bins[:, None]
    ticks = (bins * np.arange(f_count, dtype=np.int64)) % f_count
    waveform = plan.mode.waveform
    if waveform == "none":
        return np.ones(ticks.shape, dtype=np.longdouble)
    if waveform == "square":
        return (2 * ticks < f_count).astype(np.longdouble)
    two_pi = 8 * np.arctan(np.longdouble(1))
    phases = np.array(plan.carrier_phases, dtype=np.longdouble)[:, None]
    return (1 + np.sin(two_pi * ticks.astype(np.longdouble) / f_count + phases)) / 2


def assert_exact_carriers(plan):
    """Each carrier row's periods agree bit for bit, and every row is near its long-double value."""
    periods = plan.carrier_matrix.reshape(plan.channel_count, -1, plan.carrier_period)
    assert (periods == periods[:, :1]).all()
    assert np.max(np.abs(plan.carrier_matrix - longdouble_carriers(plan))) <= 5e-14


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_carrier_repeats_every_carrier_period(data):
    # The identity the fold rests on: g = F / L divides every carrier bin, and
    # each unit carrier's g periods agree bit for bit, so synthesize tiles one
    # period and the gains read the folded carriers as the rfft reads the
    # whole bit.
    plan = draw_spectra_plan(data.draw)
    f_count, period, p = plan.samples_per_bit, plan.carrier_period, plan.channel_count
    assert period == len(plan.period_basis) and f_count % period == 0
    assert np.all(plan.carrier_bins % (f_count // period) == 0)
    assert_exact_carriers(plan)
    rfft = np.abs(np.fft.rfft(plan.carrier_matrix, axis=1))[np.arange(p), plan.carrier_bins]
    assert np.max(np.abs(plan.carrier_bin_gains - rfft)) <= 1e-12 * rfft.max()


#: Plans at the fold's extremes, with the carrier period L each must have.
FOLD_PLANS = {
    # g = 1: bins 3 and 5 are coprime with F = 64, so each bit is one period.
    "coprime-bins": (
        lambda: build_plan(
            PixelGrid(3, 2), mode=Mode.ACTIVE_OVERLAPPED, frequencies=(3.0, 5.0),
            bit_rate=1.0, sample_rate=64.0, key_seed=3,
        ),
        64,
    ),
    # L = 1: plain CDMA reads bin 0, each bit's sum.
    "plain-cdma": (
        lambda: build_plan(PixelGrid(3, 2), mode=Mode.PLAIN_CDMA, bit_rate=1.0, sample_rate=64.0),
        1,
    ),
    # g = 512: square carriers at bins 512 and 1024 of F = 4096 repeat every 8 samples.
    "large-g": (
        lambda: build_plan(PixelGrid(4, 4), channels=2, f1=512.0, bit_rate=1.0, sample_rate=4096.0),
        8,
    ),
}


CARRIER_PLANS = {
    **{case: make for case, (make, _) in FOLD_PLANS.items()},
    **{name: presets.preset_config(name).build_plan for name in presets.PRESET_NAMES},
    "exp3-active-full-scale": presets.preset_config("exp3-active", full_scale=True).build_plan,
}


@pytest.mark.parametrize("case", CARRIER_PLANS)
def test_carriers_are_exactly_periodic_and_near_a_longdouble_reference(case):
    assert_exact_carriers(CARRIER_PLANS[case]())


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("case", FOLD_PLANS)
def test_folded_spectra_are_rfft_magnitudes_at_the_period_extremes(case, dtype):
    make, period = FOLD_PLANS[case]
    plan = make()
    assert plan.carrier_period == period
    if plan.mode is Mode.ACTIVE_OVERLAPPED:
        maps = np.random.default_rng(1).uniform(0.05, 1.0, (2, 2, 3))
        scene = Scene(grid=plan.grid, per_source=maps)
    else:
        scene = positive_scene(plan.grid, seed=1)
    stream = sensor.synthesize(plan, scene, dtype=dtype)
    stream = sensor.add_noise(stream, DetectorModel(noise_sigma=0.1), seed=2)
    assert stream.samples.dtype == dtype
    want = np.abs(np.fft.rfft(stream.per_bit().astype(np.float64), axis=1))[:, plan.carrier_bins]
    got = decode.per_bit_spectra(stream, plan)  # the whole frame is one block
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def bit_block_generator(plan, scene, bits, order, closed):
    """The plan's frame as blocks of `bits` bits, yielded in the given block order."""
    try:
        for i in order:
            start = i * bits
            stop = min(start + bits, plan.code_length)
            yield sensor.synthesize(plan, scene, bit_range=(start, stop))
    finally:
        closed.append(True)


@pytest.mark.parametrize(
    "order,message",
    [
        ((0, 2), "block starts at bit 8, expected bit 4"),  # skips block 1
        ((0, 1, 1, 2), "block starts at bit 4, expected bit 8"),  # repeats block 1
        ((1, 2), "block starts at bit 4, expected bit 0"),  # misses the first block
    ],
)
def test_decode_frame_rejects_blocks_out_of_order(order, message):
    grid = PixelGrid(4, 4)
    plan = build_plan(grid, channels=2, f1=2.0, bit_rate=1.0, sample_rate=64.0, key_seed=1)
    assert plan.code_length == 12
    closed = []
    blocks = bit_block_generator(plan, positive_scene(grid), 4, order, closed)
    with pytest.raises(PlanMismatch, match=message):
        decode.decode_frame(blocks, plan)
    assert closed == [True]
    whole = bit_block_generator(plan, positive_scene(grid), 4, range(3), [])
    assert decode.decode_frame(whole, plan).pd_side == sensor.PD1


def test_decode_frame_rejects_a_block_of_the_other_side():
    grid = PixelGrid(4, 4)
    plan = build_plan(grid, channels=2, f1=2.0, bit_rate=1.0, sample_rate=64.0, key_seed=1)
    scene = positive_scene(grid)
    blocks = [
        sensor.synthesize(plan, scene, pd_side=side, bit_range=(start, start + 6))
        for side, start in ((sensor.PD1, 0), (sensor.PD2, 6))
    ]
    with pytest.raises(PlanMismatch, match="pd2 block in a pd1 stream"):
        decode.decode_frame((block for block in blocks), plan)


def test_decode_frame_rejects_an_empty_block_generator():
    plan = build_plan(PixelGrid(2, 2), channels=2, f1=2.0, bit_rate=1.0, sample_rate=64.0)
    with pytest.raises(PlanMismatch, match="stream has 0 bits"):
        decode.decode_frame((block for block in ()), plan)


def test_zero_bit_stream_reads_no_spectra_and_is_refused_by_length():
    plan = build_plan(PixelGrid(2, 2), channels=2, f1=2.0, bit_rate=1.0, sample_rate=64.0)
    stream = sensor.SampleStream(
        rate=plan.sample_rate, samples=np.zeros(0), bits=0, samples_per_bit=plan.samples_per_bit
    )
    assert decode.per_bit_spectra(stream, plan).shape == (0, plan.channel_count)
    with pytest.raises(PlanMismatch, match="stream has 0 bits"):
        decode.decode_frame(stream, plan)


def test_decode_frame_reads_a_list_an_iterator_and_a_generator_alike():
    grid = PixelGrid(4, 4)
    plan = build_plan(grid, channels=2, f1=2.0, bit_rate=1.0, sample_rate=64.0, key_seed=1)
    scene = positive_scene(grid)
    blocks = [sensor.synthesize(plan, scene, bit_range=(start, start + 4)) for start in (0, 4, 8)]
    want = decode.decode_frame(sensor.synthesize(plan, scene), plan).raw.tobytes()
    for feed in (blocks, iter(blocks), (block for block in blocks)):
        assert decode.decode_frame(feed, plan).raw.tobytes() == want


# ---------------------------------------------------------------------------
# decode_capture: the streaming capture -> decode path
# ---------------------------------------------------------------------------


def assert_bitwise_equal(got, want):
    """decode_frame-shaped results (image, image list or dual pair) are bit for bit equal."""
    assert type(got) is type(want)
    if isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_bitwise_equal(g, w)
        return
    assert got.raw.tobytes() == want.raw.tobytes()
    assert got.values.tobytes() == want.values.tobytes()
    assert got.normalization_reference == want.normalization_reference
    for name in ("pd_side", "source_index"):
        assert getattr(got, name) == getattr(want, name)


def materialized_decode(plan, scene, detectors, seed, dtype):
    streams = [
        whole_stream_capture(plan, scene, det, side_seed, side, dtype)
        for det, side_seed, side in sensor.capture_sides(detectors, seed)
    ]
    return decode.decode_frame(streams[0] if len(streams) == 1 else sensor.DualStreams(*streams), plan)


def assert_streaming_matches(plan, scene, detectors, seed, dtype=np.float64):
    got = decode.decode_capture(plan, scene, detectors, seed, dtype)
    assert_bitwise_equal(got, materialized_decode(plan, scene, detectors, seed, dtype))


@st.composite
def noisy_captures(draw):
    """A random plan and scene, one or two detectors, a seed, dtype and block size."""
    plan, scene, _, _ = draw(noiseless_captures())
    detectors = tuple(
        DetectorModel(
            gain=1.5,
            noise_sigma=draw(st.sampled_from((0.0, 0.05, 0.5))),
            adc_bits=draw(st.sampled_from((None, 6, 12))),
            adc_fullscale=draw(st.sampled_from((4.0, 100.0))),
            shot_noise=draw(st.sampled_from((0.0, 0.01))),
        )
        for _ in range(draw(st.integers(1, 2)))
    )
    f_count = plan.samples_per_bit
    block = draw(st.sampled_from((sensor.BLOCK_SAMPLES, f_count, 3 * f_count, 5 * f_count - 1)))
    dtype = draw(st.sampled_from((np.float64, np.float32)))
    return plan, scene, detectors, draw(st.integers(0, 2**32)), dtype, block


@settings(max_examples=200, deadline=None)
@given(noisy_captures())
def test_decode_capture_matches_materialized_decode(case):
    plan, scene, detectors, seed, dtype, block = case
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block):
        assert_streaming_matches(plan, scene, detectors, seed, dtype)


@settings(max_examples=100, deadline=None)
@given(noisy_captures())
def test_block_written_stream_files_equal_a_whole_stream_write(case):
    plan, scene, detectors, seed, dtype, block = case
    with tempfile.TemporaryDirectory() as out, mock.patch.object(sensor, "BLOCK_SAMPLES", block):
        decode.decode_capture(plan, scene, detectors, seed, dtype, out_dir=out)
        for det, side_seed, side in sensor.capture_sides(detectors, seed):
            want = whole_stream_capture(plan, scene, det, side_seed, side, dtype)
            sensor.write_stream(want, os.path.join(out, "whole"))
            written = os.path.join(out, f"stream_{side}")
            assert file_bytes(written) == file_bytes(os.path.join(out, "whole"))
            back = sensor.read_stream(written)
            assert back.samples.dtype == np.float32
            assert back.samples.tobytes() == want.samples.astype("<f4").tobytes()

            blocks = list(sensor.capture_blocks(plan, scene, det, side_seed, side, dtype))
            shuffled = os.path.join(out, f"shuffled_{side}")
            for late in blocks[1:]:  # a block before the ones ahead of it
                with pytest.raises(LengthMismatch):
                    sensor.write_stream(late, shuffled)
            sensor.write_stream(blocks[0], shuffled)
            gap = replace(blocks[0], first_bit=blocks[0].bits + 1)
            for late in [*blocks[2:], gap]:  # a block after a missing one
                with pytest.raises(LengthMismatch):
                    sensor.write_stream(late, shuffled)


@pytest.mark.parametrize("count", [1, 2])
def test_decode_capture_shot_and_pink_noise(count):
    grid = PixelGrid(5, 4)
    plan = build_plan(
        grid, channels=3, f1=2.0, bit_rate=1.0, sample_rate=64.0, key_seed=4, hopping=True
    )
    detector = DetectorModel(
        noise_sigma=0.05, shot_noise=0.02, pink_noise=(0.1, 1.0), adc_bits=12,
        adc_fullscale=30.0,
    )
    with mock.patch.object(sensor, "BLOCK_SAMPLES", 3 * plan.samples_per_bit):
        assert_streaming_matches(plan, positive_scene(grid), (detector,) * count, seed=11)


def test_decode_capture_multi_block_preset():
    # Desk exp1-fmcdma: W = 1280 bits at F = 4096 spans five 256-bit blocks.
    config = presets.preset_config("exp1-fmcdma")
    plan = config.build_plan()
    assert plan.code_length > sensor.BLOCK_SAMPLES // plan.samples_per_bit
    scene = config.build_scene(plan.grid)
    assert_streaming_matches(plan, scene, (config.detector.build(),), config.noise_seed)


def prefetching_capture():
    """Plan, scene and noisy detector of a four-block capture, and the BLOCK_SAMPLES to patch in."""
    grid = PixelGrid(4, 4)
    plan = build_plan(grid, channels=2, f1=2.0, bit_rate=1.0, sample_rate=64.0, key_seed=2)
    block = (plan.code_length // 4) * plan.samples_per_bit
    return plan, positive_scene(grid), DetectorModel(noise_sigma=0.1), block


def test_non_finite_block_mid_frame_ends_the_noise_thread():
    plan, scene, detector, block = prefetching_capture()
    real_synthesize = sensor.synthesize

    def nan_in_third_block(*args, bit_range, **kwargs):
        stream = real_synthesize(*args, bit_range=bit_range, **kwargs)
        if bit_range[0] == 2 * block // plan.samples_per_bit:
            stream.samples[0] = np.nan
        return stream

    before = threading.active_count()
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block), \
            mock.patch.object(sensor, "synthesize", nan_in_third_block):
        third = 2 * block // plan.samples_per_bit
        with pytest.raises(ConfigError, match=f"non-finite samples in bit {third} ") as raised:
            decode.decode_capture(plan, scene, (detector,), seed=4)
    # Checked while the traceback, and every frame it holds, is still alive.
    assert threading.active_count() == before
    assert raised.traceback


def test_noise_thread_error_reaches_the_caller():
    # Chunks of half a block: the third of eight chunk draws fails. The draws
    # already submitted behind it, at most one per other ring buffer, still
    # run before the worker ends, and none runs on the main thread.
    plan, scene, detector, block = prefetching_capture()
    draws, real_white_noise = [], sensor.white_noise

    def fail_on_third_draw(rng, sigma, n, out):
        draws.append(threading.current_thread())
        if len(draws) == 3:
            raise RuntimeError("draw failed")
        return real_white_noise(rng, sigma, n, out)

    before = threading.active_count()
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block), \
            mock.patch.object(sensor, "NOISE_CHUNK", block // 2), \
            mock.patch.object(sensor, "white_noise", fail_on_third_draw):
        with pytest.raises(RuntimeError, match="draw failed") as raised:
            decode.decode_capture(plan, scene, (detector,), seed=4)
    assert threading.active_count() == before
    assert raised.traceback
    assert 3 <= len(draws) <= 2 + sensor.NOISE_RING and threading.main_thread() not in draws


# ---------------------------------------------------------------------------
# Stream files: decoded block by block from the file
# ---------------------------------------------------------------------------


@st.composite
def file_captures(draw):
    """A random plan, a positive scene on its grid, one or two sides, and a
    BLOCK_SAMPLES whose bit blocks leave a shorter last block when W allows."""
    plan = draw(random_plans())
    grid = plan.grid
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if plan.mode is Mode.ACTIVE_OVERLAPPED:
        shape = (plan.channel_count, grid.rows, grid.columns)
        scene = Scene(grid=grid, per_source=rng.uniform(0.05, 1.0, shape))
    else:
        scene = Scene(grid=grid, irradiance=rng.uniform(0.05, 1.0, (grid.rows, grid.columns)))
    w, f_count = plan.code_length, plan.samples_per_bit
    chunk = draw(st.sampled_from([bits for bits in range(2, w) if w % bits] or [w]))
    block = chunk * f_count + draw(st.integers(0, f_count - 1))
    return plan, scene, draw(st.integers(1, 2)), block


@settings(max_examples=100, deadline=None)
@given(file_captures())
def test_stream_file_decodes_as_its_in_memory_float32_stream(case):
    plan, scene, count, block = case
    sides = (sensor.PD1, sensor.PD2)[:count]
    with tempfile.TemporaryDirectory() as out, mock.patch.object(sensor, "BLOCK_SAMPLES", block):
        streams, files = [], []
        for side in sides:
            stream = sensor.synthesize(plan, scene, pd_side=side, dtype=np.float32)
            sensor.write_stream(stream, os.path.join(out, side))
            streams.append(stream)
            files.append(sensor.read_stream(os.path.join(out, side)))

        def decoded(parts):
            return decode.decode_frame(parts[0] if count == 1 else sensor.DualStreams(*parts), plan)

        assert_bitwise_equal(decoded(files), decoded(streams))


def test_non_finite_sample_in_a_stream_file_names_its_frame_bit(tmp_path):
    plan, scene, _, block = prefetching_capture()
    f_count = plan.samples_per_bit
    bit = 2 * block // f_count + 1  # the second bit of the third of four blocks
    stream = sensor.synthesize(plan, scene, dtype=np.float32)
    stream.samples[bit * f_count + 3] = np.nan
    sensor.write_stream(stream, tmp_path / "s")
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block):
        with pytest.raises(ConfigError, match=f"non-finite samples in bit {bit} "):
            decode.decode_frame(sensor.read_stream(tmp_path / "s"), plan)


def test_stream_file_of_another_bit_length_is_refused_before_a_read(tmp_path):
    # One "bit" of the whole frame would be one block holding the whole file.
    plan, scene, _, _ = prefetching_capture()
    stream = sensor.synthesize(plan, scene, dtype=np.float32)
    one_bit = replace(stream, bits=1, samples_per_bit=stream.samples.size)
    sensor.write_stream(one_bit, tmp_path / "s")
    with mock.patch.object(np, "fromfile", side_effect=AssertionError("read")):
        with pytest.raises(PlanMismatch, match=f"stream is 1 x {stream.samples.size} samples"):
            decode.decode_frame(sensor.read_stream(tmp_path / "s"), plan)


def write_in_blocks(stream, base):
    """write_stream of each two-bit block of stream, in order."""
    f_count = stream.samples_per_bit
    with mock.patch.object(sensor, "BLOCK_SAMPLES", 2 * f_count):
        for start, stop in sensor.bit_blocks(stream.bits, f_count):
            samples = stream.samples[start * f_count : stop * f_count]
            block = replace(stream, samples=samples, bits=stop - start, first_bit=start)
            sensor.write_stream(block, base)


def report_of(grid):
    plan = build_plan(grid, channels=2, f1=2.0, bit_rate=1.0, sample_rate=32.0)
    scene = positive_scene(grid)
    return decode.decode_report(decode.decode_frame(sensor.synthesize(plan, scene), plan), plan)


#: name -> (write, read, longer, shorter): each written over the other must
#: read back as a fresh write of it, with no stale tail.
IN_PLACE_FILES = {
    "stream": (
        write_in_blocks,
        file_bytes,
        sensor.SampleStream(123456.789, np.arange(80.0), 10, 8, sensor.PD2, 0.12345678),
        sensor.SampleStream(8.0, np.ones(12), 3, 4),
    ),
    "plan.json": (
        plan_mod.save_plan,
        Path.read_bytes,
        build_plan(PixelGrid(3, 2, ((1, 1), (2, 2))), frequencies=(5.0, 10.0), sample_rate=40.0,
                   bit_rate=1.0, key_seed=987654321),
        build_plan(PixelGrid(1, 1), sample_rate=8.0, bit_rate=1.0, f1=1.0),
    ),
    "decode_report.json": (
        decode.write_decode_report,
        Path.read_bytes,
        report_of(PixelGrid(4, 3)),
        report_of(PixelGrid(2, 2)),
    ),
    "pgm": (
        scene_mod.write_image_pgm,
        Path.read_bytes,
        np.random.default_rng(1).uniform(0.1, 1.0, (5, 7)),
        np.full((2, 3), 0.5),
    ),
    "csv": (
        scene_mod.write_image_csv,
        Path.read_bytes,
        np.random.default_rng(2).uniform(0.1, 1.0, (5, 7)),
        np.full((2, 3), 0.5),
    ),
}


@pytest.mark.parametrize("name", IN_PLACE_FILES)
def test_files_are_overwritten_in_place_as_a_fresh_write(tmp_path, name):
    write, read, longer, shorter = IN_PLACE_FILES[name]
    fresh = []
    for i, content in enumerate((longer, shorter)):
        write(content, tmp_path / f"fresh{i}")
        fresh.append(read(tmp_path / f"fresh{i}"))
    files = [f if name == "stream" else [f] for f in fresh]  # a stream is two files
    assert all(len(a) > len(b) for a, b in zip(*files))
    for first, second in ((0, 1), (1, 0)):
        path = tmp_path / f"over{first}"
        write((longer, shorter)[first], path)
        write((longer, shorter)[second], path)
        assert read(path) == fresh[second]


def test_block_pipeline_holds_one_block_at_a_time(tmp_path):
    # F = 4096 folds onto a 64-sample carrier period, so every per-block
    # temporary but the block itself is small; 200 code sets of 20x20 pixels on
    # two carriers take W = 256, so 16 blocks of 16 bits, 256 KiB of float32
    # each. A block dropped only once the next one exists shows as a peak of
    # two blocks.
    plan = build_plan(PixelGrid(20, 20), channels=2, f1=64.0, bit_rate=1.0, sample_rate=4096.0)
    assert plan.carrier_period == 64
    scene = Scene(grid=plan.grid, irradiance=np.ones((20, 20)))
    block = 16 * plan.samples_per_bit
    block_bytes = block * np.dtype(np.float32).itemsize
    plan.period_carriers, plan.period_basis, plan.carrier_bin_gains  # kept by the plan

    def traced_peak(run, *args):
        tracemalloc.start()
        try:
            run(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with mock.patch.object(sensor, "BLOCK_SAMPLES", block):
        detectors = (DetectorModel(),)
        capture = traced_peak(decode.decode_capture, plan, scene, detectors, 0, np.float32, tmp_path)
        stream = sensor.read_stream(tmp_path / "stream_pd1")
        assert stream.bits == plan.code_length == 16 * 16
        assert traced_peak(decode.decode_frame, stream, plan) < 1.5 * block_bytes
    assert capture < 1.5 * block_bytes


def test_decode_capture_rejects_three_detectors():
    grid = PixelGrid(2, 2)
    plan = build_plan(grid, channels=2, f1=2.0, bit_rate=1.0, sample_rate=32.0)
    with pytest.raises(ConfigError):
        decode.decode_capture(plan, positive_scene(grid), (DetectorModel(),) * 3)


def test_image_correlation_rejects_a_wrong_shape_naming_both():
    grid = PixelGrid(4, 3)
    plan = build_plan(grid, channels=2, f1=2.0, bit_rate=1.0, sample_rate=64.0, key_seed=1)
    image = decode.decode_frame(sensor.synthesize(plan, positive_scene(grid)), plan)
    with pytest.raises(ConfigError, match="a 3x4 image with a 4x3 one"):
        decode.image_correlation(image, np.ones((4, 3)))
    with pytest.raises(ConfigError, match="3x4 \\+ 3x4 image with a 3x4 one"):
        decode.image_correlation([image, image], image)
    with pytest.raises(ConfigError):
        decode.decode_report(image, plan, truth=np.ones((4, 3)))
    assert decode.image_correlation([image, image], [image.raw, image.raw]) == pytest.approx(1.0)
    assert decode.image_correlation(image, np.ones((3, 4))) == 0.0
