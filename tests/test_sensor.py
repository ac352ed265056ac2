import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caossim import presets, sensor
from caossim.errors import ConfigError, DimensionMismatch, LengthMismatch, PlanMismatch
from caossim.plan import Mode, PixelGrid, build_plan
from caossim.scene import DetectorModel, Scene
from test_plan import random_plans


def make_plan(grid=None, **kwargs):
    defaults = dict(bit_rate=1.0, sample_rate=32.0)
    if "frequencies" not in kwargs:
        defaults.update(channels=2, f1=2.0)  # the default carriers
    defaults.update(kwargs)
    return build_plan(grid or PixelGrid(2, 2), **defaults)


def uniform_scene(grid, value=1.0):
    return Scene(grid=grid, irradiance=np.full((grid.rows, grid.columns), value))


class TestCarrier:
    def test_square_single_cycle_half_on(self):
        plan = make_plan(channels=1, f1=1.0, sample_rate=16.0)
        wave = sensor.carrier_matrix(plan)[0]
        assert np.all(wave[:8] == 1.0)
        assert np.all(wave[8:] == 0.0)

    def test_square_mean_is_half(self):
        plan = make_plan(channels=3, f1=2.0, sample_rate=64.0)
        waves = sensor.carrier_matrix(plan)
        assert np.allclose(waves.mean(axis=1), 0.5, atol=0)

    def test_square_bin_magnitude_matches_fourier_coefficient(self):
        # Closed-form DFT of a sampled 0/1 square at its own bin is
        # k / sin(pi k / F); with heavy oversampling that approaches F / pi.
        plan = make_plan(
            grid=PixelGrid(1, 1), channels=1, f1=1.0, bit_rate=1.0, sample_rate=2.0**20
        )
        wave = sensor.carrier_matrix(plan)[0]
        f_count = plan.samples_per_bit
        magnitude = abs(np.fft.rfft(wave)[1])
        assert magnitude == pytest.approx(1.0 / np.sin(np.pi / f_count), rel=1e-12)
        assert magnitude == pytest.approx(f_count / np.pi, rel=1e-9)

    def test_sine_carrier_range_and_bin(self):
        plan = make_plan(
            grid=PixelGrid(1, 1),
            mode=Mode.ACTIVE_OVERLAPPED,
            frequencies=(3.0, 5.0),
            bit_rate=1.0,
            sample_rate=64.0,
            key_seed=9,
        )
        waves = sensor.carrier_matrix(plan)
        assert waves.min() >= 0.0 and waves.max() <= 1.0
        spectrum = np.fft.rfft(waves[0])
        assert abs(spectrum[3]) == pytest.approx(64 / 4, rel=1e-12)


class TestSynthesize:
    def test_single_pixel_code_one_bit_equals_carrier(self):
        plan = make_plan(grid=PixelGrid(1, 1), channels=1, f1=2.0)
        scene = uniform_scene(plan.grid)
        stream = sensor.synthesize(plan, scene)
        carrier = sensor.carrier_matrix(plan)[0]
        bits = plan.code_bits(0)
        per_bit = stream.per_bit()
        for w in range(plan.code_length):
            expected = carrier if bits[w] else np.zeros_like(carrier)
            assert np.array_equal(per_bit[w], expected)

    def test_conservation_pd1_plus_pd2_constant(self):
        grid = PixelGrid(4, 4)
        plan = make_plan(grid=grid, channels=4, f1=2.0, sample_rate=128.0, key_seed=5)
        rng = np.random.default_rng(3)
        scene = Scene(grid=grid, irradiance=rng.uniform(0.2, 2.0, (4, 4)))
        gain = 1.7
        det = DetectorModel(gain=gain)
        dual = sensor.capture_dual(plan, scene, det)
        total = gain * scene.irradiance.sum()
        combined = dual.pd1.samples + dual.pd2.samples
        assert np.allclose(combined, total, rtol=1e-9, atol=0)

    def test_two_pixel_bin_ratio(self):
        grid = PixelGrid(2, 1)
        plan = make_plan(grid=grid, channels=2, f1=2.0, sample_rate=64.0)
        scene = Scene(grid=grid, irradiance=np.array([[1.0, 3.0]]))
        stream = sensor.synthesize(plan, scene)
        bits = plan.code_bits(0)
        w_on = int(np.argmax(bits == 1))
        spectrum = np.fft.rfft(stream.per_bit()[w_on])
        f_count = plan.samples_per_bit
        k1, k2 = (round(k) for k in plan.frequencies.cycles_per_bit())
        # Each channel's unit square carrier contributes k / sin(pi k / F) at
        # its bin (closed form); after dividing that out the magnitudes sit
        # exactly in the 1 : 3 irradiance ratio.
        gain1 = k1 / np.sin(np.pi * k1 / f_count)
        gain2 = k2 / np.sin(np.pi * k2 / f_count)
        ratio = (abs(spectrum[k2]) / gain2) / (abs(spectrum[k1]) / gain1)
        assert ratio == pytest.approx(3.0, rel=1e-9)

    def test_linearity(self):
        grid = PixelGrid(3, 2)
        plan = make_plan(grid=grid, channels=2, f1=2.0, sample_rate=64.0, key_seed=2)
        rng = np.random.default_rng(0)
        img1 = rng.uniform(0, 1, (2, 3))
        img2 = rng.uniform(0, 1, (2, 3))
        a, b = 2.0, 0.3
        s_mix = sensor.synthesize(plan, Scene(grid=grid, irradiance=a * img1 + b * img2))
        s1 = sensor.synthesize(plan, Scene(grid=grid, irradiance=img1))
        s2 = sensor.synthesize(plan, Scene(grid=grid, irradiance=img2))
        assert np.allclose(s_mix.samples, a * s1.samples + b * s2.samples, rtol=1e-12)

    def test_dual_sides_same_bin_magnitude(self):
        grid = PixelGrid(2, 2)
        plan = make_plan(grid=grid, channels=2, f1=2.0, sample_rate=64.0)
        scene = Scene(grid=grid, irradiance=np.array([[1.0, 0.5], [0.25, 2.0]]))
        dual = sensor.capture_dual(plan, scene)
        bins = [round(k) for k in plan.frequencies.cycles_per_bit()]
        spectrum1 = np.fft.rfft(dual.pd1.per_bit(), axis=1)
        spectrum2 = np.fft.rfft(dual.pd2.per_bit(), axis=1)
        for b in bins:
            assert np.allclose(np.abs(spectrum1[:, b]), np.abs(spectrum2[:, b]), rtol=1e-9, atol=1e-9)

    def test_parked_pixel_silent_on_carrier_bins(self):
        grid = PixelGrid(1, 1)
        plan = make_plan(grid=grid, channels=1, f1=2.0, sample_rate=64.0)
        scene = uniform_scene(grid)
        dual = sensor.capture_dual(plan, scene)
        bits = plan.code_bits(0)
        k = round(plan.frequencies.cycles_per_bit()[0])
        for side in (dual.pd1, dual.pd2):
            spectrum = np.abs(np.fft.rfft(side.per_bit(), axis=1))[:, k]
            off = spectrum[bits == 0]
            assert np.all(off < 1e-9)

    def test_grid_mismatch_raises(self):
        plan = make_plan(grid=PixelGrid(2, 2))
        with pytest.raises(DimensionMismatch):
            sensor.synthesize(plan, uniform_scene(PixelGrid(3, 3)))

    @pytest.mark.parametrize(
        "scene,message",
        [
            (uniform_scene(PixelGrid(3, 2)), "needs a per-source scene"),
            (Scene(grid=PixelGrid(3, 2), per_source=np.ones((3, 2, 3))), "has 3 sources"),
        ],
        ids=["scalar-scene", "three-sources"],
    )
    def test_active_capture_needs_one_map_per_source(self, scene, message):
        plan = make_plan(
            grid=PixelGrid(3, 2), mode=Mode.ACTIVE_OVERLAPPED, frequencies=(3.0, 5.0),
            bit_rate=1.0, sample_rate=64.0,
        )
        with pytest.raises(DimensionMismatch, match=message):
            sensor.synthesize(plan, scene)

    @pytest.mark.parametrize(
        "mode",
        [Mode.PASSIVE_FDMA_CDMA, Mode.FM_CDMA, Mode.FM_TDMA, Mode.PLAIN_CDMA],
        ids=lambda mode: mode.value,
    )
    @pytest.mark.parametrize("side", [sensor.PD1, sensor.PD2])
    def test_per_source_scene_outside_the_active_mode_names_both(self, mode, side):
        grid = PixelGrid(2, 1)
        timing = {Mode.PASSIVE_FDMA_CDMA: dict(channels=2, f1=2.0), Mode.PLAIN_CDMA: {}}
        timing = timing.get(mode, dict(f1=2.0))
        plan = build_plan(grid, mode=mode, bit_rate=1.0, sample_rate=32.0, **timing)
        scene = Scene(grid=grid, per_source=np.ones((4, 1, 2)))
        message = f"per-source scene needs active-overlapped mode, not {mode.value}"
        with pytest.raises(ConfigError, match=message):
            sensor.synthesize(plan, scene, pd_side=side)


@pytest.mark.parametrize("mode", [Mode.PASSIVE_FDMA_CDMA, Mode.ACTIVE_OVERLAPPED])
@pytest.mark.parametrize("side", [sensor.PD1, sensor.PD2])
def test_synthesize_bit_range_is_that_slice_of_the_frame(mode, side):
    grid = PixelGrid(4, 3)
    if mode is Mode.ACTIVE_OVERLAPPED:
        plan = build_plan(
            grid, mode=mode, frequencies=(3.0, 5.0, 7.0), bit_rate=1.0, sample_rate=64.0
        )
        per_source = np.random.default_rng(1).uniform(0.1, 1.0, (3, 3, 4))
        scene = Scene(grid=grid, per_source=per_source)
    else:
        plan = make_plan(grid=grid, channels=3, f1=2.0, sample_rate=64.0, key_seed=2)
        scene = Scene(grid=grid, irradiance=np.random.default_rng(1).uniform(0.1, 1.0, (3, 4)))
    f_count = plan.samples_per_bit
    with mock.patch.object(sensor, "BLOCK_SAMPLES", 3 * f_count):
        frame = sensor.synthesize(plan, scene, pd_side=side)
        for start, stop in [(0, 3), (3, 6), (2, 5), (plan.code_length - 1, plan.code_length)]:
            part = sensor.synthesize(plan, scene, pd_side=side, bit_range=(start, stop))
            assert part.bits == stop - start and part.pd_side == side
            want = frame.samples[start * f_count : stop * f_count]
            assert part.samples.tobytes() == want.tobytes()


@pytest.mark.parametrize("bit_range", [(0, 0), (-1, 2), (3, 2), (0, 10**6)])
def test_synthesize_rejects_bit_range_outside_frame(bit_range):
    plan = make_plan()
    with pytest.raises(ConfigError, match="bit range"):
        sensor.synthesize(plan, uniform_scene(plan.grid), bit_range=bit_range)


def dense_synthesis(plan, scene, detector, pd_side, dtype):
    """Reference: every sample of the frame from whole-bit (bits, F) float64 products, cast once.

    One product per bit block, as synthesize forms its own, since a product's
    rounding can depend on its number of rows.
    """
    amplitudes, _, constant = sensor._side_amplitudes(plan, scene, detector.responsivity, pd_side)
    waves = plan.carrier_matrix  # the whole bit, not _side_amplitudes' one period
    if pd_side == sensor.PD2 and plan.mode is not Mode.ACTIVE_OVERLAPPED:
        waves = 1.0 - waves  # the complement mirror state
    blocks = sensor.bit_blocks(plan.code_length, plan.samples_per_bit)
    dense = np.concatenate([amplitudes[start:stop] @ waves for start, stop in blocks])
    if constant is not None:
        dense += constant[:, None]
    return (dense * detector.gain).astype(dtype).ravel()


def random_scene(plan, seed):
    rng = np.random.default_rng(seed)
    shape = (plan.grid.rows, plan.grid.columns)
    if plan.mode is Mode.ACTIVE_OVERLAPPED:
        maps = rng.uniform(0.05, 1.0, (plan.channel_count, *shape))
        return Scene(grid=plan.grid, per_source=maps)
    return Scene(grid=plan.grid, irradiance=rng.uniform(0.05, 1.0, shape))


@settings(max_examples=200, deadline=None)
@given(random_plans(), st.data())
def test_synthesize_tiles_one_carrier_period_as_the_dense_product_bitwise(plan, data):
    # synthesize multiplies out one carrier period per bit and copies it g
    # times; every sample equals the whole-bit product's, in any block size.
    scene = random_scene(plan, data.draw(st.integers(0, 2**32 - 1)))
    detector = DetectorModel(gain=data.draw(st.sampled_from((1.0, 0.37, 1e3))))
    side = data.draw(st.sampled_from((sensor.PD1, sensor.PD2)))
    dtype = data.draw(st.sampled_from((np.float64, np.float32)))
    w, f_count = plan.code_length, plan.samples_per_bit
    start = data.draw(st.integers(0, w - 1))
    stop = data.draw(st.integers(start + 1, w))
    block_bits = data.draw(st.integers(1, w))
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block_bits * f_count):
        want = dense_synthesis(plan, scene, detector, side, dtype)
        frame = sensor.synthesize(plan, scene, detector, side, dtype)
        part = sensor.synthesize(plan, scene, detector, side, dtype, bit_range=(start, stop))
    assert frame.samples.dtype == dtype
    assert frame.samples.tobytes() == want.tobytes()
    assert part.samples.tobytes() == want[start * f_count : stop * f_count].tobytes()


@pytest.mark.parametrize("name", presets.PRESET_NAMES)
def test_desk_preset_streams_are_the_dense_product_bitwise(name):
    config = presets.preset_config(name)
    plan = config.build_plan()
    scene = config.build_scene(plan.grid)
    for side, detector in zip((sensor.PD1, sensor.PD2), config.sides()):
        detector = detector.build()
        got = sensor.synthesize(plan, scene, detector, side).samples
        assert got.tobytes() == dense_synthesis(plan, scene, detector, side, np.float64).tobytes()


def test_synthesize_holds_no_whole_bit_float64_block():
    # One 2**19-sample block of desk exp1-fmcdma: the float64 product covers
    # one carrier period per bit, so the block's (bits, F) float64 product
    # (4 MiB) is never made and the peak stays near the float32 output.
    config = presets.preset_config("exp1-fmcdma")
    plan = config.build_plan()
    scene = config.build_scene(plan.grid)
    detector = config.detector.build()
    start, stop = next(sensor.bit_blocks(plan.code_length, plan.samples_per_bit))
    assert (stop - start) * plan.samples_per_bit == sensor.BLOCK_SAMPLES
    assert plan.carrier_period < plan.samples_per_bit
    tracemalloc.start()
    try:
        stream = sensor.synthesize(plan, scene, detector, dtype=np.float32, bit_range=(start, stop))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stream.samples.nbytes + 2**20


def test_first_block_of_a_fresh_plan_builds_no_whole_bit_carrier_table():
    # Full-scale exp1-hdr, F = 65536 on a 512-sample carrier period: the first
    # block's trace includes the plan's first read of its carrier constants,
    # which are one period, so the peak stays near the 2 MiB float32 block.
    # It was 4.25 MiB when the plan built its (4, 65536) float64 carrier table.
    config = presets.preset_config("exp1-hdr", full_scale=True)
    plan = config.build_plan()
    scene = config.build_scene(plan.grid)
    detector = config.detector.build()
    start, stop = next(sensor.bit_blocks(plan.code_length, plan.samples_per_bit))
    tracemalloc.start()
    try:
        stream = sensor.synthesize(plan, scene, detector, dtype=np.float32, bit_range=(start, stop))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "carrier_matrix" not in vars(plan)
    assert peak < stream.samples.nbytes + 2**20


def band_slope(samples, segment):
    """Fitted log-log slope of the Hann-windowed Welch PSD, in 24 log-spaced bands of bins 8..segment/4."""
    windowed = samples.reshape(-1, segment) * np.hanning(segment)
    psd = np.mean(np.abs(np.fft.rfft(windowed, axis=1)) ** 2, axis=0)
    edges = np.unique(np.geomspace(8, segment // 4, 25).astype(int))
    bands = list(zip(edges, edges[1:]))
    freqs = [np.exp(np.mean(np.log(np.arange(lo, hi)))) for lo, hi in bands]
    return np.polyfit(np.log(freqs), np.log([psd[lo:hi].mean() for lo, hi in bands]), 1)[0]


class TestNoise:
    def test_no_noise_is_identity(self):
        plan = make_plan()
        stream = sensor.synthesize(plan, uniform_scene(plan.grid))
        noisy = sensor.add_noise(stream, DetectorModel(), seed=1)
        assert np.array_equal(noisy.samples, stream.samples)

    def test_no_noise_returns_input_stream(self):
        plan = make_plan()
        stream = sensor.synthesize(plan, uniform_scene(plan.grid), dtype=np.float32)
        assert sensor.add_noise(stream, DetectorModel(), seed=1) is stream
        with pytest.raises(TypeError):
            sensor.add_noise(stream, DetectorModel(), seed="not a seed")

    def test_white_noise_variance(self):
        n = 1_000_000
        stream = sensor.SampleStream(
            rate=1.0, samples=np.zeros(n), bits=1, samples_per_bit=n
        )
        sigma = 0.37
        noisy = sensor.add_noise(stream, DetectorModel(noise_sigma=sigma), seed=7)
        assert float(np.var(noisy.samples)) == pytest.approx(sigma**2, rel=0.02)

    def test_deterministic_per_seed(self):
        plan = make_plan()
        stream = sensor.synthesize(plan, uniform_scene(plan.grid))
        det = DetectorModel(noise_sigma=0.1, pink_noise=(0.05, 1.0))
        a = sensor.add_noise(stream, det, seed=11)
        b = sensor.add_noise(stream, det, seed=11)
        c = sensor.add_noise(stream, det, seed=12)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_shot_noise_scales_with_signal(self):
        n = 400_000
        lo = sensor.SampleStream(rate=1.0, samples=np.full(n, 1.0), bits=1, samples_per_bit=n)
        hi = sensor.SampleStream(rate=1.0, samples=np.full(n, 9.0), bits=1, samples_per_bit=n)
        det = DetectorModel(shot_noise=1.0)
        var_lo = np.var(sensor.add_noise(lo, det, 3).samples)
        var_hi = np.var(sensor.add_noise(hi, det, 3).samples)
        assert var_hi / var_lo == pytest.approx(9.0, rel=0.05)

    def test_pink_noise_spectrum_slope(self):
        # 16 Welch segments of PINK_TAPS samples resolve the corner at fs / PINK_TAPS;
        # the slope is fitted from 8 fs / PINK_TAPS up to fs / 4. Fixed seed.
        n = 16 * sensor.PINK_TAPS
        stream = sensor.SampleStream(rate=1.0, samples=np.zeros(n), bits=1, samples_per_bit=n)
        for alpha in (0.5, 1.0, 1.5, 2.0):
            noisy = sensor.add_noise(stream, DetectorModel(pink_noise=(1.0, alpha)), seed=1)
            assert band_slope(noisy.samples, sensor.PINK_TAPS) == pytest.approx(-alpha, abs=0.1)

    def test_seed_kinds_repeat_or_renew_the_terms_as_numpy_spawn_does(self):
        # Shot and 1/f generators are spawned from the seed's SeedSequence,
        # which counts its children: an int seed repeats every term, a
        # SeedSequence repeats white only, and a Generator draws each anew.
        stream = sensor.SampleStream(rate=1.0, samples=np.ones(64), bits=1, samples_per_bit=64)
        white = DetectorModel(noise_sigma=0.1)
        every = DetectorModel(noise_sigma=0.1, shot_noise=0.5, pink_noise=(0.1, 1.0))
        for det in (white, every):
            first = sensor.add_noise(stream, det, 5).samples
            assert np.array_equal(sensor.add_noise(stream, det, 5).samples, first)
            ss, rng = np.random.SeedSequence(5), np.random.default_rng(5)
            assert np.array_equal(sensor.add_noise(stream, det, ss).samples, first)
            assert np.array_equal(sensor.add_noise(stream, det, rng).samples, first)
            again = sensor.add_noise(stream, det, ss).samples
            assert np.array_equal(again, first) == (det is white)
            assert not np.array_equal(sensor.add_noise(stream, det, rng).samples, first)
        assert ss.n_children_spawned == 4


def whole_stream_capture(plan, scene, detector, seed=0, pd_side=sensor.PD1, dtype=np.float64):
    """Reference: synthesize -> add_noise -> apply_adc, each run once on the whole stream."""
    stream = sensor.synthesize(plan, scene, detector, pd_side, dtype=dtype)
    return sensor.apply_adc(sensor.add_noise(stream, detector, seed), detector)


def kasdin_taps(alpha, count):
    """The 1/f filter's taps, one recurrence step at a time, scaled to unit energy."""
    taps = [1.0]
    for k in range(1, count):
        taps.append(taps[-1] * (alpha / 2 + k - 1) / k)
    return np.array(taps) / np.sqrt(np.sum(np.square(taps)))


def reference_pink(rng, amplitude, alpha, n):
    """n samples of the 1/f term: rng's history and stream normals, directly convolved with the taps."""
    count = sensor.PINK_TAPS
    normals = rng.standard_normal(count + n)  # a history of count samples, then the stream's
    return amplitude * np.convolve(normals[1:], kasdin_taps(alpha, count), "valid")


def whole_stream_noise(samples, detector, seed):
    """Reference: every noise term drawn at full stream length in one call.

    White is default_rng(seed).normal; shot and 1/f draw from the two
    generators that generator's spawn(2) gives, 1/f through reference_pink.
    The terms are summed in draw order, and their sum is added to the
    samples with one rounding to the samples' dtype.
    """
    rng = np.random.default_rng(seed)
    shot_rng, pink_rng = rng.spawn(2)
    n = samples.size
    terms = []
    if detector.noise_sigma > 0:
        terms.append(rng.normal(0.0, detector.noise_sigma, n))
    if detector.shot_noise > 0:
        shot = np.sqrt(detector.shot_noise * np.clip(samples, 0.0, None))
        terms.append(shot_rng.standard_normal(n) * shot)
    if detector.pink_noise[0] > 0:
        terms.append(reference_pink(pink_rng, *detector.pink_noise, n))
    return (samples + sum(terms[1:], terms[0])).astype(samples.dtype, copy=False)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "detector",
    [
        DetectorModel(noise_sigma=0.2, adc_bits=10, adc_fullscale=3.0),
        DetectorModel(shot_noise=0.3),
        DetectorModel(noise_sigma=0.2, shot_noise=1.0, pink_noise=(0.4, 1.5), adc_bits=8),
        DetectorModel(pink_noise=(0.3, 0.5)),
    ],
    ids=["white-adc", "shot", "white-shot-pink-adc", "pink"],
)
def test_blocked_noise_and_adc_match_whole_stream_reference(detector, dtype):
    # add_noise on the whole stream draws the reference's terms: white and
    # shot byte for byte, 1/f to 1e-9 of its amplitude (FFTs against a direct
    # convolution). The ADC's rounding of add_noise's bytes, written out here,
    # is then the reference for whole-stream capture and for blocks of 1, 2
    # and 3 bits, byte for byte, with 1/f segments of the full PINK_TAPS
    # (longer than the frame) and of 40 samples: the 256-sample frame spans
    # seven, and every block edge falls inside one.
    plan = make_plan(grid=PixelGrid(3, 3), channels=3, f1=2.0, sample_rate=64.0)
    scene = uniform_scene(plan.grid)
    f_count = plan.samples_per_bit
    for pink_taps in (sensor.PINK_TAPS, 40):
        with mock.patch.object(sensor, "PINK_TAPS", pink_taps):
            stream = sensor.synthesize(plan, scene, dtype=dtype)
            got = sensor.add_noise(stream, detector, seed=5).samples
            want = whole_stream_noise(stream.samples, detector, seed=5)
            if detector.pink_noise[0] > 0:
                atol = 1e-9 * detector.pink_noise[0]
                np.testing.assert_allclose(got, want, rtol=np.finfo(dtype).eps, atol=atol)
            else:
                assert got.tobytes() == want.tobytes()
            want = got
            if detector.adc_bits is not None:
                step = detector.adc_fullscale / (2**detector.adc_bits - 1)
                want = np.round(np.clip(want, 0.0, detector.adc_fullscale) / step) * step
            want = want.astype(dtype, copy=False)
            whole = whole_stream_capture(plan, scene, detector, seed=5, dtype=dtype)
            assert whole.samples.tobytes() == want.tobytes()
            for bits in (1, 2, 3):
                with mock.patch.object(sensor, "BLOCK_SAMPLES", bits * f_count):
                    blocks = list(sensor.capture_blocks(plan, scene, detector, seed=5, dtype=dtype))
                assert len(blocks) > 1
                assert np.concatenate([b.samples for b in blocks]).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pink_noise_reaches_streams_of_any_length(n):
    stream = sensor.SampleStream(rate=1.0, samples=np.zeros(n), bits=1, samples_per_bit=n)
    noisy = sensor.add_noise(stream, DetectorModel(pink_noise=(0.5, 1.0)), seed=4)
    want = reference_pink(np.random.default_rng(4).spawn(2)[1], 0.5, 1.0, n)
    np.testing.assert_allclose(noisy.samples, want, rtol=0, atol=1e-9)
    assert np.all(noisy.samples != 0.0)


def pink_correlation_energy(alpha, lags):
    """sum of rho(tau)**2 over |tau| < lags, weighted (lags - |tau|) / lags, for the 1/f term.

    rho is the term's autocorrelation, the taps' own. For n samples of a
    unit-variance Gaussian process this gives the variance of the mean
    square (2 / n times it, lags = n) and of the sample correlation with an
    independent twin (1 / n times it).
    """
    taps = kasdin_taps(alpha, sensor.PINK_TAPS)
    rho = np.fft.irfft(np.abs(np.fft.rfft(taps, 2 * taps.size)) ** 2)[: min(lags, taps.size)]
    weights = (lags - np.arange(rho.size)) / lags
    return float(2 * np.sum(weights * rho**2) - rho[0] ** 2)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
def test_pink_noise_mean_square_is_the_amplitude_squared(alpha):
    # Pooled over 256 records of 4096 samples, one seed each, with 256-tap
    # segments so each record spans 16 of them: one record's mean square
    # varies widely at alpha >= 1, the pooled one within 4.5 standard errors
    # (computed from the taps) of amplitude**2, a two-sided 7e-6 chance.
    amplitude, records, n = 0.3, 256, 4096
    stream = sensor.SampleStream(rate=1.0, samples=np.zeros(n), bits=1, samples_per_bit=n)
    detector = DetectorModel(pink_noise=(amplitude, alpha))
    with mock.patch.object(sensor, "PINK_TAPS", 256):
        pooled = np.mean(
            [np.mean(sensor.add_noise(stream, detector, seed).samples ** 2) for seed in range(records)]
        )
        error = np.sqrt(2 / n * pink_correlation_energy(alpha, n) / records)
    assert abs(pooled / amplitude**2 - 1) < 4.5 * error < 0.1


def test_pink_noise_of_the_two_detector_sides_is_uncorrelated():
    n = 1 << 19
    stream = sensor.SampleStream(rate=1.0, samples=np.zeros(n), bits=1, samples_per_bit=n)
    detector = DetectorModel(pink_noise=(1.0, 1.0))
    with mock.patch.object(sensor, "PINK_TAPS", 256):
        pd1, pd2 = (
            sensor.add_noise(stream, det, side_seed).samples
            for det, side_seed, _ in sensor.capture_sides((detector, detector), 6)
        )
        error = np.sqrt(pink_correlation_energy(1.0, n) / n)
    # Under independence the sample correlation has standard error `error`.
    assert abs(np.corrcoef(pd1, pd2)[0, 1]) < 4.5 * error < 0.05


def test_shot_noise_variance_follows_the_signal_across_block_edges():
    # PD2 of an 80-bit frame in one-bit blocks: the residual over the
    # noiseless stream, divided by sqrt(shot * signal), has unit variance on
    # the dim half of the lit samples and on the bright half, and the two
    # samples at each block edge are uncorrelated. Bounds: 4.5 standard errors.
    grid = PixelGrid(16, 16)
    plan = make_plan(grid=grid, channels=4, f1=2.0, sample_rate=256.0, key_seed=3)
    scene = Scene(grid=grid, irradiance=np.random.default_rng(2).uniform(0.1, 4.0, (16, 16)))
    detector = DetectorModel(shot_noise=0.5)
    clean = sensor.synthesize(plan, scene, pd_side=sensor.PD2).samples
    block = plan.samples_per_bit
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block):
        blocks = sensor.capture_blocks(plan, scene, detector, 8, sensor.PD2)
        noisy = np.concatenate([b.samples for b in blocks])
    lit = clean > 0
    z = (noisy - clean)[lit] / np.sqrt(detector.shot_noise * clean[lit])
    assert np.array_equal(noisy[~lit], clean[~lit])
    dim = clean[lit] < np.median(clean[lit])
    for half in (z[dim], z[~dim]):
        assert np.var(half) == pytest.approx(1.0, abs=4.5 * np.sqrt(2 / half.size))
    edges = np.arange(block, clean.size, block)
    edges = edges[lit[edges] & lit[edges - 1]]
    scale = np.sqrt(detector.shot_noise * clean)
    products = (noisy - clean)[edges] / scale[edges] * (noisy - clean)[edges - 1] / scale[edges - 1]
    assert edges.size > 50 and abs(np.mean(products)) < 4.5 / np.sqrt(edges.size)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    sigma=st.floats(1e-300, 1e300, allow_nan=False, allow_infinity=False) | st.just(0.0),
    n=st.integers(0, 5000),
    into_buffer=st.booleans(),
)
def test_white_noise_is_generator_normal_bitwise(seed, sigma, n, into_buffer):
    out = np.full(n, np.nan) if into_buffer else None
    got = sensor.white_noise(np.random.default_rng(seed), sigma, n, out)
    want = np.random.default_rng(seed).normal(0.0, sigma, n)
    assert got is out if into_buffer else got.dtype == np.float64
    # normal adds loc 0.0, which turns a -0.0 product (sigma 0, or an underflow) into +0.0.
    assert np.array_equal(got, want)
    nonzero = want != 0.0
    assert got[nonzero].tobytes() == want[nonzero].tobytes()


def multi_block_frame(blocks=4):
    """Plan and scene of a frame that spans several bit blocks, and the BLOCK_SAMPLES to patch in."""
    plan = make_plan(grid=PixelGrid(3, 3), channels=3, f1=2.0, sample_rate=64.0)
    block = (plan.code_length // blocks) * plan.samples_per_bit
    return plan, uniform_scene(plan.grid), block


def test_block_capture_runs_one_noise_thread_and_closing_ends_it():
    plan, scene, block = multi_block_frame()
    before = threading.active_count()
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block):
        blocks = sensor.capture_blocks(plan, scene, DetectorModel(noise_sigma=0.1), seed=3)
        next(blocks)
        assert threading.active_count() == before + 1
        blocks.close()
    assert threading.active_count() == before


def test_noiseless_block_capture_starts_no_thread():
    plan, scene, block = multi_block_frame()
    detector = DetectorModel(adc_bits=8, adc_fullscale=10.0)
    before = threading.active_count()
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block):
        for _ in sensor.capture_blocks(plan, scene, detector, seed=3):
            assert threading.active_count() == before


def test_one_block_noisy_capture_starts_no_thread():
    # The frame fits one block at the real BLOCK_SAMPLES, so add_noise draws
    # every term itself, shot included, with nothing to prefetch.
    plan, scene, _ = multi_block_frame()
    detector = DetectorModel(noise_sigma=0.1, shot_noise=1.0)
    before = threading.active_count()
    for _ in sensor.capture_blocks(plan, scene, detector, seed=3):
        assert threading.active_count() == before


def test_zero_size_noise_terms_capture_in_blocks_as_their_white_only_twin():
    # A shot or 1/f term of size 0 is off: the capture draws no term for it
    # and spawns no generator, so it keeps the white-only twin's blocks and bytes.
    plan, scene, block = multi_block_frame()
    white = {"noise_sigma": 0.1, "adc_bits": 10, "adc_fullscale": 4.0}
    twins = [{"shot_noise": 0}, {"pink_noise": [0, 1]}, {"shot_noise": 0, "pink_noise": [0, 2]}]
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block):
        blocks = [
            [b.samples.tobytes() for b in sensor.capture_blocks(plan, scene, detector, seed=3)]
            for detector in (
                presets.DetectorConfig.from_dict({**white, **twin}).build()
                for twin in [{}, *twins]
            )
        ]
    assert len(blocks[0]) > 1
    assert all(twin == blocks[0] for twin in blocks[1:])
    # Desk exp1-fmcdma in float32, 5.2 M samples in ten 2**19-sample blocks,
    # each noised and quantized in place: 6.2 MiB traced, bound at that plus
    # 4 MiB, one float64 block. It was 14.2 MiB with a noise and an ADC output
    # per block and a ring of two whole-block buffers (28.2 MiB in five
    # 2**20-sample blocks), and 120-160 MiB as one whole-frame block.
    assert traced_desk_fmcdma_capture(shot_noise=0.0, pink_noise=[0.0, 1.0]) < 10 * 2**20


def traced_desk_fmcdma_capture(**terms):
    """tracemalloc peak of desk exp1-fmcdma captured in float32 with these detector settings.

    Asserts that the capture took one block per BLOCK_SAMPLES, more than one.
    """
    config = presets.preset_config("exp1-fmcdma")
    plan = config.build_plan()
    scene = config.build_scene(plan.grid)
    detector = replace(config.detector, **terms).build()
    tracemalloc.start()
    try:
        count = 0
        for _ in sensor.capture_blocks(plan, scene, detector, config.noise_seed, dtype=np.float32):
            count += 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == -(-plan.frame_samples // sensor.BLOCK_SAMPLES) > 1
    return peak


def test_capture_with_every_noise_term_holds_blocks_not_the_frame():
    # With shot 0.001 and 1/f (0.01, 1.0) on as well: 20.2 MiB traced in the
    # ten blocks, bound at that plus 4 MiB, one float64 block. It was 28.2 MiB
    # before blocks were noised in place, and 220 MiB when these terms forced
    # one whole-frame block.
    assert traced_desk_fmcdma_capture(shot_noise=0.001, pink_noise=[0.01, 1.0]) < 24 * 2**20


@pytest.mark.parametrize("side", [sensor.PD1, sensor.PD2])
@pytest.mark.parametrize("mode", [Mode.PASSIVE_FDMA_CDMA, Mode.ACTIVE_OVERLAPPED])
def test_multi_block_capture_computes_the_channel_sums_once_per_side(mode, side):
    # Every block's synthesize call takes the frame's channel sums from one
    # cached callable, so a four-block capture computes them once.
    grid = PixelGrid(4, 3)
    if mode is Mode.ACTIVE_OVERLAPPED:
        plan = build_plan(grid, mode=mode, frequencies=(3.0, 5.0), bit_rate=1.0, sample_rate=64.0)
        scene = Scene(grid=grid, per_source=np.random.default_rng(1).uniform(0.1, 1.0, (2, 3, 4)))
    else:
        plan = make_plan(grid=grid, channels=3, f1=2.0, sample_rate=64.0, key_seed=2)
        scene = uniform_scene(grid)
    detector = DetectorModel(noise_sigma=0.1, adc_bits=10)
    block = (plan.code_length // 4) * plan.samples_per_bit
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block), \
            mock.patch.object(sensor, "_side_amplitudes", wraps=sensor._side_amplitudes) as sums:
        count = sum(1 for _ in sensor.capture_blocks(plan, scene, detector, 3, side))
    assert count == 4
    sums.assert_called_once_with(plan, scene, detector.responsivity, side)


def test_noise_ring_draws_the_next_chunk_while_this_block_is_noised():
    # Chunks of 5/8 of a block, so block edges fall inside chunks. When
    # add_noise takes a piece of chunk k, the draw of chunk k + 1 has started,
    # so a capture that submitted a draw only after a block's noise would time
    # out here. One draw per chunk, the chunks take the ring's two buffers in
    # turn, and the bytes are the capture's at the real chunk size.
    plan, scene, block = multi_block_frame()
    detector = DetectorModel(noise_sigma=0.1, adc_bits=10)
    chunk = block * 5 // 8
    real_white_noise, real_add_noise = sensor.white_noise, sensor.add_noise
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block):
        want = np.concatenate([b.samples for b in sensor.capture_blocks(plan, scene, detector, 3)])
    count = -(-want.size // chunk)
    started = [threading.Event() for _ in range(count)]
    buffers, taken = [], []

    def recording_white_noise(rng, sigma, n, out):
        buffers.append(out.__array_interface__["data"][0])
        started[len(buffers) - 1].set()
        return real_white_noise(rng, sigma, n, out)

    def waiting_add_noise(stream, *args, white, **kwargs):
        def checked(start):
            for piece in white:
                k = start // chunk
                taken.append(k)
                if k + 1 < count:
                    assert started[k + 1].wait(timeout=5), f"chunk {k + 1} not started at {k}"
                start += piece.size
                yield piece

        start = stream.first_bit * stream.samples_per_bit
        return real_add_noise(stream, *args, white=checked(start), **kwargs)

    with mock.patch.object(sensor, "BLOCK_SAMPLES", block), \
            mock.patch.object(sensor, "NOISE_CHUNK", chunk), \
            mock.patch.object(sensor, "white_noise", recording_white_noise), \
            mock.patch.object(sensor, "add_noise", waiting_add_noise):
        got = np.concatenate([b.samples for b in sensor.capture_blocks(plan, scene, detector, 3)])
    assert count > 4 and len(buffers) == count and len(taken) > count
    assert sorted(set(taken)) == list(range(count))
    assert got.tobytes() == want.tobytes()
    assert len(set(buffers)) == sensor.NOISE_RING == 2
    assert buffers == [buffers[k % 2] for k in range(count)]


HANDOFF_DETECTORS = [
    DetectorModel(noise_sigma=0.1, adc_bits=10),
    DetectorModel(noise_sigma=0.2, shot_noise=1.0, pink_noise=(0.4, 1.5), adc_bits=8),
]


@st.composite
def handoff_sizes(draw):
    """A 16-bit frame of F = 48, and BLOCK_SAMPLES, NOISE_CHUNK and NOISE_RING for it:
    a block of 2..15 bits and a chunk that neither divides F nor the block, nor is
    divided by them."""
    plan = make_plan(grid=PixelGrid(6, 5), channels=2, f1=2.0, sample_rate=48.0)
    f_count = plan.samples_per_bit
    block = draw(st.integers(2, plan.code_length - 1)) * f_count
    chunk = draw(
        st.integers(5, plan.frame_samples).filter(
            lambda c: all(a % b for a, b in ((f_count, c), (c, f_count), (block, c), (c, block)))
        )
    )
    extra = draw(st.integers(0, f_count - 1))  # BLOCK_SAMPLES need not be whole bits
    return plan, block + extra, chunk, draw(st.integers(1, 3))


@settings(max_examples=40, deadline=None)
@given(
    handoff_sizes(),
    st.sampled_from(HANDOFF_DETECTORS),
    st.sampled_from([np.float64, np.float32]),
)
def test_chunked_noise_handoff_is_the_whole_stream_capture(sizes, detector, dtype):
    # Block edges fall inside chunks, and chunk edges inside bits; the
    # capture's bytes are whole_stream_capture's, white alone or with shot
    # and 1/f, whatever the chunk size, the ring size and the block size.
    plan, block, chunk, ring = sizes
    scene = uniform_scene(plan.grid)
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block), \
            mock.patch.object(sensor, "NOISE_CHUNK", chunk), \
            mock.patch.object(sensor, "NOISE_RING", ring):
        blocks = [b.samples for b in sensor.capture_blocks(plan, scene, detector, 7, dtype=dtype)]
    want = whole_stream_capture(plan, scene, detector, 7, dtype=dtype)
    assert len(blocks) > 1
    assert np.concatenate(blocks).tobytes() == want.samples.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(HANDOFF_DETECTORS),
    st.sampled_from([np.float64, np.float32]),
    st.lists(st.integers(0, 768), max_size=6).map(sorted),
)
def test_add_noise_in_place_and_in_white_pieces_is_the_whole_array_call(detector, dtype, cuts):
    # out=stream.samples, and white as one array, a list of pieces or an
    # iterator of them, empty pieces included: each call's bytes are the
    # whole-array call's, and no call writes to a stream it was not given out for.
    plan = make_plan(grid=PixelGrid(6, 5), channels=2, f1=2.0, sample_rate=48.0)
    stream = sensor.synthesize(plan, uniform_scene(plan.grid), dtype=dtype)
    want = sensor.add_noise(stream, detector, 5).samples
    n = stream.samples.size
    white = sensor.white_noise(np.random.default_rng(5), detector.noise_sigma, n)
    clean = stream.samples.tobytes()
    whole, split, pieces = (lambda: white), (lambda: np.split(white, cuts)), (lambda: iter(split()))
    for given in (whole, split, pieces):
        for out in (None, stream.samples.copy()):
            target = stream if out is None else replace(stream, samples=out)
            got = sensor.add_noise(target, detector, 5, white=given(), out=out)
            assert got.samples is out if out is not None else got.samples is not stream.samples
            assert got.samples.tobytes() == want.tobytes()
    assert stream.samples.tobytes() == clean


def test_noise_ring_holds_two_chunk_buffers_whatever_the_block_size():
    # The chunks, and so the ring's buffers, are NOISE_CHUNK samples at any
    # BLOCK_SAMPLES: two buffers, taken in turn, the last chunk a prefix of its buffer.
    plan, scene, block = multi_block_frame()
    detector = DetectorModel(noise_sigma=0.1)
    chunk = 40  # neither divides nor is divided by F = 64 and the blocks
    real_white_noise = sensor.white_noise
    layouts = []
    for blocks in (block, 3 * block):
        draws = []

        def recording_white_noise(rng, sigma, n, out):
            draws.append((out.__array_interface__["data"][0], out.base.shape, n))
            return real_white_noise(rng, sigma, n, out)

        with mock.patch.object(sensor, "BLOCK_SAMPLES", blocks), \
                mock.patch.object(sensor, "NOISE_CHUNK", chunk), \
                mock.patch.object(sensor, "white_noise", recording_white_noise):
            assert sum(1 for _ in sensor.capture_blocks(plan, scene, detector, 3)) > 1
        addresses = list(dict.fromkeys(address for address, _, _ in draws))  # in first use
        assert len(addresses) == sensor.NOISE_RING == 2
        layouts.append([(addresses.index(address), shape, n) for address, shape, n in draws])
    sizes = [chunk] * (plan.frame_samples // chunk) + [plan.frame_samples % chunk]
    assert layouts[0] == layouts[1] == [(k % 2, (chunk,), n) for k, n in enumerate(sizes)]


def test_concurrent_block_captures_stay_bitwise_whole_stream_captures():
    # Four captures, each with its own noise thread, on more threads than cores.
    plan, scene, block = multi_block_frame(blocks=8)
    detector = DetectorModel(noise_sigma=0.1, adc_bits=10)
    got = {}

    def run(seed):
        blocks = sensor.capture_blocks(plan, scene, detector, seed)
        got[seed] = np.concatenate([b.samples for b in blocks])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(sensor, "BLOCK_SAMPLES", block):
            threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for seed in range(4):
        want = whole_stream_capture(plan, scene, detector, seed)
        assert got[seed].tobytes() == want.samples.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("blocks", [1, 4])
def test_capture_is_the_whole_stream_chain(blocks, dtype):
    plan, scene, block = multi_block_frame(blocks)
    detector = DetectorModel(noise_sigma=0.1, adc_bits=10)
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block):
        got = sensor.capture(plan, scene, detector, seed=3, dtype=dtype)
    want = whole_stream_capture(plan, scene, detector, 3, dtype=dtype)
    assert (got.bits, got.first_bit, got.samples.dtype) == (plan.code_length, 0, dtype)
    assert got.samples.tobytes() == want.samples.tobytes()


def test_dual_capture_draws_each_side_from_a_spawned_seed():
    plan = make_plan()
    scene = uniform_scene(plan.grid)
    det = DetectorModel(noise_sigma=0.1)
    dual = sensor.capture_dual(plan, scene, det, seed=9)
    seeds = np.random.SeedSequence(9).spawn(2)
    for stream, seed, side in zip((dual.pd1, dual.pd2), seeds, (sensor.PD1, sensor.PD2)):
        want = whole_stream_capture(plan, scene, det, seed, side)
        assert stream.samples.tobytes() == want.samples.tobytes()


@pytest.mark.parametrize("seed", [0, 2102, 12345])
def test_dual_capture_takes_every_seed_one_detector_takes(seed):
    # An int, a SeedSequence or a Generator seeds both sides; each side draws
    # what SeedSequence(seed).spawn(2) gives it, as every int seed always has.
    plan = make_plan()
    scene = uniform_scene(plan.grid)
    det = DetectorModel(noise_sigma=0.1)
    want = [
        whole_stream_capture(plan, scene, det, side_seed, side).samples.tobytes()
        for side_seed, side in zip(np.random.SeedSequence(seed).spawn(2), (sensor.PD1, sensor.PD2))
    ]
    for given in (seed, np.random.SeedSequence(seed), np.random.default_rng(seed)):
        dual = sensor.capture_dual(plan, scene, det, seed=given)
        assert [dual.pd1.samples.tobytes(), dual.pd2.samples.tobytes()] == want


@pytest.mark.parametrize("side", [sensor.PD1, sensor.PD2])
def test_dual_streams_reject_two_streams_of_one_side(side):
    plan = make_plan()
    stream = sensor.synthesize(plan, uniform_scene(plan.grid), pd_side=side)
    with pytest.raises(ConfigError, match=f"got two {side}"):
        sensor.DualStreams(stream, stream)


@pytest.mark.parametrize("change", ["rate", "length"])
def test_dual_streams_reject_a_different_rate_or_length(change):
    plan = make_plan()
    pd1 = sensor.synthesize(plan, uniform_scene(plan.grid))
    pd2 = sensor.synthesize(plan, uniform_scene(plan.grid), pd_side=sensor.PD2)
    if change == "rate":
        pd2 = replace(pd2, rate=2 * pd2.rate)
    else:
        pd2 = replace(pd2, samples=pd2.samples[: pd2.samples_per_bit], bits=1)
    with pytest.raises(LengthMismatch, match="share rate and length"):
        sensor.DualStreams(pd1, pd2)


class TestAdc:
    def test_identity_when_unset(self):
        plan = make_plan()
        stream = sensor.synthesize(plan, uniform_scene(plan.grid))
        assert sensor.apply_adc(stream, DetectorModel()) is stream

    def test_clamps_to_fullscale(self):
        stream = sensor.SampleStream(
            rate=1.0, samples=np.array([10.7, -0.5, 5.0]), bits=1, samples_per_bit=3
        )
        det = DetectorModel(adc_bits=16, adc_fullscale=10.0)
        out = sensor.apply_adc(stream, det)
        assert out.samples[0] == 10.0
        assert out.samples[1] == 0.0

    def test_quantization_error_bound(self):
        det = DetectorModel(adc_bits=16, adc_fullscale=10.0)
        step = 10.0 / (2**16 - 1)
        values = np.linspace(0.0, 10.0, 20001)
        stream = sensor.SampleStream(
            rate=1.0, samples=values, bits=1, samples_per_bit=values.size
        )
        out = sensor.apply_adc(stream, det)
        assert np.max(np.abs(out.samples - values)) <= step / 2 + 1e-12


def test_stream_file_roundtrip(tmp_path):
    plan = make_plan()
    stream = sensor.synthesize(plan, uniform_scene(plan.grid), pd_side=sensor.PD2)
    base = tmp_path / "capture"
    sensor.write_stream(stream, base)
    back = sensor.read_stream(base)
    assert back.bits == stream.bits
    assert back.samples_per_bit == stream.samples_per_bit
    assert back.pd_side == sensor.PD2
    assert back.samples.dtype == np.float32
    assert np.array_equal(back.samples, stream.samples.astype("<f4"))
    block = 3 * plan.samples_per_bit + 1  # blocks of 3 bits, the last one shorter
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block):
        blocks = list(back)
        assert [(b.first_bit, b.first_bit + b.bits) for b in blocks] == list(
            sensor.bit_blocks(plan.code_length, plan.samples_per_bit)
        )
    assert all(b.pd_side == sensor.PD2 and b.samples.size <= block for b in blocks)
    assert np.concatenate([b.samples for b in blocks]).tobytes() == back.samples.tobytes()


def test_stream_block_must_continue_the_file(tmp_path):
    plan = make_plan()
    stream = sensor.synthesize(plan, uniform_scene(plan.grid))
    base = tmp_path / "capture"
    with pytest.raises(LengthMismatch):  # no file holds bits 0..1 yet
        sensor.write_stream(replace(stream, first_bit=2), base)
    assert not any(os.path.exists(path) for path in sensor.stream_paths(base))
    half = plan.code_length // 2
    first, rest = (sensor.synthesize(plan, uniform_scene(plan.grid), bit_range=r)
                   for r in ((0, half), (half, plan.code_length)))
    sensor.write_stream(first, base)
    assert sensor.read_stream(base).bits == half  # a valid stream of the bits so far
    sensor.write_stream(rest, base)
    with pytest.raises(LengthMismatch):  # written twice
        sensor.write_stream(rest, base)
    back = sensor.read_stream(base)
    assert back.samples.tobytes() == stream.samples.astype("<f4").tobytes()


def file_bytes(base):
    """The bytes of the stream file at base: its raw file, then its sidecar."""
    return [Path(path).read_bytes() for path in sensor.stream_paths(base)]


def two_bit_stream(base):
    """Write a two-bit pd1 stream of F = 8 at rate 8 to base; returns its files' bytes."""
    sensor.write_stream(sensor.SampleStream(8.0, np.arange(16.0), 2, 8), base)
    return file_bytes(base)


def test_stream_block_of_the_right_byte_offset_must_still_continue_the_stream(tmp_path):
    # 4 bits of F = 4 from bit 4 start at byte 64, where the 2 x 8 samples
    # end, yet the file holds 2 bits: the block must not give it a new meaning.
    base = tmp_path / "capture"
    before = two_bit_stream(base)
    block = sensor.SampleStream(4.0, np.ones(16), 4, 4, sensor.PD2, first_bit=4)
    with pytest.raises(LengthMismatch):
        sensor.write_stream(block, base)
    assert file_bytes(base) == before


@pytest.mark.parametrize(
    "field, value", [("rate", 4.0), ("samples_per_bit", 4), ("pd_side", sensor.PD2), ("gain", 2.0)]
)
def test_stream_block_must_match_the_stream_it_continues(tmp_path, field, value):
    base = tmp_path / "capture"
    before = two_bit_stream(base)
    fields = dict(rate=8.0, bits=1, samples_per_bit=8, pd_side=sensor.PD1, gain=1.0, first_bit=2)

    def block(**changed):
        f = {**fields, **changed}
        return sensor.SampleStream(samples=np.ones(f["bits"] * f["samples_per_bit"]), **f)

    with pytest.raises(PlanMismatch, match=field):
        sensor.write_stream(block(**{field: value}), base)
    assert file_bytes(base) == before
    sensor.write_stream(block(), base)
    assert sensor.read_stream(base).bits == 3
