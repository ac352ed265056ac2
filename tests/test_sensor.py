import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caossim import presets, sensor
from caossim.errors import ConfigError, DimensionMismatch, LengthMismatch
from caossim.plan import Mode, PixelGrid, build_plan
from caossim.scene import DetectorModel, Scene


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
        n = 2**16
        stream = sensor.SampleStream(rate=1.0, samples=np.zeros(n), bits=1, samples_per_bit=n)
        det = DetectorModel(pink_noise=(1.0, 1.0))
        acc = np.zeros(n // 2 + 1)
        for seed in range(40):
            noisy = sensor.add_noise(stream, det, seed)
            acc += np.abs(np.fft.rfft(noisy.samples)) ** 2
        lo_band = acc[8:16].mean()
        hi_band = acc[512:1024].mean()
        # PSD ~ 1/f: a 64x frequency step should drop power by ~64.
        assert lo_band / hi_band == pytest.approx(64.0, rel=0.5)


def whole_stream_capture(plan, scene, detector, seed=0, pd_side=sensor.PD1, dtype=np.float64):
    """Reference: synthesize -> add_noise -> apply_adc, each run once on the whole stream."""
    stream = sensor.synthesize(plan, scene, detector, pd_side, dtype=dtype)
    return sensor.apply_adc(sensor.add_noise(stream, detector, seed), detector)


def whole_stream_noise(samples, detector, seed):
    """Reference: every noise term drawn at full stream length in one call.

    The terms are summed in draw order, and their sum is added to the
    samples with one rounding to the samples' dtype.
    """
    rng = np.random.default_rng(seed)
    n = samples.size
    terms = []
    if detector.noise_sigma > 0:
        terms.append(rng.normal(0.0, detector.noise_sigma, n))
    if detector.shot_noise > 0:
        shot = np.sqrt(detector.shot_noise * np.clip(samples, 0.0, None))
        terms.append(rng.standard_normal(n) * shot)
    amplitude, alpha = detector.pink_noise
    if amplitude > 0:
        spectrum = np.fft.rfft(rng.standard_normal(n))
        shaping = np.zeros(spectrum.size)
        shaping[1:] = np.arange(1, spectrum.size, dtype=np.float64) ** (-alpha / 2.0)
        shaped = np.fft.irfft(spectrum * shaping, n)
        terms.append(shaped * (amplitude / float(np.sqrt(np.mean(shaped**2)))))
    return (samples + sum(terms[1:], terms[0])).astype(samples.dtype, copy=False)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "detector",
    [
        DetectorModel(noise_sigma=0.2, adc_bits=10, adc_fullscale=3.0),
        DetectorModel(shot_noise=0.3),
        DetectorModel(noise_sigma=0.2, shot_noise=1.0, pink_noise=(0.4, 1.5), adc_bits=8),
    ],
    ids=["white-adc", "shot", "white-shot-pink-adc"],
)
def test_blocked_noise_and_adc_match_whole_stream_reference(detector, dtype):
    # Block-wise draws must give the realization of one whole-stream draw.
    plan = make_plan(grid=PixelGrid(3, 3), channels=3, f1=2.0, sample_rate=64.0)
    scene = uniform_scene(plan.grid)
    stream = sensor.synthesize(plan, scene, dtype=dtype)
    want = whole_stream_noise(stream.samples, detector, seed=5)
    assert sensor.add_noise(stream, detector, seed=5).samples.tobytes() == want.tobytes()
    if detector.adc_bits is not None:
        step = detector.adc_fullscale / (2**detector.adc_bits - 1)
        want = np.round(np.clip(want, 0.0, detector.adc_fullscale) / step) * step
    want = want.astype(dtype, copy=False)
    with mock.patch.object(sensor, "BLOCK_SAMPLES", 3 * plan.samples_per_bit):
        blocks = list(sensor.capture_blocks(plan, scene, detector, seed=5, dtype=dtype))
    whole_draws = detector.shot_noise > 0 or detector.pink_noise[0] > 0
    assert len(blocks) == 1 if whole_draws else len(blocks) > 1
    assert np.concatenate([b.samples for b in blocks]).tobytes() == want.tobytes()


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
    plan, scene, _ = multi_block_frame()
    detector = DetectorModel(noise_sigma=0.1, shot_noise=1.0)
    before = threading.active_count()
    for _ in sensor.capture_blocks(plan, scene, detector, seed=3):
        assert threading.active_count() == before


def test_zero_size_noise_terms_capture_in_blocks_as_their_white_only_twin():
    # A shot or 1/f term of size 0 is off, so the capture keeps the white-only
    # twin's blocks and bytes instead of falling back to one whole-frame block.
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
    # Desk exp1-fmcdma in float32, 5.2 M samples in five blocks: 32.7 MiB
    # traced, against 120-160 MiB as one whole-frame block.
    config = presets.preset_config("exp1-fmcdma")
    plan = config.build_plan()
    scene = config.build_scene(plan.grid)
    detector = replace(config.detector, shot_noise=0.0, pink_noise=[0.0, 1.0]).build()
    tracemalloc.start()
    try:
        count = 0
        for _ in sensor.capture_blocks(plan, scene, detector, config.noise_seed, dtype=np.float32):
            count += 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 5
    assert peak < 48 * 2**20


def test_noise_ring_draws_the_next_block_while_this_one_is_noised():
    # add_noise of block i waits until draw i+1 has started, so a capture
    # that submits a draw only after the previous block's noise times out.
    plan, scene, block = multi_block_frame()
    detector = DetectorModel(noise_sigma=0.1, adc_bits=10)
    real_white_noise, real_add_noise = sensor.white_noise, sensor.add_noise
    with mock.patch.object(sensor, "BLOCK_SAMPLES", block):
        count = len(list(sensor.bit_blocks(plan.code_length, plan.samples_per_bit)))
        want = np.concatenate([b.samples for b in sensor.capture_blocks(plan, scene, detector, 3)])
    started = [threading.Event() for _ in range(count)]
    buffers, noised = [], []

    def recording_white_noise(rng, sigma, n, out):
        buffers.append(out.__array_interface__["data"][0])
        started[len(buffers) - 1].set()
        return real_white_noise(rng, sigma, n, out)

    def waiting_add_noise(stream, *args, **kwargs):
        i = len(noised)
        noised.append(i)
        if i + 1 < count:
            assert started[i + 1].wait(timeout=5), f"draw {i + 1} not started at block {i}'s noise"
        return real_add_noise(stream, *args, **kwargs)

    with mock.patch.object(sensor, "BLOCK_SAMPLES", block), \
            mock.patch.object(sensor, "white_noise", recording_white_noise), \
            mock.patch.object(sensor, "add_noise", waiting_add_noise):
        got = np.concatenate([b.samples for b in sensor.capture_blocks(plan, scene, detector, 3)])
    assert count > 2 and len(buffers) == len(noised) == count
    assert got.tobytes() == want.tobytes()
    assert len(set(buffers)) == 2
    assert all(a != b for a, b in zip(buffers, buffers[1:]))


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
