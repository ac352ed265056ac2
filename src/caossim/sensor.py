"""Photodetector sample-stream synthesis for coded-access captures.

Per bit w and sample t the detector current is the sum over pixels of
irradiance x code bit x carrier value, times the detector gain. Square
carriers are ideal 0/1 waves with sample-aligned edges, phase-locked to the
bit boundary (one DMD frame clock), so same-channel contributions add
coherently. The complementary mirror state routes light to the second
detector: during a code-1 bit PD2 sees 1 - carrier, and a parked pixel
(code 0) rests on PD2 for the whole bit. Sine carriers model modulated
active sources and ride on the light itself, so a parked pixel hands its
full modulated signal to PD2.

capture_blocks runs the capture chain synthesize -> add_noise -> apply_adc
one bit block at a time; capture, decode.decode_capture and caossim simulate
all take their samples from it, and write_stream appends each block to a file.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import closing, nullcontext
from dataclasses import dataclass, replace

import numpy as np

from .codes import hadamard_transform
from .errors import ConfigError, DimensionMismatch, LengthMismatch
from .plan import CodingPlan, Mode, document_fields, json_int, json_real, parse_fields, write_json
from .scene import DetectorModel, Scene

PD1 = "pd1"
PD2 = "pd2"


@dataclass(frozen=True, eq=False)
class SampleStream:
    """Digitized detector output: length == bits * samples_per_bit, from frame bit first_bit."""

    rate: float
    samples: np.ndarray
    bits: int
    samples_per_bit: int
    pd_side: str = PD1
    gain: float = 1.0
    first_bit: int = 0

    def __post_init__(self):
        if self.samples.ndim != 1:
            raise LengthMismatch("stream samples must be 1-D")
        if self.samples.size != self.bits * self.samples_per_bit:
            raise LengthMismatch(
                f"stream length {self.samples.size} != {self.bits} * {self.samples_per_bit}"
            )

    def per_bit(self) -> np.ndarray:
        """(bits, samples_per_bit) view of the samples."""
        return self.samples.reshape(self.bits, self.samples_per_bit)


@dataclass(frozen=True, eq=False)
class DualStreams:
    pd1: SampleStream
    pd2: SampleStream

    def __post_init__(self):
        if (
            self.pd1.rate != self.pd2.rate
            or self.pd1.samples.size != self.pd2.samples.size
        ):
            raise LengthMismatch("dual streams must share rate and length")


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------


def carrier_matrix(plan: CodingPlan) -> np.ndarray:
    """One bit of every channel's unit carrier, shape (channels, F).

    Square: 50% duty 0/1 wave at f_p starting ON at the bit boundary.
    Sine: (1 + sin(2 pi f_p t + phase_p)) / 2 with keyed per-channel phase.
    Plain (waveform "none"): constant 1, the mirror statically on.
    """
    f_count = plan.samples_per_bit
    waveform = plan.frequencies.waveform
    rows = []
    for p, freq in enumerate(plan.frequencies.frequencies):
        cycles = freq * plan.frequencies.bit_duration
        if waveform == "none":
            rows.append(np.ones(f_count))
        elif waveform == "square":
            k = round(cycles)
            if abs(cycles - k) < 1e-9:
                # Integer cycles: exact integer edge test.
                ticks = (k * np.arange(f_count, dtype=np.int64)) % f_count
                rows.append((2 * ticks < f_count).astype(np.float64))
            else:
                phase = (cycles * np.arange(f_count) / f_count) % 1.0
                rows.append((phase < 0.5).astype(np.float64))
        elif waveform == "sine":
            t = np.arange(f_count) / f_count
            rows.append(0.5 * (1.0 + np.sin(2.0 * math.pi * cycles * t + plan.carrier_phases[p])))
        else:
            raise ConfigError(f"unknown waveform {waveform!r}")
    return np.stack(rows)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _pixel_values(plan: CodingPlan, image: np.ndarray) -> np.ndarray:
    """Per active pixel value, aligned with plan.positions()."""
    pos = np.asarray(plan.positions(), dtype=np.int64)
    return np.asarray(image, dtype=np.float64)[pos[:, 1] - 1, pos[:, 0] - 1]


def _on_sums(plan: CodingPlan, per_set: np.ndarray) -> np.ndarray:
    """(W, channels) sums of the per_set rows whose code bit is 1 during each bit.

    Set j's code is (1 + H[1 + code_row[j]]) / 2, so the sums are
    (per_set.sum(0) + H.T @ y) / 2 with per_set scattered to rows
    1 + code_row of an otherwise zero y. An FM-TDMA set is on in its own slot only.
    """
    if plan.mode is Mode.FM_TDMA:
        return per_set
    y = np.zeros((plan.code_length, per_set.shape[1]))
    y[1 + plan.code_row] = per_set
    return (per_set.sum(axis=0) + hadamard_transform(y, transpose=True)) / 2


def _side_amplitudes(plan: CodingPlan, scene: Scene, responsivity, pd_side: str):
    """One detector side's per-bit coherent channel sums and what they ride on.

    Returns (amplitudes, waves, constant): the side's samples during bit w
    are amplitudes[w] @ waves + constant[w]. amplitudes is (W, channels), the
    summed irradiance riding each channel slot during each bit; waves is the
    (channels, F) unit waveform of each slot. PD1 and both sides of the
    complement-coded active mode ride the carriers, with no constant. Passive
    PD2 sees PD1's sums on the complement waveforms plus, as constant, the
    parked pixels' unmodulated light.
    """
    if scene.grid.columns != plan.grid.columns or scene.grid.rows != plan.grid.rows:
        raise DimensionMismatch(
            f"scene grid {scene.grid.columns}x{scene.grid.rows}"
            f" != plan grid {plan.grid.columns}x{plan.grid.rows}"
        )
    channels = plan.channel_count
    carriers = carrier_matrix(plan)

    if plan.mode is Mode.ACTIVE_OVERLAPPED:
        if scene.per_source is None:
            raise DimensionMismatch("active overlapped capture needs a per-source scene")
        if scene.source_count != channels:
            raise DimensionMismatch(
                f"scene has {scene.source_count} sources, plan has {channels} channels"
            )
        per_pixel = np.stack(
            [_pixel_values(plan, scene.per_source[p]) for p in range(channels)], axis=1
        )  # (Q, channels); pixel order == position order
        by_code = np.zeros_like(per_pixel)
        by_code[plan.set_index] = per_pixel  # reorder into set order
        sums = _on_sums(plan, by_code)  # (W, channels) per-source ON sums
        if pd_side == PD2:
            sums = per_pixel.sum(axis=0)[None, :] - sums
        return _apply_hops(plan, sums), carriers, None

    values = _pixel_values(plan, scene.effective_irradiance(responsivity))
    member_sums = np.zeros((plan.set_count, channels))
    np.add.at(member_sums, (plan.set_index, plan.member_index), values)
    sums = _on_sums(plan, member_sums)  # (W, channels) ON sums per channel slot
    if pd_side == PD1:
        return _apply_hops(plan, sums), carriers, None
    parked = float(values.sum()) - sums.sum(axis=1)  # (W,) light resting on PD2
    return _apply_hops(plan, sums), 1.0 - carriers, parked


def _apply_hops(plan: CodingPlan, member_sums: np.ndarray) -> np.ndarray:
    """Map member-slot sums to carrier channels through the hop schedule."""
    if plan.hop_schedule is None:
        return member_sums
    out = np.zeros_like(member_sums)
    rows = np.arange(member_sums.shape[0])[:, None]
    out[rows, plan.hop_schedule] = member_sums
    return out


#: Samples per processing block. synthesize, per_bit_spectra and capture_blocks
#: walk the frame in the same bit blocks, so the per-block matrix products see
#: the same inputs on every path.
BLOCK_SAMPLES = 4_000_000


def bit_blocks(bits: int, samples_per_bit: int):
    """(start, stop) bit ranges of at most about BLOCK_SAMPLES samples each."""
    chunk = max(1, BLOCK_SAMPLES // max(samples_per_bit, 1))
    for start in range(0, bits, chunk):
        yield start, min(bits, start + chunk)


def synthesize(
    plan: CodingPlan,
    scene: Scene,
    detector: DetectorModel | None = None,
    pd_side: str = PD1,
    dtype=np.float64,
    *,
    bit_range: tuple[int, int] | None = None,
) -> SampleStream:
    """Noiseless, unquantized encoded stream for one detector side.

    bit_range=(start, stop) synthesizes only bits start..stop-1 of the frame,
    as a stream of stop - start bits with first_bit start.
    """
    detector = detector or DetectorModel()
    if pd_side not in (PD1, PD2):
        raise ConfigError(f"pd_side must be {PD1!r} or {PD2!r}")
    first, last = bit_range or (0, plan.code_length)
    if not 0 <= first < last <= plan.code_length:
        raise ConfigError(f"bit range {bit_range} is outside the {plan.code_length}-bit frame")
    amplitudes, waves, constant = _side_amplitudes(plan, scene, detector.responsivity, pd_side)
    f_count = plan.samples_per_bit
    gain = detector.gain

    out = np.empty((last - first) * f_count, dtype=dtype)
    for start, stop in bit_blocks(plan.code_length, f_count):
        if stop <= first or start >= last:
            continue
        # Whole frame blocks: a product's rounding can depend on its shape.
        block = amplitudes[start:stop] @ waves
        if constant is not None:
            block += constant[start:stop, None]
        lo, hi = max(start, first), min(stop, last)
        target = out[(lo - first) * f_count : (hi - first) * f_count].reshape(hi - lo, f_count)
        np.multiply(block[lo - start : hi - start], gain, out=target)
    return SampleStream(
        rate=plan.sample_rate,
        samples=out,
        bits=last - first,
        samples_per_bit=f_count,
        pd_side=pd_side,
        gain=gain,
        first_bit=first,
    )


# ---------------------------------------------------------------------------
# Noise and digitization
# ---------------------------------------------------------------------------


def white_noise(rng: np.random.Generator, sigma: float, n: int, out=None) -> np.ndarray:
    """n white Gaussian samples of std sigma drawn from rng, into out if given.

    Bitwise rng.normal(0.0, sigma, n), which computes 0.0 + sigma * z from
    the same standard normal draws z, except where sigma * z is -0.0: normal
    turns that into +0.0, and a sum with any sample but -0.0 is the same
    either way. Calls numpy only.
    """
    out = rng.standard_normal(n, out=out)
    out *= sigma
    return out


def add_noise(stream: SampleStream, detector: DetectorModel, seed, *, white=None) -> SampleStream:
    """Seeded detector noise: white Gaussian, optional shot and 1/f terms.

    seed is anything np.random.default_rng accepts; a Generator is drawn from
    in place, so successive calls continue one noise sequence. white, if
    given, is the white term already drawn with white_noise from that
    generator, and is added instead of drawing it. Returns the input stream
    itself when the detector has no noise term.
    """
    rng = np.random.default_rng(seed)
    if not (detector.noise_sigma > 0 or detector.shot_noise or detector.pink_noise is not None):
        return stream
    n = stream.samples.size
    white_only = not (detector.shot_noise or detector.pink_noise is not None)
    # A white-only sum is rounded once to the stream dtype, with no float64
    # copy. The output comes before the draw, so freeing the draw leaves no
    # hole in the heap below it.
    samples = np.empty_like(stream.samples) if white_only else stream.samples.astype(np.float64)
    if detector.noise_sigma > 0 and white is None:
        white = white_noise(rng, detector.noise_sigma, n)
    if white_only:
        np.add(stream.samples, white, out=samples, casting="same_kind")
        return replace(stream, samples=samples)
    if white is not None:
        samples += white
    if detector.shot_noise:
        # Gaussian approximation: variance proportional to the clean signal.
        sigma = np.sqrt(detector.shot_factor * np.clip(stream.samples, 0.0, None))
        samples += rng.standard_normal(n) * sigma
    if detector.pink_noise is not None:
        amplitude, alpha = detector.pink_noise
        if amplitude > 0 and n > 2:
            spectrum = np.fft.rfft(rng.standard_normal(n))
            shaping = np.zeros(spectrum.size)
            shaping[1:] = np.arange(1, spectrum.size, dtype=np.float64) ** (-alpha / 2.0)
            shaped = np.fft.irfft(spectrum * shaping, n)
            rms = float(np.sqrt(np.mean(shaped**2)))
            if rms > 0:
                samples += shaped * (amplitude / rms)
    return replace(stream, samples=samples.astype(stream.samples.dtype, copy=False))


def apply_adc(stream: SampleStream, detector: DetectorModel) -> SampleStream:
    """Clamp to [0, fullscale] and quantize to adc_bits levels; identity if unset."""
    if detector.adc_bits is None:
        return stream
    step = detector.adc_fullscale / (2**detector.adc_bits - 1)
    quantized = np.clip(stream.samples, 0.0, detector.adc_fullscale)
    quantized /= step
    np.round(quantized, out=quantized)
    quantized *= step
    return replace(stream, samples=quantized)


def capture(
    plan: CodingPlan,
    scene: Scene,
    detector: DetectorModel | None = None,
    seed=0,
    pd_side: str = PD1,
    dtype=np.float64,
) -> SampleStream:
    """The capture_blocks chain of one side as one stream; a one-block frame is returned as is."""
    samples = None
    blocks = capture_blocks(plan, scene, detector or DetectorModel(), seed, pd_side, dtype)
    with closing(blocks):
        for block in blocks:
            if block.bits == plan.code_length:
                return block
            if samples is None:
                samples = np.empty(plan.frame_samples, dtype=dtype)
            start = block.first_bit * plan.samples_per_bit
            samples[start : start + block.samples.size] = block.samples
    return replace(block, samples=samples, bits=plan.code_length, first_bit=0)


def capture_sides(detectors, seed) -> list:
    """(detector, seed, pd_side) per captured side.

    One detector reads PD1 with seed itself; a pair reads PD1 and PD2 with
    independent seeds spawned from seed.
    """
    detectors = tuple(detectors)
    if len(detectors) == 1:
        return [(detectors[0], seed, PD1)]
    if len(detectors) != 2:
        raise ConfigError(f"a capture has one or two detectors, got {len(detectors)}")
    return list(zip(detectors, np.random.SeedSequence(seed).spawn(2), (PD1, PD2)))


def capture_dual(
    plan: CodingPlan,
    scene: Scene,
    detector: DetectorModel | None = None,
    detector2: DetectorModel | None = None,
    seed=0,
    dtype=np.float64,
) -> DualStreams:
    """Dual capture with independent noise draws per detector."""
    detector = detector or DetectorModel()
    sides = capture_sides((detector, detector2 or detector), seed)
    return DualStreams(*(capture(plan, scene, det, s, side, dtype) for det, s, side in sides))


def capture_blocks(
    plan: CodingPlan,
    scene: Scene,
    detector: DetectorModel,
    seed=0,
    pd_side: str = PD1,
    dtype=np.float64,
):
    """The capture chain of one detector side: synthesize -> add_noise -> apply_adc.

    This generator is the one place where the chain runs. It yields the
    stream as consecutive SampleStreams of the bit_blocks ranges, so the
    whole stream never exists at once. White noise is drawn block by block
    from one default_rng(seed), which concatenates exactly to a single draw.
    Shot and 1/f terms are drawn over the whole stream, so a detector using
    either is captured as one block.

    With white noise and several blocks, block i+1's draw runs on one worker
    thread (numpy releases the GIL) into one reused buffer, submitted once
    block i's noise is added. The worker calls numpy only, through
    white_noise. Closing the generator, or an error in either thread, ends
    the worker before the generator returns.
    """
    f_count, sigma = plan.samples_per_bit, detector.noise_sigma
    whole = detector.shot_noise or detector.pink_noise is not None
    ranges = [(0, plan.code_length)] if whole else list(bit_blocks(plan.code_length, f_count))
    rng = np.random.default_rng(seed)
    # One block has nothing to overlap, so add_noise draws its white term itself;
    # several share one buffer the size of the first, largest, block.
    prefetch = sigma > 0 and len(ranges) > 1
    buffer = np.empty((ranges[0][1] - ranges[0][0]) * f_count if prefetch else 0)
    if prefetch:  # imported here, so that `import caossim` loads neither it nor logging
        from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, "caossim-noise") if prefetch else nullcontext() as pool:

        def draw(bit_range):
            """Start bit_range's white draw; returns a callable giving the term, or None."""
            if not prefetch:
                return lambda: None
            size = (bit_range[1] - bit_range[0]) * f_count
            return pool.submit(white_noise, rng, sigma, size, buffer[:size]).result

        pending = draw(ranges[0])
        for i, bits in enumerate(ranges):
            # Each stage rebinds block, so no earlier stage is held across the yield.
            block = synthesize(plan, scene, detector, pd_side, dtype, bit_range=bits)
            block = add_noise(block, detector, rng, white=pending())
            if i + 1 < len(ranges):
                pending = draw(ranges[i + 1])  # the buffer is free again
            block = apply_adc(block, detector)
            yield block


# ---------------------------------------------------------------------------
# Stream files: raw little-endian float32 plus a JSON sidecar
# ---------------------------------------------------------------------------

_STREAM_FORMAT = "caossim-stream"
_STREAM_VERSION = 1


def stream_paths(base):
    base = os.fspath(base)
    if base.endswith(".f32"):
        base = base[:-4]
    return base + ".f32", base + ".json"


def write_stream(stream: SampleStream, base) -> tuple[str, str]:
    """Write a stream as raw little-endian float32 plus a JSON sidecar, block by block.

    A block goes at bit first_bit of the .f32 file, which must hold exactly
    that many bits (bit 0 starts the file). The sidecar is rewritten to cover
    every bit written so far, so the pair is always a valid stream.
    """
    raw_path, meta_path = stream_paths(base)
    f_count = stream.samples_per_bit
    held = os.path.getsize(raw_path) if stream.first_bit and os.path.exists(raw_path) else 0
    if held != 4 * stream.first_bit * f_count:
        raise LengthMismatch(f"{raw_path} does not end at bit {stream.first_bit}")
    with open(raw_path, "ab" if stream.first_bit else "wb") as fh:
        np.asarray(stream.samples, dtype="<f4").tofile(fh)
    bits = stream.first_bit + stream.bits
    meta = {
        "format": _STREAM_FORMAT,
        "version": _STREAM_VERSION,
        "rate": stream.rate,
        "length": bits * f_count,
        "bits": bits,
        "samples_per_bit": f_count,
        "pd_side": stream.pd_side,
        "gain": stream.gain,
    }
    write_json(meta, meta_path)
    return raw_path, meta_path


def _pd_side(value) -> str:
    if value not in (PD1, PD2):
        raise ValueError(f"expected {PD1!r} or {PD2!r}, got {value!r}")
    return value


#: Stream sidecar fields after format and version, with their JSON parsers.
_SIDECAR_FIELDS = {
    "rate": json_real,
    "length": json_int,
    "bits": json_int,
    "samples_per_bit": json_int,
    "pd_side": _pd_side,
    "gain": json_real,
}


def read_stream(base) -> SampleStream:
    raw_path, meta_path = stream_paths(base)
    with open(meta_path, encoding="utf-8") as fh:
        body = document_fields(json.load(fh), _STREAM_FORMAT, _STREAM_VERSION)
    fields = parse_fields(body, _SIDECAR_FIELDS, {}, "stream sidecar")
    length = fields.pop("length")
    samples = np.fromfile(raw_path, dtype="<f4")
    if samples.size != length:
        raise LengthMismatch(f"raw file has {samples.size} samples, sidecar declares {length}")
    return SampleStream(samples=samples, **fields)
