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

The keyed pixel -> (code, slot, carrier) map belongs to the plan: its
pixel_values, on_sums and hop methods give each bit's summed light per
carrier, and this module turns those sums into samples.

capture_blocks runs the capture chain synthesize -> add_noise -> apply_adc
one bit block at a time; capture, decode.decode_capture and caossim simulate
all take their samples from it, and write_stream appends each block to a file.
read_stream returns a StreamFile, which reads the file back in the same bit
blocks, so neither writing nor decoding a stream file holds the whole stream.
"""

from __future__ import annotations

import json
import os
from contextlib import closing, nullcontext
from dataclasses import dataclass, replace

import numpy as np

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
    """One frame's PD1 and PD2 streams: SampleStreams or StreamFiles."""

    pd1: SampleStream | StreamFile
    pd2: SampleStream | StreamFile

    def __post_init__(self):
        if self.pd1.pd_side == self.pd2.pd_side:
            side = self.pd1.pd_side
            raise ConfigError(f"dual streams need a {PD1} and a {PD2} stream, got two {side}")
        # Lengths from the fields, so that no stream file is read or mapped here.
        lengths = [side.bits * side.samples_per_bit for side in (self.pd1, self.pd2)]
        if self.pd1.rate != self.pd2.rate or lengths[0] != lengths[1]:
            raise LengthMismatch("dual streams must share rate and length")


# ---------------------------------------------------------------------------
# Carriers
# ---------------------------------------------------------------------------


def carrier_matrix(plan: CodingPlan) -> np.ndarray:
    """One bit of every channel's unit carrier, shape (channels, F): plan.carrier_matrix."""
    return plan.carrier_matrix


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _side_amplitudes(plan: CodingPlan, scene: Scene, responsivity, pd_side: str):
    """One detector side's per-bit coherent channel sums and what they ride on.

    Returns (amplitudes, waves, constant): the side's samples during bit w
    are amplitudes[w] @ waves + constant[w]. amplitudes is (W, channels), the
    summed irradiance riding each channel slot during each bit; waves is the
    (channels, F) unit waveform of each slot. PD1 and both sides of the
    complement-coded active mode ride the carriers, with no constant. Passive
    PD2 sees PD1's sums on the complement waveforms plus, as constant, the
    parked pixels' unmodulated light. PD2's light is taken from the sums
    before the hop, whose column order would change a row sum's rounding.
    """
    if scene.grid.columns != plan.grid.columns or scene.grid.rows != plan.grid.rows:
        raise DimensionMismatch(
            f"scene grid {scene.grid.columns}x{scene.grid.rows}"
            f" != plan grid {plan.grid.columns}x{plan.grid.rows}"
        )
    channels = plan.channel_count
    carriers = plan.carrier_matrix

    if plan.mode is Mode.ACTIVE_OVERLAPPED:
        if scene.per_source is None:
            raise DimensionMismatch("active overlapped capture needs a per-source scene")
        if scene.source_count != channels:
            raise DimensionMismatch(
                f"scene has {scene.source_count} sources, plan has {channels} channels"
            )
        per_pixel = np.stack([plan.pixel_values(image) for image in scene.per_source], axis=1)
        sums = plan.on_sums(per_pixel)  # (W, channels) per-source ON sums
        if pd_side == PD2:
            sums = per_pixel.sum(axis=0)[None, :] - sums
        return plan.hop(sums), carriers, None

    if scene.per_source is not None:
        raise ConfigError(f"a per-source scene needs active-overlapped mode, not {plan.mode.value}")
    values = plan.pixel_values(scene.effective_irradiance(responsivity))
    sums = plan.on_sums(values)  # (W, channels) ON sums per channel slot
    if pd_side == PD1:
        return plan.hop(sums), carriers, None
    parked = float(values.sum()) - sums.sum(axis=1)  # (W,) light resting on PD2
    return plan.hop(sums), 1.0 - carriers, parked


#: Samples per processing block. synthesize, per_bit_spectra and capture_blocks
#: walk the frame in the same bit blocks, so the per-block matrix products see
#: the same inputs on every path. 2**20 samples keep each block's temporaries
#: at 8 MiB in float64; smaller blocks pay per-block fixed costs (each
#: synthesize call's channel sums, each write_stream's sidecar) more often.
BLOCK_SAMPLES = 1 << 20


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
    """Seeded detector noise: white Gaussian, shot and 1/f terms, each on when its size is > 0.

    seed is anything np.random.default_rng accepts; a Generator is drawn from
    in place, so successive calls continue one noise sequence. white, if
    given, is the white term already drawn with white_noise from that
    generator, and is added instead of drawing it. The terms are drawn in
    that order and summed into one float64 noise array, which is added to
    the stream with one rounding to its dtype. Returns the input stream
    itself when the detector has no noise term.
    """
    rng = np.random.default_rng(seed)
    n = stream.samples.size
    amplitude, alpha = detector.pink_noise
    pink = amplitude > 0 and n > 2
    if not (detector.noise_sigma > 0 or detector.shot_noise > 0 or pink):
        return stream
    # The output comes before the draws, so freeing them leaves no hole in the heap below it.
    samples = np.empty_like(stream.samples)
    noise = white
    if noise is None and detector.noise_sigma > 0:
        noise = white_noise(rng, detector.noise_sigma, n)
    if detector.shot_noise > 0:
        # Gaussian approximation: variance proportional to the clean signal.
        shot = rng.standard_normal(n)
        shot *= np.sqrt(detector.shot_noise * np.clip(stream.samples, 0.0, None))
        noise = shot if noise is None else np.add(noise, shot, out=shot)
    if pink:
        spectrum = np.fft.rfft(rng.standard_normal(n))
        shaping = np.zeros(spectrum.size)
        shaping[1:] = np.arange(1, spectrum.size, dtype=np.float64) ** (-alpha / 2.0)
        shaped = np.fft.irfft(spectrum * shaping, n)
        rms = float(np.sqrt(np.mean(shaped**2)))
        shaped *= amplitude / rms if rms > 0 else 0.0
        noise = shaped if noise is None else np.add(noise, shaped, out=shaped)
    np.add(stream.samples, noise, out=samples, casting="same_kind")
    return replace(stream, samples=samples)


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
    the two independent generators default_rng(seed) spawns, so a pair takes
    every seed one detector takes, a Generator included.
    """
    detectors = tuple(detectors)
    if len(detectors) == 1:
        return [(detectors[0], seed, PD1)]
    if len(detectors) != 2:
        raise ConfigError(f"a capture has one or two detectors, got {len(detectors)}")
    return list(zip(detectors, np.random.default_rng(seed).spawn(2), (PD1, PD2)))


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
    Shot and 1/f terms are drawn over the whole stream, so a detector with
    either term on (size > 0) is captured as one block.

    With white noise and several blocks, the draws run on one worker thread
    (numpy releases the GIL) into a ring of two buffers, which blocks use in
    turn. Block i+1's draw is submitted as soon as block i's white term is
    returned, so the worker draws while block i's noise and ADC run, while
    the caller consumes it and while block i+1 is synthesized. Only one draw
    is ever in flight, so the generator is drawn in order. Block i+1's draw
    goes into block i-1's buffer, whose noise was added before block i-1 was
    yielded. The worker calls numpy only, through white_noise. Closing the
    generator, or an error in either thread, ends the worker before the
    generator returns.
    """
    f_count, sigma = plan.samples_per_bit, detector.noise_sigma
    whole = detector.shot_noise > 0 or detector.pink_noise[0] > 0
    ranges = [(0, plan.code_length)] if whole else list(bit_blocks(plan.code_length, f_count))
    rng = np.random.default_rng(seed)
    # One block has nothing to overlap, so add_noise draws its white term itself;
    # several share two buffers the size of the first, largest, block.
    prefetch = sigma > 0 and len(ranges) > 1
    largest = (ranges[0][1] - ranges[0][0]) * f_count if prefetch else 0
    ring = (np.empty(largest), np.empty(largest))
    if prefetch:  # imported here, so that `import caossim` loads neither it nor logging
        from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, "caossim-noise") if prefetch else nullcontext() as pool:

        def draw(i):
            """Start block i's white draw; returns a callable giving the term, or None."""
            if not prefetch:
                return lambda: None
            size = (ranges[i][1] - ranges[i][0]) * f_count
            return pool.submit(white_noise, rng, sigma, size, ring[i % 2][:size]).result

        pending = draw(0)
        for i, bits in enumerate(ranges):
            # Each stage rebinds block, so no earlier stage is held across the yield.
            block = synthesize(plan, scene, detector, pd_side, dtype, bit_range=bits)
            white = pending()
            if i + 1 < len(ranges):
                pending = draw(i + 1)  # into the other buffer, before block i's noise
            block = add_noise(block, detector, rng, white=white)
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


@dataclass(frozen=True)
class StreamFile:
    """A stream file, read lazily: the raw .f32 path and its sidecar's fields.

    Iterating it yields the stream as consecutive SampleStreams of the
    bit_blocks ranges, each read from the file with its own np.fromfile, so
    a consumer such as decode.decode_frame holds one block at a time and no
    file handle stays open between blocks. A block the file no longer holds
    in full raises LengthMismatch. samples maps the whole file, for callers
    that need the array; the decode path does not use it.
    """

    path: str
    rate: float
    bits: int
    samples_per_bit: int
    pd_side: str = PD1
    gain: float = 1.0
    first_bit = 0  # a stream file starts at frame bit 0

    @property
    def samples(self) -> np.memmap:
        """The whole stream as a read-only float32 memmap, mapped on each read.

        Mapped pages count in the process's resident memory once read.
        """
        length = self.bits * self.samples_per_bit
        return np.memmap(self.path, dtype="<f4", mode="r", shape=(length,))

    def __iter__(self):
        f_count = self.samples_per_bit
        for start, stop in bit_blocks(self.bits, f_count):
            count = (stop - start) * f_count
            samples = np.fromfile(self.path, dtype="<f4", count=count, offset=4 * start * f_count)
            if samples.size != count:
                raise LengthMismatch(f"{self.path} ends inside bits {start}..{stop - 1}")
            yield SampleStream(
                self.rate, samples, stop - start, f_count, self.pd_side, self.gain, start
            )


def read_stream(base) -> StreamFile:
    """The stream file at base (with or without .f32), checked; reads no sample.

    The sidecar must parse and declare length == bits * samples_per_bit, and
    the raw file must hold exactly 4 * length bytes, so a file with a cut or
    extra sample is refused (LengthMismatch) rather than trimmed.
    """
    raw_path, meta_path = stream_paths(base)
    with open(meta_path, encoding="utf-8") as fh:
        body = document_fields(json.load(fh), _STREAM_FORMAT, _STREAM_VERSION)
    fields = parse_fields(body, _SIDECAR_FIELDS, {}, "stream sidecar")
    length = fields.pop("length")
    with open(raw_path, "rb") as fh:  # a missing or unreadable file fails here
        size = os.fstat(fh.fileno()).st_size
    if size != 4 * length:
        raise LengthMismatch(f"raw file has {size} bytes, sidecar declares {length} samples")
    if length != fields["bits"] * fields["samples_per_bit"]:
        raise LengthMismatch(
            f"stream length {length} != {fields['bits']} * {fields['samples_per_bit']}"
        )
    return StreamFile(raw_path, **fields)
