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
carrier, and this module turns those sums into samples. Every carrier
repeats bitwise every plan.carrier_period samples L, so the plan keeps one
period of each, (channels, L) plan.period_carriers, and synthesize multiplies
out one period per bit and copies it over the bit.

capture_blocks runs the capture chain synthesize -> add_noise -> apply_adc
one bit block at a time, every block continuing the side's one Noise;
capture, decode.decode_capture and caossim simulate take their samples from
it, and write_stream writes each block in place. read_stream returns a
StreamFile, read back in the same bit blocks. Each stage drops a block
before the next is made or read: a capture or file decode holds one block.
"""

from __future__ import annotations

import json
import os
from contextlib import closing, nullcontext
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np

from .errors import ConfigError, DimensionMismatch, LengthMismatch, PlanMismatch
from .plan import CodingPlan, Mode, document_fields, json_choice, json_int, json_real, json_text
from .plan import parse_fields, write_at, write_json
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
    are amplitudes[w] @ waves + constant[w], repeated over the bit. amplitudes
    is (W, channels), the summed irradiance riding each channel slot during
    each bit; waves is one carrier period, the (channels, L) unit waveform of
    each slot over L = plan.carrier_period samples. PD1 and both sides of the
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
    carriers = plan.period_carriers

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
#: the same inputs on every path. capture_blocks computes each side's channel
#: sums once and noises and quantizes each block in place, so the size sets
#: only the memory a capture holds: 2**19 samples keep one float64 block at 4 MiB.
BLOCK_SAMPLES = 1 << 19

#: Samples per white-noise chunk and chunk buffers in a Noise's ring: sample k of a
#: side's frame is drawn into chunk k // NOISE_CHUNK, whatever the block size.
NOISE_CHUNK, NOISE_RING = 1 << 17, 2


def bit_blocks(bits: int, samples_per_bit: int, first: int = 0, last: int | None = None):
    """(start, stop) ranges of the bit blocks holding bits first..last-1, of BLOCK_SAMPLES or so."""
    chunk = max(1, BLOCK_SAMPLES // max(samples_per_bit, 1))
    for start in range(first - first % chunk, bits if last is None else last, chunk):
        yield start, min(bits, start + chunk)


def synthesize(
    plan: CodingPlan,
    scene: Scene,
    detector: DetectorModel | None = None,
    pd_side: str = PD1,
    dtype=np.float64,
    *,
    bit_range: tuple[int, int] | None = None,
    sums=None,
) -> SampleStream:
    """Noiseless, unquantized encoded stream for one detector side.

    Each bit block's samples are one (bits, L) float64 product over one
    carrier period L = plan.carrier_period, plus the constant, times the
    gain, cast once to dtype and copied into each of the bit's F / L periods:
    bitwise the whole-bit (bits, F) product, at 1/g of its multiplies.
    bit_range=(start, stop) synthesizes only bits start..stop-1 of the frame,
    as a stream of stop - start bits with first_bit start. sums, if given, is
    a callable returning this side's _side_amplitudes, as capture_blocks passes.
    """
    detector = detector or DetectorModel()
    if pd_side not in (PD1, PD2):
        raise ConfigError(f"pd_side must be {PD1!r} or {PD2!r}")
    first, last = bit_range or (0, plan.code_length)
    if not 0 <= first < last <= plan.code_length:
        raise ConfigError(f"bit range {bit_range} is outside the {plan.code_length}-bit frame")
    sums = sums or partial(_side_amplitudes, plan, scene, detector.responsivity, pd_side)
    amplitudes, waves, constant = sums()
    f_count, period, gain = plan.samples_per_bit, plan.carrier_period, detector.gain

    out = np.empty((last - first) * f_count, dtype=dtype)
    for start, stop in bit_blocks(plan.code_length, f_count, first, last):
        # Whole frame blocks: a product's rounding can depend on its shape.
        block = amplitudes[start:stop] @ waves
        if constant is not None:
            block += constant[start:stop, None]
        block *= gain
        lo, hi = max(start, first), min(stop, last)
        target = out[(lo - first) * f_count : (hi - first) * f_count].reshape(hi - lo, -1, period)
        target[...] = block[lo - start : hi - start, None].astype(dtype, copy=False)
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


#: Taps of the 1/f filter and samples per segment; the spectrum is flat below rate / PINK_TAPS.
PINK_TAPS = 1 << 16


@cache
def _pink_response(size: int, amplitude: float, alpha: float) -> np.ndarray:
    """The read-only 2 * size-point response of _pink_segments' size taps, built once."""
    taps = np.cumprod(np.r_[1.0, (alpha / 2 + np.arange(size - 1)) / np.arange(1, size)])
    response = np.fft.rfft(taps * (amplitude / np.linalg.norm(taps)), 2 * size)
    response.flags.writeable = False
    return response


def _pink_segments(rng: np.random.Generator, amplitude: float, alpha: float):
    """Endless PINK_TAPS-sample segments of stationary 1/f**alpha noise of expected RMS amplitude.

    Kasdin's fractional integration (Proc. IEEE 83(5), 1995): normals from
    rng, history included, through the taps h_0 = 1, h_k = h_(k-1) * (alpha/2
    + k - 1) / k scaled to sum(h**2) = amplitude**2, by overlap-save FFTs
    run in place, so that a segment allocates only its own copy.
    """
    size, inputs = PINK_TAPS, rng.standard_normal(2 * PINK_TAPS)
    response = _pink_response(size, amplitude, alpha)
    spectrum, out = np.empty_like(response), np.empty(2 * size)
    while True:
        np.multiply(np.fft.rfft(inputs, out=spectrum), response, out=spectrum)
        yield np.fft.irfft(spectrum, 2 * size, out=out)[size:].copy()
        inputs[:size] = inputs[size:]
        rng.standard_normal(size, out=inputs[size:])


class Noise:
    """One capture side's noise state, which successive add_noise calls continue.

    White draws from rng = default_rng(seed), shot and 1/f from rng.spawn(2) when either is
    on, each in order, so no realization depends on how the stream is cut into blocks or chunks.
    pieces cuts each call's samples where sample k of the side's stream lies in white chunk
    k // NOISE_CHUNK. Without a pool each piece's white term is drawn as it is taken, into one
    chunk buffer. With pool, a one-thread executor (numpy releases the GIL), and the stream's
    length, the worker draws chunk after chunk into a ring of NOISE_RING buffers that chunks
    use in turn: once a chunk's last piece is added, the draw of the chunk NOISE_RING further
    on is submitted into its buffer, so the worker draws ahead while the caller works. One
    worker runs its draws in the order they are submitted, so rng is drawn in order.
    """

    def __init__(self, seed, detector: DetectorModel, pool=None, length=0):
        self.rng, self.detector = np.random.default_rng(seed), detector
        self.sigma = detector.noise_sigma
        self.pool, self.length, self.at, self.drawn = pool, length, 0, {}  # drawn: chunk -> future
        if detector.shot_noise > 0 or detector.pink_noise[0] > 0:
            self.shot, pink = self.rng.spawn(2)
            self.pink, self.held = _pink_segments(pink, *detector.pink_noise), np.empty(0)
        self.ring = [np.empty(NOISE_CHUNK) for _ in range(NOISE_RING if pool else self.sigma > 0)]
        for chunk in range(len(self.ring) if pool else 0):
            self._draw(chunk)

    def _draw(self, chunk: int):
        """Submit the white draw of chunk, if the stream has it, into its ring buffer."""
        if chunk * NOISE_CHUNK < self.length:
            out = self.ring[chunk % len(self.ring)][: self.length - chunk * NOISE_CHUNK]
            self.drawn[chunk] = self.pool.submit(white_noise, self.rng, self.sigma, out.size, out)

    def pieces(self, n: int):
        """(start, stop, white) of the next n samples, cut at chunk ends; white is None when off.

        Run it to its end: a chunk's buffer is recycled only after its last piece is added.
        """
        start = 0
        while start < n:
            chunk, offset = divmod(self.at, NOISE_CHUNK)
            size = min(n - start, NOISE_CHUNK - offset)
            white = None
            if self.pool is not None:
                white = self.drawn[chunk].result()[offset : offset + size]
            elif self.sigma > 0:
                white = white_noise(self.rng, self.sigma, size, self.ring[0][:size])
            yield start, start + size, white
            self.at, start = self.at + size, start + size
            if self.pool is not None and self.at % NOISE_CHUNK == 0:
                del self.drawn[chunk]  # added, so its buffer is free
                self._draw(chunk + len(self.ring))

    def pink_term(self, n: int) -> np.ndarray:
        """The next n samples of the 1/f term; the rest of the last segment is held."""
        parts = [self.held]
        while sum(map(len, parts)) < n:
            parts.append(next(self.pink))
        term = np.concatenate(parts)
        self.held = term[n:].copy()
        return term[:n]


def add_noise(stream: SampleStream, detector: DetectorModel, seed, *, out=None) -> SampleStream:
    """Seeded detector noise: white Gaussian, shot and 1/f terms, each on when its size is > 0.

    seed is a Noise, which the call continues, or anything np.random.default_rng
    accepts, for a Noise of its own: an int repeats every term, a Generator draws
    each anew, and a SeedSequence repeats white but spawns new shot and 1/f terms.
    A Noise built for other noise terms is refused (ConfigError). The stream is
    noised in the Noise's pieces: each piece's white, shot and 1/f terms are drawn
    in that order, summed, (white + shot) + 1/f in float64, and added to the
    stream with one rounding to its dtype, into out (np.empty_like if None, else
    an array of the stream's shape, such as stream.samples). Returns the input
    stream itself when the detector has no noise term.
    """
    state = seed if isinstance(seed, Noise) else Noise(seed, detector)
    for name in ("noise_sigma", "shot_noise", "pink_noise"):
        if getattr(state.detector, name) != getattr(detector, name):
            raise ConfigError(f"noise built for another {name}: {state.detector} != {detector}")
    shot, pink = detector.shot_noise, detector.pink_noise[0]
    if not (detector.noise_sigma > 0 or shot > 0 or pink > 0):
        return stream
    # The output comes before the draws, so freeing them leaves no hole in the heap below it.
    samples = np.empty_like(stream.samples) if out is None else out
    for start, stop, noise in state.pieces(stream.samples.size):
        clean = stream.samples[start:stop]
        if shot > 0:
            # Gaussian approximation: variance proportional to the clean signal.
            term = state.shot.standard_normal(stop - start)
            term *= np.sqrt(shot * np.clip(clean, 0.0, None))
            noise = term if noise is None else np.add(noise, term, out=term)
        if pink > 0:
            term = state.pink_term(stop - start)
            noise = term if noise is None else np.add(noise, term, out=term)
        np.add(clean, noise, out=samples[start:stop], casting="same_kind")
    return replace(stream, samples=samples)


def apply_adc(stream: SampleStream, detector: DetectorModel, *, out=None) -> SampleStream:
    """Clamp to [0, fullscale], quantize to adc_bits levels, into out if given; identity if unset."""
    if detector.adc_bits is None:
        return stream
    step = detector.adc_fullscale / (2**detector.adc_bits - 1)
    quantized = np.clip(stream.samples, 0.0, detector.adc_fullscale, out=out)
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
    """One side's capture_blocks as one stream, seed as in add_noise; one block is returned as is."""
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

    This generator is the one place where the chain runs. It yields the stream
    as consecutive SampleStreams of the bit_blocks ranges, so the whole stream
    never exists at once. Each synthesize call takes the side's channel sums
    from one cached callable, filled inside the first call's trace span (the
    tuple can replace it once the stages open their own spans). Every block
    continues one Noise(seed, detector), so the blocks concatenate exactly to
    add_noise's whole-stream realization, whatever noise terms are on.

    Each block is noised and quantized in place, in the samples synthesize
    made for it. With white noise and several blocks, the Noise gets one
    worker thread, which draws its ring ahead while the blocks are noised,
    consumed and synthesized. The worker calls numpy only, through
    white_noise. Closing the generator, or an error in either thread, ends
    the worker before the generator returns, after at most NOISE_RING draws
    already submitted.
    """
    ranges = list(bit_blocks(plan.code_length, plan.samples_per_bit))
    sums = cache(partial(_side_amplitudes, plan, scene, detector.responsivity, pd_side))
    # One block has nothing to overlap, so its Noise draws the white term itself.
    prefetch = detector.noise_sigma > 0 and len(ranges) > 1
    if prefetch:  # imported here, so that `import caossim` loads neither it nor logging
        from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, "caossim-noise") if prefetch else nullcontext() as pool:
        noise = Noise(seed, detector, pool, plan.frame_samples)
        for bits in ranges:
            # Each stage rebinds block, so no earlier stage is held across the yield.
            block = synthesize(plan, scene, detector, pd_side, dtype, bit_range=bits, sums=sums)
            block = add_noise(block, detector, noise, out=block.samples)
            block = apply_adc(block, detector, out=block.samples)
            yield block
            del block  # before the next block is made


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

    A block goes at bit first_bit of the .f32 file. A later block must
    continue the stream there, checked before either file is touched: the
    sidecar must declare first_bit bits (else LengthMismatch) and the
    block's rate, samples_per_bit, pd_side and gain (else PlanMismatch).
    The sidecar is then rewritten to cover every bit so far, so the pair is
    always a valid stream. Both files are written in place by write_at.
    """
    raw_path, meta_path = stream_paths(base)
    f_count = stream.samples_per_bit
    if stream.first_bit:
        held = _stream_file(raw_path, meta_path) if os.path.exists(meta_path) else None
        if held is None or held.bits != stream.first_bit:
            raise LengthMismatch(f"{raw_path} does not end at bit {stream.first_bit}")
        for name in ("rate", "samples_per_bit", "pd_side", "gain"):
            if getattr(stream, name) != getattr(held, name):
                raise PlanMismatch(f"block {name} {getattr(stream, name)!r} != {held}")
    write_at(raw_path, np.ascontiguousarray(stream.samples, "<f4"), 4 * stream.first_bit * f_count)
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


#: Stream sidecar fields after format and version, with their JSON parsers.
_SIDECAR_FIELDS = {
    "rate": json_real,
    "length": json_int,
    "bits": json_int,
    "samples_per_bit": json_int,
    "pd_side": json_choice(json_text, PD1, PD2),
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
            del samples  # before the next block is read


def read_stream(base) -> StreamFile:
    """The stream file at base (with or without .f32), checked; reads no sample.

    The sidecar must parse and declare length == bits * samples_per_bit, and
    the raw file must hold exactly 4 * length bytes, so a file with a cut or
    extra sample is refused (LengthMismatch) rather than trimmed.
    """
    return _stream_file(*stream_paths(base))


def _stream_file(raw_path, meta_path) -> StreamFile:
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
