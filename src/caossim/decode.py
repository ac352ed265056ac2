"""Decoding: per-bit spectra, carrier-bin peaks, correlation, image assembly.

The inverse of the encoder runs in four steps. Each bit's samples get an
F-point DFT read at the carrier bins (exact integers by plan construction, so
no window is needed): each bit's g = gcd(F, bins) carrier periods are summed
onto L = F / g samples in float64, without copying a float32 block, and one
product with the plan's real (L, 2P) basis [cos | -sin] gives each bin's real
and imaginary part, and their hypot its magnitude. The plan's estimates
method then inverts its keyed map: it un-hops the (W, P) bin readings,
correlates them against the signed codes to recover one scaled irradiance per
set and slot, and picks each pixel's; plan.image puts the values back at the
pixel positions. decode_frame runs these steps on a stream or its bit blocks;
decode_capture feeds it blocks straight from the capture chain, writing them
to stream files when asked, and a sensor.StreamFile feeds it blocks read from
a stream file, so neither a run nor a file decode holds the stream.

Bin readings are equalized by each channel's unit-carrier magnitude (for a
sampled 0/1 square at k cycles per bit that is k / sin(pi k / F), for a
biased sine F / 4, for the static plain-code state F). Without this the
per-channel discrete carrier gains differ at the ppm level and the decode
would not be exact. After equalization a noiseless decode returns gain *
irradiance per pixel to floating-point precision.
"""

from __future__ import annotations

import math
import os
from contextlib import closing, nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import scene as scene_mod
from . import sensor as sensor_mod
from .errors import ConfigError, PlanMismatch
from .plan import COMPLEMENT_CODED_MODES, CodingPlan, Mode, write_json
from .sensor import PD1, PD2, DualStreams, SampleStream, StreamFile, bit_blocks, capture_sides


def dsp_gain_db(samples_per_bit: int) -> float:
    """Coherent F-point spectral integration gain, 10 log10(F / 2) dB."""
    if samples_per_bit < 2:
        raise ValueError("samples_per_bit must be >= 2")
    return 10.0 * math.log10(samples_per_bit / 2.0)


def _check_stream(stream: SampleStream, plan: CodingPlan) -> None:
    last = stream.first_bit + stream.bits
    if stream.samples_per_bit != plan.samples_per_bit or last > plan.code_length:
        raise PlanMismatch(
            f"stream is {stream.bits} x {stream.samples_per_bit} samples,"
            f" plan expects {plan.code_length} x {plan.samples_per_bit}"
        )
    if stream.rate != plan.sample_rate:
        raise PlanMismatch(f"stream rate {stream.rate} != plan rate {plan.sample_rate}")


def per_bit_spectra(stream: SampleStream, plan: CodingPlan) -> np.ndarray:
    """Raw per-bit carrier-bin peak magnitudes, shape (stream bits, channels).

    The stream is a whole frame or a block of one. Raises ConfigError naming
    the first frame bit whose magnitudes are not finite, so a NaN or infinite
    sample cannot silently spread into every decoded pixel.
    """
    _check_stream(stream, plan)
    basis, p, period = plan.period_basis, plan.channel_count, plan.carrier_period
    per_bit = stream.samples.reshape(-1, plan.samples_per_bit // period, period)  # (bits, g, L)
    out = np.empty((stream.bits, p))
    with np.errstate(invalid="ignore"):  # an infinite sample is reported below
        for start, stop in bit_blocks(stream.bits, plan.samples_per_bit):
            parts = per_bit[start:stop].sum(axis=1, dtype=np.float64) @ basis  # (bits, 2P)
            np.hypot(parts[:, :p], parts[:, p:], out=out[start:stop])
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        bit = stream.first_bit + int(np.argmin(finite))
        raise ConfigError(f"non-finite samples in bit {bit} of the stream")
    return out


@dataclass(frozen=True, eq=False)
class RecoveredImage:
    """Decoded irradiance grid plus diagnostics.

    values is clamped at zero (irradiance is nonnegative); raw keeps the
    signed correlation outputs for noise statistics. normalization_reference
    is the brightest scaled irradiance used by .normalized (shared across an
    image set in the active mode).
    """

    values: np.ndarray
    raw: np.ndarray
    normalization_reference: float
    pd_side: str = "pd1"
    source_index: int | None = None

    @property
    def normalized(self) -> np.ndarray:
        if self.normalization_reference <= 0:
            return np.zeros_like(self.values)
        return self.values / self.normalization_reference


def _decode_spectra(spectra: np.ndarray, plan: CodingPlan, pd_side: str) -> list[RecoveredImage]:
    """Equalize, correlate and scatter one detector's per-bit spectra.

    Returns a list of one RecoveredImage, or for the active overlapped mode
    one per source, normalized by the brightest pixel across the set.
    """
    readings = spectra / plan.carrier_bin_gains[None, :]
    complement = pd_side == PD2 and plan.mode in COMPLEMENT_CODED_MODES
    if complement:
        # Bit 0 is ON in every code (Hadamard column 0 is all +1), so PD2 is
        # dark there and its reading is noise magnitude alone: read it as 0.
        readings[0] = 0.0
    estimates = plan.estimates(readings)
    if complement:
        estimates = -estimates

    if plan.mode is Mode.ACTIVE_OVERLAPPED:
        images = [
            _finish(plan.image(estimates[:, p]), pd_side, p)
            for p in range(plan.channel_count)
        ]
        reference = max(img.normalization_reference for img in images)
        return [replace(img, normalization_reference=reference) for img in images]
    return [_finish(plan.image(estimates), pd_side, None)]


def _finish(raw_map, pd_side, source_index):
    clamped = np.clip(raw_map, 0.0, None)
    return RecoveredImage(
        values=clamped,
        raw=raw_map,
        normalization_reference=float(clamped.max()),
        pd_side=pd_side,
        source_index=source_index,
    )


def _result(sides: list, plan: CodingPlan):
    """decode_frame's result from each detector side's image list.

    Two sides give one flat tuple, PD1's images then PD2's; one side gives
    its source list in the active overlapped mode and its one image otherwise.
    """
    if len(sides) == 2:
        return (*sides[0], *sides[1])
    return sides[0] if plan.mode is Mode.ACTIVE_OVERLAPPED else sides[0][0]


def decode_frame(stream, plan: CodingPlan):
    """Full frame decode.

    A single passive stream yields one RecoveredImage; an active overlapped
    stream yields one image per source, normalized by the brightest pixel
    across the whole image set. DualStreams are decoded independently into
    one flat tuple, PD1's images then PD2's: a (pd1, pd2) pair in the passive
    modes. Any iterable of one side's consecutive bit blocks, such as
    sensor.capture_blocks or a sensor.StreamFile from read_stream, is read
    one block at a time, and closed at the end if it has a close method; a
    block that does not start where the previous one ended, or comes from
    the other side, raises PlanMismatch, as does a StreamFile whose bit
    length or rate is not the plan's, before any block of it is read.
    Decoding under a wrong-key plan is not an error, it simply produces
    garbage.
    """
    if isinstance(stream, DualStreams):
        sides = [image_list(decode_frame(side, plan)) for side in (stream.pd1, stream.pd2)]
        return _result(sides, plan)
    if isinstance(stream, StreamFile):
        _check_stream(stream, plan)  # before a block that could span the whole file is read
    blocks = [stream] if isinstance(stream, SampleStream) else stream
    parts, pd_side, next_bit = [], None, 0
    # Closing a capture's generator ends its noise thread on any exit.
    with closing(blocks) if hasattr(blocks, "close") else nullcontext():
        for block in blocks:
            start = block.first_bit
            if start != next_bit:
                raise PlanMismatch(f"block starts at bit {start}, expected bit {next_bit}")
            if pd_side not in (None, block.pd_side):
                raise PlanMismatch(f"{block.pd_side} block in a {pd_side} stream")
            pd_side, next_bit = block.pd_side, next_bit + block.bits
            parts.append(per_bit_spectra(block, plan))
            del block  # before the next block is made or read
    spectra = np.concatenate(parts) if parts else np.empty((0, plan.channel_count))
    if spectra.shape[0] != plan.code_length:
        raise PlanMismatch(f"stream has {spectra.shape[0]} bits, plan expects {plan.code_length}")
    return _result([_decode_spectra(spectra, plan, pd_side)], plan)


def decode_capture(plan: CodingPlan, scene, detectors, seed=0, dtype=np.float64, out_dir=None):
    """Capture and decode in one pass over bit blocks, without materializing the stream.

    detectors holds one DetectorModel (PD1) or two (PD1, PD2); the result is
    shaped as decode_frame's. Only one bit block and the (W, channels) spectra
    of each side are held at a time. With out_dir, each block is also written,
    as it passes, to out_dir/stream_<side>.
    """
    sides = []
    for det, side_seed, side in capture_sides(detectors, seed):
        blocks = sensor_mod.capture_blocks(plan, scene, det, side_seed, side, dtype)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            blocks = _written(blocks, os.path.join(out_dir, f"stream_{side}"))
        sides.append(image_list(decode_frame(blocks, plan)))
    return _result(sides, plan)


def _written(blocks, base):
    """blocks, each written on to the stream file at base as it passes."""
    with closing(blocks):
        for block in blocks:
            sensor_mod.write_stream(block, base)
            yield block
            del block


def image_list(decoded) -> list:
    """decode_frame's result (one image, a source list or a dual tuple) as a list."""
    return list(decoded) if isinstance(decoded, (list, tuple)) else [decoded]


def raw_values(image) -> np.ndarray:
    """An image as a float array; a RecoveredImage gives its unclamped raw values.

    Noise statistics need the raw channel: clamping negative estimates to
    zero would bias patch means up and squash the background std.
    """
    if isinstance(image, RecoveredImage):
        return image.raw
    return np.asarray(image, dtype=np.float64)


# ---------------------------------------------------------------------------
# Decode report
# ---------------------------------------------------------------------------

_REPORT_FORMAT = "caossim-decode-report"
_REPORT_VERSION = 1


def _shapes(arrays) -> str:
    """Shapes as text: 21x21, or 21x21 + 21x21 for two images."""
    return " + ".join("x".join(map(str, x.shape)) for x in arrays)


def image_correlation(a, b) -> float:
    """Pearson correlation between two images or image lists; 0 when either is constant.

    Raises ConfigError naming both shapes when they differ.
    """
    a, b = [raw_values(x) for x in image_list(a)], [raw_values(x) for x in image_list(b)]
    if [x.shape for x in a] != [x.shape for x in b]:
        raise ConfigError(f"cannot correlate a {_shapes(a)} image with a {_shapes(b)} one")
    fa, fb = np.concatenate([x.ravel() for x in a]), np.concatenate([x.ravel() for x in b])
    if not (fa.std() > 0 and fb.std() > 0):
        return 0.0
    return float(np.corrcoef(fa, fb)[0, 1])


def decode_report(images, plan: CodingPlan, truth: np.ndarray | None = None) -> dict:
    """Structured decode summary, with each image's correlation against truth if given."""
    entries = []
    for img in image_list(images):
        entry = {
            "pd_side": img.pd_side,
            "source_index": img.source_index,
            "normalization_reference": img.normalization_reference,
            "raw_values": [[float(v) for v in row] for row in img.raw],
        }
        if truth is not None:
            rho = image_correlation(img, truth)
            entry["truth_correlation"] = rho
            entry["truth_correlation_ok"] = bool(rho > 0.999)
        entries.append(entry)
    return {
        "format": _REPORT_FORMAT,
        "version": _REPORT_VERSION,
        "mode": plan.mode.value,
        "grid": [plan.grid.columns, plan.grid.rows],
        "code_length": plan.code_length,
        "samples_per_bit": plan.samples_per_bit,
        "dsp_gain_db": dsp_gain_db(plan.samples_per_bit),
        "images": entries,
    }


def write_decode_report(report: dict, path) -> None:
    write_json(report, path)


def write_decode_outputs(out_dir, images, plan: CodingPlan, truth=None) -> dict:
    """image_<tag>.pgm/.csv per image plus decode_report.json; returns the report.

    The tag is the detector side, or source<k> for PD1's k-th per-source
    image and pd2_source<k> for PD2's. A truth of the wrong shape raises
    ConfigError before any file is written.
    """
    report = decode_report(images, plan, truth=truth)
    for img in images:
        tag = img.pd_side
        if img.source_index is not None:
            source = f"source{img.source_index + 1}"
            tag = source if img.pd_side == PD1 else f"{img.pd_side}_{source}"
        scene_mod.write_image_pgm(img.values, os.path.join(out_dir, f"image_{tag}.pgm"))
        scene_mod.write_image_csv(img.values, os.path.join(out_dir, f"image_{tag}.csv"))
    write_decode_report(report, os.path.join(out_dir, "decode_report.json"))
    return report
