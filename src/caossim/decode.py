"""Decoding: per-bit spectra, carrier-bin peaks, correlation, image assembly.

The inverse of the encoder runs in four steps. Each bit's samples get an
F-point DFT read at the carrier bins (exact integers by plan construction,
so no window is needed). Each pixel's bin readings across the W bits form a
sequence, hop-schedule aware. Correlating a sequence against the signed
codes recovers one scaled irradiance per set, and the keyed assignment maps
values back to pixel positions. decode_frame runs these steps on a stream or
its bit blocks; decode_capture feeds it blocks straight from the capture
chain, writing them to stream files when asked, so no run holds the stream.

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
from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np

from . import scene as scene_mod
from . import sensor as sensor_mod
from .codes import hadamard_transform
from .errors import ConfigError, PlanMismatch
from .plan import COMPLEMENT_CODED_MODES, CodingPlan, Mode, write_json
from .sensor import PD1, PD2, DualStreams, SampleStream, bit_blocks, capture_sides, carrier_matrix


def dsp_gain_db(samples_per_bit: int) -> float:
    """Coherent F-point spectral integration gain, 10 log10(F / 2) dB."""
    if samples_per_bit < 2:
        raise ValueError("samples_per_bit must be >= 2")
    return 10.0 * math.log10(samples_per_bit / 2.0)


def carrier_bins(plan: CodingPlan) -> np.ndarray:
    """DFT bin index per channel within one bit.

    Raises PlanMismatch for a bin outside 0..F/2, which build_plan's timing
    checks rule out.
    """
    f_count = plan.samples_per_bit
    bins = np.array([round(k) for k in plan.frequencies.cycles_per_bit()], dtype=np.int64)
    if bins.min() < 0 or bins.max() > f_count // 2:
        raise PlanMismatch(
            f"carrier bins {bins.tolist()} outside 0..{f_count // 2} of an {f_count}-point bit"
        )
    return bins


def carrier_bin_gains(plan: CodingPlan) -> np.ndarray:
    """Unit-carrier DFT magnitude at each channel's own bin."""
    waves = carrier_matrix(plan)
    bins = carrier_bins(plan)
    f_count = plan.samples_per_bit
    idx = np.arange(f_count)
    gains = np.empty(plan.channel_count)
    for p, b in enumerate(bins):
        phase = np.exp(-2j * np.pi * b * idx / f_count)
        gains[p] = abs(np.dot(waves[p], phase))
    return gains


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
    f_count = plan.samples_per_bit
    bins = carrier_bins(plan)
    idx = np.arange(f_count)
    basis = np.exp(-2j * np.pi * np.outer(idx, bins) / f_count)  # (F, P)
    per_bit = stream.per_bit()
    out = np.empty((stream.bits, plan.channel_count))
    with np.errstate(invalid="ignore"):  # an infinite sample is reported below
        for start, stop in bit_blocks(stream.bits, f_count):
            out[start:stop] = np.abs(per_bit[start:stop] @ basis)
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
    mode: Mode
    pd_side: str = "pd1"
    source_index: int | None = None

    @property
    def normalized(self) -> np.ndarray:
        if self.normalization_reference <= 0:
            return np.zeros_like(self.values)
        return self.values / self.normalization_reference


def _scatter(plan: CodingPlan, per_pixel: np.ndarray) -> np.ndarray:
    out = np.zeros((plan.grid.rows, plan.grid.columns))
    pos = np.asarray(plan.positions(), dtype=np.int64)
    out[pos[:, 1] - 1, pos[:, 0] - 1] = per_pixel
    return out


def _decode_spectra(spectra: np.ndarray, plan: CodingPlan, pd_side: str) -> list[RecoveredImage]:
    """Equalize, correlate and scatter one detector's per-bit spectra.

    Returns a list of one RecoveredImage, or for the active overlapped mode
    one per source, normalized by the brightest pixel across the set.
    """
    gains = carrier_bin_gains(plan)
    eq = spectra / gains[None, :]
    w = plan.code_length
    rows = np.arange(w)[:, None]

    if plan.mode is Mode.FM_TDMA:
        raw_map = _scatter(plan, eq[plan.set_index, 0])
        return [_finish(raw_map, plan, pd_side, None)]

    if plan.hop_schedule is None:
        member_seq = eq
    else:
        member_seq = eq[rows, plan.hop_schedule]  # (W, members)

    # Row 1 + code_row[j] of H @ member_seq correlates set j's signed code.
    estimates = (2.0 / w) * hadamard_transform(member_seq)[1 + plan.code_row]
    if pd_side == PD2 and plan.mode in COMPLEMENT_CODED_MODES:
        estimates = -estimates

    if plan.mode is Mode.ACTIVE_OVERLAPPED:
        images = []
        for p in range(plan.channel_count):
            raw_map = _scatter(plan, estimates[plan.set_index, p])
            images.append(_finish(raw_map, plan, pd_side, p))
        reference = max(img.normalization_reference for img in images)
        return [replace(img, normalization_reference=reference) for img in images]

    raw_pixel = estimates[plan.set_index, plan.member_index]
    return [_finish(_scatter(plan, raw_pixel), plan, pd_side, None)]


def _finish(raw_map, plan, pd_side, source_index):
    clamped = np.clip(raw_map, 0.0, None)
    return RecoveredImage(
        values=clamped,
        raw=raw_map,
        normalization_reference=float(clamped.max()),
        mode=plan.mode,
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
    modes. A generator of one side's consecutive bit blocks, such as
    sensor.capture_blocks, is read one block at a time. Decoding under a
    wrong-key plan is not an error, it simply produces garbage.
    """
    if isinstance(stream, DualStreams):
        sides = [image_list(decode_frame(side, plan)) for side in (stream.pd1, stream.pd2)]
        return _result(sides, plan)
    if isinstance(stream, SampleStream):
        spectra, pd_side = per_bit_spectra(stream, plan), stream.pd_side
    else:
        with closing(stream):  # ends a capture's noise thread on any exit
            parts = [(block.pd_side, per_bit_spectra(block, plan)) for block in stream]
        pd_side, spectra = parts[0][0], np.concatenate([p for _, p in parts])
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
