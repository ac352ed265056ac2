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

import json
import math
import os
from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np

from . import scene as scene_mod
from . import sensor as sensor_mod
from .codes import bipolar
from .errors import ConfigError, PlanMismatch
from .plan import COMPLEMENT_CODED_MODES, CodingPlan, Mode
from .sensor import (
    PD2,
    BlockCapture,
    DualStreams,
    SampleStream,
    bit_blocks,
    capture_sides,
    carrier_matrix,
)


def dsp_gain_db(samples_per_bit: int) -> float:
    """Coherent F-point spectral integration gain, 10 log10(F / 2) dB."""
    if samples_per_bit < 2:
        raise ValueError("samples_per_bit must be >= 2")
    return 10.0 * math.log10(samples_per_bit / 2.0)


def carrier_bins(plan: CodingPlan) -> np.ndarray:
    """DFT bin index per channel within one bit."""
    f_count = plan.samples_per_bit
    bins = [min(max(int(round(k)), 0), f_count // 2) for k in plan.frequencies.cycles_per_bit()]
    return np.asarray(bins, dtype=np.int64)


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


def _decode_spectra(spectra: np.ndarray, plan: CodingPlan, pd_side: str, normalize: bool):
    """Equalize, correlate and scatter one detector's per-bit spectra.

    Returns one RecoveredImage, or for the active overlapped mode one per
    source, normalized by the brightest pixel across the set.
    """
    gains = carrier_bin_gains(plan)
    eq = spectra / gains[None, :]
    w = plan.code_length
    rows = np.arange(w)[:, None]

    if plan.mode is Mode.FM_TDMA:
        raw_map = _scatter(plan, eq[plan.set_index, 0])
        return _finish(raw_map, plan, pd_side, normalize, None)

    if plan.hop_schedule is None:
        member_seq = eq
    else:
        member_seq = eq[rows, plan.hop_schedule]  # (W, members)

    signed = bipolar(plan.codebook.codes[plan.code_row]).astype(np.float64)
    estimates = (2.0 / w) * (signed @ member_seq)  # (sets, members/channels)
    if pd_side == PD2 and plan.mode in COMPLEMENT_CODED_MODES:
        estimates = -estimates

    if plan.mode is Mode.ACTIVE_OVERLAPPED:
        images = []
        for p in range(plan.channel_count):
            raw_map = _scatter(plan, estimates[plan.set_index, p])
            images.append(_finish(raw_map, plan, pd_side, normalize, p))
        if normalize:
            reference = max(img.normalization_reference for img in images)
            images = [replace(img, normalization_reference=reference) for img in images]
        return images

    raw_pixel = estimates[plan.set_index, plan.member_index]
    return _finish(_scatter(plan, raw_pixel), plan, pd_side, normalize, None)


def _finish(raw_map, plan, pd_side, normalize, source_index):
    clamped = np.clip(raw_map, 0.0, None)
    reference = float(clamped.max()) if normalize else 1.0
    return RecoveredImage(
        values=clamped,
        raw=raw_map,
        normalization_reference=reference,
        mode=plan.mode,
        pd_side=pd_side,
        source_index=source_index,
    )


def decode_frame(stream, plan: CodingPlan, normalize: bool = True):
    """Full frame decode.

    A single passive stream yields one RecoveredImage; DualStreams yield a
    (pd1, pd2) pair decoded independently; an active overlapped stream
    yields one image per source, normalized by the brightest pixel across
    the whole image set. A sensor.BlockCapture, or a generator of one
    side's consecutive bit blocks, is read one block at a time. Decoding
    under a wrong-key plan is not an error, it simply produces garbage.
    """
    if isinstance(stream, DualStreams):
        return (
            decode_frame(stream.pd1, plan, normalize=normalize),
            decode_frame(stream.pd2, plan, normalize=normalize),
        )
    if isinstance(stream, SampleStream):
        spectra, pd_side = per_bit_spectra(stream, plan), stream.pd_side
    else:
        blocks = stream.blocks() if isinstance(stream, BlockCapture) else stream
        with closing(blocks):  # ends a capture's noise thread on any exit
            parts = [(block.pd_side, per_bit_spectra(block, plan)) for block in blocks]
        pd_side, spectra = parts[0][0], np.concatenate([p for _, p in parts])
    if spectra.shape[0] != plan.code_length:
        raise PlanMismatch(f"stream has {spectra.shape[0]} bits, plan expects {plan.code_length}")
    return _decode_spectra(spectra, plan, pd_side, normalize)


def decode_capture(plan: CodingPlan, scene, detectors, seed=0, dtype=np.float64, out_dir=None):
    """Capture and decode in one pass over bit blocks, without materializing the stream.

    detectors holds one DetectorModel (PD1) or two (PD1, PD2). Only one bit
    block and the (W, channels) spectra of each side are held at a time. With
    out_dir, each block is also written, as it passes, to out_dir/stream_<side>.
    """
    results = []
    for det, side_seed, side in capture_sides(detectors, seed):
        blocks = BlockCapture(plan, scene, det, side_seed, side, dtype).blocks()
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            blocks = _written(blocks, os.path.join(out_dir, f"stream_{side}"))
        results.append(decode_frame(blocks, plan))
    return results[0] if len(results) == 1 else tuple(results)


def _written(blocks, base):
    """blocks, each written on to the stream file at base as it passes."""
    with closing(blocks):
        for block in blocks:
            sensor_mod.write_stream(block, base)
            yield block


def image_list(decoded) -> list[RecoveredImage]:
    """decode_frame's result (one image, a dual pair or a source list) as a list."""
    return list(decoded) if isinstance(decoded, (list, tuple)) else [decoded]


# ---------------------------------------------------------------------------
# Decode report
# ---------------------------------------------------------------------------

_REPORT_FORMAT = "caossim-decode-report"
_REPORT_VERSION = 1


def decode_report(
    images,
    plan: CodingPlan,
    spectra: np.ndarray | None = None,
    truth: np.ndarray | None = None,
) -> dict:
    """Structured decode summary; per-bit peak matrix only on request."""
    if isinstance(images, RecoveredImage):
        images = [images]
    entries = []
    for img in images:
        entry = {
            "pd_side": img.pd_side,
            "source_index": img.source_index,
            "normalization_reference": img.normalization_reference,
            "raw_values": [[float(v) for v in row] for row in img.raw],
        }
        if truth is not None:
            flat_a = img.raw.ravel()
            flat_b = np.asarray(truth, dtype=np.float64).ravel()
            if flat_a.size == flat_b.size and flat_a.std() > 0 and flat_b.std() > 0:
                rho = float(np.corrcoef(flat_a, flat_b)[0, 1])
            else:
                rho = 0.0
            entry["truth_correlation"] = rho
            entry["truth_correlation_ok"] = bool(rho > 0.999)
        entries.append(entry)
    report = {
        "format": _REPORT_FORMAT,
        "version": _REPORT_VERSION,
        "mode": plan.mode.value,
        "grid": [plan.grid.columns, plan.grid.rows],
        "code_length": plan.code_length,
        "samples_per_bit": plan.samples_per_bit,
        "dsp_gain_db": dsp_gain_db(plan.samples_per_bit),
        "images": entries,
    }
    if spectra is not None:
        report["per_bit_peaks"] = [[float(v) for v in row] for row in spectra]
    return report


def write_decode_report(report: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_decode_outputs(out_dir, images, plan: CodingPlan, truth=None) -> dict:
    """image_<tag>.pgm/.csv per image plus decode_report.json; returns the report.

    The tag is source<k> for per-source images and the detector side otherwise.
    """
    for i, img in enumerate(images):
        tag = f"source{i + 1}" if img.source_index is not None else img.pd_side
        scene_mod.write_image_pgm(img.values, os.path.join(out_dir, f"image_{tag}.pgm"))
        scene_mod.write_image_csv(img.values, os.path.join(out_dir, f"image_{tag}.csv"))
    report = decode_report(images, plan, truth=truth)
    write_decode_report(report, os.path.join(out_dir, "decode_report.json"))
    return report
