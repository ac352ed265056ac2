"""Image quality and security metrics for decoded frames.

Dynamic range follows DR_dB = convention * log10(mean_ref / mean_patch)
with convention 20 by default (irradiance treated amplitude-style), and the
patch SNR is the patch mean over the standard deviation of a dark
background region of the same decoded image. Both conventions stay
configurable because different instruments report either.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from . import decode as decode_mod
from . import plan as plan_mod
from . import sensor as sensor_mod
from .errors import EmptyRegion
from .plan import CodingPlan, Mode
from .scene import Scene

Rect = tuple[int, int, int, int]  # (col0, row0, width, height), 0-based


def _region(image: np.ndarray, rect: Rect) -> np.ndarray:
    x0, y0, w, h = rect
    if w < 1 or h < 1 or x0 < 0 or y0 < 0:
        raise EmptyRegion(f"bad region {rect}")
    if y0 + h > image.shape[0] or x0 + w > image.shape[1]:
        raise EmptyRegion(f"region {rect} outside image {image.shape}")
    return image[y0 : y0 + h, x0 : x0 + w]


@dataclass(frozen=True)
class PatchStats:
    region: Rect
    mean: float
    std: float
    dr_db: float
    snr: float


@dataclass(frozen=True)
class PatchReport:
    convention: int
    reference_mean: float
    background_std: float
    patches: tuple[PatchStats, ...]

    def dr_values(self) -> list[float]:
        return [p.dr_db for p in self.patches]

    def to_text(self) -> str:
        lines = [
            "caossim-patch-report v1",
            f"convention: {self.convention}log10",
            f"reference_mean: {self.reference_mean!r}",
            f"background_std: {self.background_std!r}",
        ]
        for p in self.patches:
            lines.append(
                f"patch region={p.region} mean={p.mean:.6g} std={p.std:.6g}"
                f" dr_db={p.dr_db:.3f} snr={p.snr:.3f}"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["col0", "row0", "width", "height", "mean", "std", "dr_db", "snr"])
        for p in self.patches:
            writer.writerow([*p.region, p.mean, p.std, p.dr_db, p.snr])
        return buf.getvalue()


def patch_dr(
    image,
    regions,
    background: np.ndarray | None = None,
    convention: int = 20,
) -> PatchReport:
    """Per-patch mean, dynamic range and SNR of a decoded image.

    The brightest patch is the 0 dB reference. background is a boolean mask
    of the dark pixels; without it the SNR column is NaN.
    """
    if convention not in (10, 20):
        raise ValueError("convention must be 10 or 20")
    arr = decode_mod.raw_values(image)
    means, stds = [], []
    for rect in regions:
        patch = _region(arr, rect)
        means.append(float(patch.mean()))
        stds.append(float(patch.std()))
    reference = max(means)
    if reference <= 0:
        raise EmptyRegion("reference patch mean must be > 0")
    if background is None:
        bg_std = float("nan")
    elif not background.any():
        raise EmptyRegion("background mask is empty")
    else:
        bg_std = float(arr[background].std())
    patches = []
    for rect, mean, std in zip(regions, means, stds):
        dr = convention * math.log10(reference / mean) if mean > 0 else float("inf")
        snr = mean / bg_std if bg_std > 0 else float("nan")
        patches.append(PatchStats(region=tuple(rect), mean=mean, std=std, dr_db=dr, snr=snr))
    return PatchReport(
        convention=convention,
        reference_mean=reference,
        background_std=bg_std,
        patches=tuple(patches),
    )


def crosstalk(plan: CodingPlan, probe_channel: int) -> np.ndarray:
    """Leakage of a single probe pixel into every carrier bin, in dB.

    Synthesizes a noiseless one-pixel scene on the probe channel, decodes
    the per-bit spectra, and reports per-channel energy relative to the
    probe channel. A hopping plan's spectra are un-hopped first, as
    CodingPlan.estimates reads them, so each channel slot's energy is read
    at the carrier it rides during each bit. In the active overlapped mode
    every pixel rides every source carrier, so the probe is one pixel lit by
    source probe_channel only. Exact-zero leakage is floored at -400 dB.
    """
    member = probe_channel - 1
    pixels = np.arange(plan.grid.pixel_count)
    if plan.mode is Mode.ACTIVE_OVERLAPPED:
        if not 0 <= member < plan.channel_count:
            raise ValueError(f"probe channel {probe_channel} outside 1..{plan.channel_count}")
        per_source = np.zeros((plan.channel_count, plan.grid.rows, plan.grid.columns))
        per_source[member] = plan.image(pixels == 0)
        scene = Scene(grid=plan.grid, per_source=per_source)
    else:
        candidates = np.flatnonzero(plan.member_index == member)
        if candidates.size == 0:
            raise ValueError(f"no pixel carries channel {probe_channel}")
        scene = Scene(grid=plan.grid, irradiance=plan.image(pixels == candidates[0]))
    stream = sensor_mod.synthesize(plan, scene)
    spectra = decode_mod.per_bit_spectra(stream, plan)
    spectra = np.take_along_axis(spectra, plan.hop_schedule, axis=1)  # (W, slots)
    energy = (spectra**2).sum(axis=0)
    with np.errstate(divide="ignore"):
        leak_db = 10.0 * np.log10(energy / energy[member])
    return np.maximum(leak_db, -400.0)


def wrong_key_correlation(stream, true_plan: CodingPlan, wrong_seed: int) -> float:
    """Pearson correlation of a wrong-key decode against the true decode.

    The stream decodes without error under the wrong-seed plan; the returned
    correlation is how much of the actual image an eavesdropper with that
    key recovers.
    """
    wrong_plan = plan_mod.rebuild(true_plan, key_seed=wrong_seed)
    wrong = decode_mod.decode_frame(stream, wrong_plan)
    truth = decode_mod.decode_frame(stream, true_plan)
    return decode_mod.image_correlation(wrong, truth)


def speedup(plan_a: CodingPlan, plan_b: CodingPlan) -> float:
    """Frame-time ratio plan_b / plan_a: how much faster plan_a captures a frame."""
    return plan_b.frame_time / plan_a.frame_time

