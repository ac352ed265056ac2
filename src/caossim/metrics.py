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
from .plan import CodingPlan
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
    background: Rect | np.ndarray | None = None,
    convention: int = 20,
) -> PatchReport:
    """Per-patch mean, dynamic range and SNR of a decoded image.

    The brightest patch is the 0 dB reference. background may be a rect or a
    boolean mask; without it the SNR column is NaN.
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
    elif isinstance(background, np.ndarray):
        if not background.any():
            raise EmptyRegion("background mask is empty")
        bg_std = float(arr[background].std())
    else:
        bg_std = float(_region(arr, background).std())
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
    probe channel. Off-bin (mis-tuned) carriers yield finite leakage rather
    than an error. Exact-zero leakage is floored at -400 dB.
    """
    member = probe_channel - 1
    candidates = np.nonzero(plan.member_index == member)[0]
    if candidates.size == 0:
        raise ValueError(f"no pixel carries channel {probe_channel}")
    pixel = plan.positions()[int(candidates[0])]
    img = np.zeros((plan.grid.rows, plan.grid.columns))
    img[pixel[1] - 1, pixel[0] - 1] = 1.0
    stream = sensor_mod.synthesize(plan, Scene(grid=plan.grid, irradiance=img))
    spectra = decode_mod.per_bit_spectra(stream, plan)
    energy = (spectra**2).sum(axis=0)
    probe_energy = energy[member]
    if probe_energy <= 0:
        raise ValueError("probe pixel produced no energy at its own bin")
    with np.errstate(divide="ignore"):
        leak_db = 10.0 * np.log10(energy / probe_energy)
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

