"""Independent reference decoder and the comparisons the output checks use.

The reference reads each bit's carrier bins with ``numpy.fft.rfft`` instead
of caossim's complex-exponential matmul, equalizes by the rfft magnitude of
the encoder's own unit carriers, and correlates pixel by pixel through the
hop schedule instead of set by set. It shares no code with
``caossim.decode``; agreement to 1e-9 of the image peak therefore checks the
timed decode, not a copy of it.
"""

from __future__ import annotations

import numpy as np

from caossim import sensor
from caossim.plan import COMPLEMENT_CODED_MODES, Mode

_BLOCK_SAMPLES = 1 << 22  # rfft input per block, float64: 32 MiB
_PIXEL_BLOCK = 1024


def bin_magnitudes(stream, plan) -> np.ndarray:
    """Equalized |rfft| at each channel's carrier bin, shape (W, P)."""
    w, f = plan.code_length, plan.samples_per_bit
    bins = np.array([int(round(k)) for k in plan.frequencies.cycles_per_bit()])
    channels = np.arange(bins.size)
    gains = np.abs(np.fft.rfft(sensor.carrier_matrix(plan), axis=1)[channels, bins])
    per_bit = stream.samples.reshape(w, f)
    mags = np.empty((w, bins.size))
    rows = max(1, _BLOCK_SAMPLES // f)
    for start in range(0, w, rows):
        spectrum = np.fft.rfft(per_bit[start : start + rows].astype(np.float64), axis=1)
        mags[start : start + rows] = np.abs(spectrum[:, bins])
    return mags / gains


def reference_decode(stream, plan) -> list[np.ndarray]:
    """Raw (unclamped) images: one for passive modes, one per source when active."""
    if plan.mode is Mode.FM_TDMA or plan.grid.active_pixels is not None:
        raise ValueError("reference decoder covers coded modes on full rasters only")
    eq = bin_magnitudes(stream, plan)
    w = plan.code_length
    q = plan.grid.pixel_count
    sign = -1.0 if stream.pd_side == sensor.PD2 and plan.mode in COMPLEMENT_CODED_MODES else 1.0
    codes = plan.codebook.codes[plan.code_row[plan.set_index]]  # (Q, W) 0/1, per pixel
    bit = np.arange(w)[:, None]

    def channel(slots: np.ndarray) -> np.ndarray:
        """(W, len(slots)) carrier channel of each slot during each bit."""
        if plan.hop_schedule is None:
            return np.broadcast_to(slots, (w, slots.size))
        return plan.hop_schedule[:, slots]

    def correlate(pixels: slice, slots: np.ndarray) -> np.ndarray:
        seq = eq[bit, channel(slots)]  # (W, pixels)
        signed = 2.0 * codes[pixels].astype(np.float64) - 1.0  # (pixels, W)
        return sign * (2.0 / w) * np.einsum("pw,wp->p", signed, seq)

    sources = plan.channel_count if plan.mode is Mode.ACTIVE_OVERLAPPED else 1
    images = []
    for source in range(sources):
        flat = np.empty(q)
        for start in range(0, q, _PIXEL_BLOCK):
            pixels = slice(start, min(q, start + _PIXEL_BLOCK))
            if plan.mode is Mode.ACTIVE_OVERLAPPED:
                slots = np.full(pixels.stop - pixels.start, source)
            else:
                slots = plan.member_index[pixels]
            flat[pixels] = correlate(pixels, slots)
        # Full rasters list pixels row-major: n outer, m inner.
        images.append(flat.reshape(plan.grid.rows, plan.grid.columns))
    return images


def peak_error(got: list[np.ndarray], want: list[np.ndarray]) -> float:
    """max |got - want| over an image set, as a share of the set's peak |want|.

    One peak for the whole set, as decode_frame normalizes an active image
    set: an image that should be empty is judged against the bright ones.
    """
    if len(got) != len(want):
        return float("inf")
    peak = max(float(np.max(np.abs(w))) for w in want)
    err = max(float(np.max(np.abs(g - w))) for g, w in zip(got, want))
    return err / peak if peak > 0 else float("inf")


def relative_error(got: np.ndarray, truth: np.ndarray) -> float:
    """max |got - truth| / truth over the pixels where truth is positive."""
    lit = truth > 0
    if not lit.any():
        return float("inf")
    return float(np.max(np.abs(got[lit] - truth[lit]) / truth[lit]))


def correlation(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.corrcoef(np.ravel(a), np.ravel(b))[0, 1])
