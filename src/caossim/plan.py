"""Triple space-time-frequency coding plans.

A plan assigns every camera pixel a CDMA code, an FDMA carrier channel and,
optionally, a per-bit channel-hop schedule, together with all the timing
that makes the decoder's per-bit spectra land on exact DFT bins:

    bit duration T = 1 / bit_rate
    bin spacing   delta_f = 1 / T
    carrier p     f_p = 2**(p-1) * f1   (octave ladder, passive modes)
    cycles        k_p = f_p * T         (must be integers)
    samples       F = sample_rate * T   (must be an integer)

Passive modes split the Q pixels into J = ceil(Q / P) sets of up to P
pixels; the members of one set share a code and are told apart by channel.
The active overlapped mode gives every pixel its own code and rides all P
source carriers at once. Security comes from three keyed layers: a spatial
shuffle of which pixel gets which (set, channel) slot, a shuffle of which
code each set uses, and per-bit channel hopping. All randomness is drawn
from numpy's PCG64 via seed sequences derived from key_seed, so plans are
bit-reproducible across platforms.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from operator import attrgetter

import numpy as np

from . import codes
from .codes import CodeBook
from .errors import ConfigError, NyquistError, PlanMismatch, TimingError

# Sub-stream labels for key_seed derived generators.
_STREAM_PIXELS = 0
_STREAM_CODES = 1
_STREAM_HOPS = 2
_STREAM_PHASES = 3


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Mode(str, Enum):
    PASSIVE_FDMA_CDMA = "passive-fdma-cdma"
    FM_CDMA = "fm-cdma"
    PLAIN_CDMA = "plain-cdma"
    FM_TDMA = "fm-tdma"
    ACTIVE_OVERLAPPED = "active-overlapped"


#: Modes whose parked (code bit 0) state routes carrier-modulated light to
#: the complement detector, so a PD2 decode must correlate against the
#: complement code.
COMPLEMENT_CODED_MODES = (Mode.PLAIN_CDMA, Mode.ACTIVE_OVERLAPPED)


@dataclass(frozen=True)
class PixelGrid:
    """Rectangular pixel raster; positions are 1-based (m, n) pairs.

    Attributes:
        columns: M, pixels along the horizontal axis.
        rows: N, pixels along the vertical axis.
        active_pixels: optional explicit pixel list; default full raster,
            row-major (n outer, m inner).
    """

    columns: int
    rows: int
    active_pixels: tuple[tuple[int, int], ...] | None = None

    def positions(self) -> tuple[tuple[int, int], ...]:
        if self.active_pixels is not None:
            return self.active_pixels
        return tuple(
            (m, n) for n in range(1, self.rows + 1) for m in range(1, self.columns + 1)
        )

    @property
    def pixel_count(self) -> int:
        if self.active_pixels is not None:
            return len(self.active_pixels)
        return self.columns * self.rows

    def check(self) -> None:
        if self.columns < 1 or self.rows < 1:
            raise ConfigError("grid must be at least 1x1")
        pos = self.positions()
        if len(pos) < 1:
            raise ConfigError("grid needs at least one active pixel")
        if len(set(pos)) != len(pos):
            raise ConfigError("active pixel positions must be unique")
        for m, n in pos:
            if not (1 <= m <= self.columns and 1 <= n <= self.rows):
                raise ConfigError(f"pixel ({m}, {n}) outside {self.columns}x{self.rows} grid")


@dataclass(frozen=True)
class FrequencyPlan:
    """Carrier ladder and bit timing for one plan.

    frequencies holds the final per-channel rates in Hz (octave ladder from
    f1 unless an explicit list was given). waveform is "square" for DMD
    mirror toggling, "sine" for modulated active sources, or "none" for the
    plain CDMA mode where pixels sit statically on or off during a bit.
    """

    frequencies: tuple[float, ...]
    bit_duration: float
    waveform: str = "square"

    @property
    def channel_count(self) -> int:
        return len(self.frequencies)

    def cycles_per_bit(self) -> tuple[float, ...]:
        """f_p * T per channel; integers on a valid plan."""
        return tuple(f * self.bit_duration for f in self.frequencies)


@dataclass(frozen=True, eq=False)
class CodingPlan:
    """Immutable result of build_plan; safe to share between encoder and decoder.

    set_index / member_index map each active pixel (in grid position order)
    to its code set and its channel slot within the set. code_row maps a set
    to its codebook row (to its own slot in the FM-TDMA mode). hop_schedule
    is a read-only (W, P) table whose row w is the permutation applied to
    channel slots during bit w; one global permutation shared by every set,
    which is the weakest condition that preserves exact correlation
    decoding. Without hopping every row is the identity.

    Only this class reads those tables: pixel_values, on_sums and hop carry
    a scene forward through the map, estimates and image carry bin readings
    back.
    """

    grid: PixelGrid
    frequencies: FrequencyPlan
    mode: Mode
    codebook: CodeBook | None
    set_count: int
    set_index: np.ndarray
    member_index: np.ndarray
    code_row: np.ndarray
    hop_schedule: np.ndarray
    key_seed: int
    frame_index: int
    sample_rate: float
    samples_per_bit: int
    shuffle_pixels: bool
    shuffle_codes: bool
    hopping: bool
    carrier_phases: tuple[float, ...]
    code_length_override: int | None = None

    @property
    def channel_count(self) -> int:
        return self.frequencies.channel_count

    @property
    def code_length(self) -> int:
        """W: bits per frame (slots per frame in the FM-TDMA mode)."""
        if self.mode is Mode.FM_TDMA:
            return self.grid.pixel_count
        return self.codebook.length

    @property
    def bit_rate(self) -> float:
        return 1.0 / self.frequencies.bit_duration

    @property
    def frame_time(self) -> float:
        return self.code_length * self.frequencies.bit_duration

    @property
    def frame_samples(self) -> int:
        return self.code_length * self.samples_per_bit

    # The carrier and pixel constants below are built on first read and kept
    # on the plan, read-only, so they live and die with it.

    @cached_property
    def pixel_index(self) -> np.ndarray:
        """(Q, 2) 0-based (row, column) of each active pixel, in grid.positions() order."""
        return _read_only(np.asarray(self.grid.positions(), dtype=np.int64)[:, ::-1] - 1)

    @cached_property
    def carrier_matrix(self) -> np.ndarray:
        """One bit of every channel's unit carrier, shape (channels, F).

        Square: 50% duty 0/1 wave at f_p starting ON at the bit boundary.
        Sine: (1 + sin(2 pi f_p t + phase_p)) / 2 with keyed per-channel phase.
        Plain (waveform "none"): constant 1, the mirror statically on.
        """
        f_count = self.samples_per_bit
        waveform = self.frequencies.waveform
        rows = []
        for p, cycles in enumerate(self.frequencies.cycles_per_bit()):
            if waveform == "none":
                rows.append(np.ones(f_count))
            elif waveform == "square":
                rows.append(_square_wave(cycles, f_count))
            else:
                t = np.arange(f_count) / f_count
                phase = self.carrier_phases[p]
                rows.append(0.5 * (1.0 + np.sin(2.0 * math.pi * cycles * t + phase)))
        return _read_only(np.stack(rows))

    @cached_property
    def carrier_bins(self) -> np.ndarray:
        """DFT bin index per channel within one bit.

        Raises PlanMismatch for a bin outside 0..F/2, which build_plan's timing
        checks rule out.
        """
        f_count = self.samples_per_bit
        bins = np.array([round(k) for k in self.frequencies.cycles_per_bit()], dtype=np.int64)
        if bins.min() < 0 or bins.max() > f_count // 2:
            raise PlanMismatch(
                f"carrier bins {bins.tolist()} outside 0..{f_count // 2} of an {f_count}-point bit"
            )
        return _read_only(bins)

    @cached_property
    def carrier_period(self) -> int:
        """L = F / g, g = gcd(F, carrier bins): every carrier repeats every L samples."""
        return len(self.period_basis)

    @cached_property
    def period_basis(self) -> np.ndarray:
        """(L, 2 channels) DFT basis [cos | -sin] at each bin of a bit folded onto L samples."""
        return _read_only(_period_basis(self.carrier_bins, self.samples_per_bit)[1])

    @cached_property
    def carrier_bin_gains(self) -> np.ndarray:
        """Unit-carrier DFT magnitude at each channel's own bin, read as per_bit_spectra reads."""
        p, period = self.channel_count, self.carrier_period
        parts = self.carrier_matrix.reshape(p, -1, period).sum(axis=1) @ self.period_basis
        return _read_only(np.hypot(np.diagonal(parts[:, :p]), np.diagonal(parts[:, p:])))

    # The keyed pixel -> (code, slot, carrier) map. Forward, each pixel's
    # value is summed into its set's slot, the set codes spread the slot sums
    # over the W bits, and the hop schedule moves them to carriers; estimates
    # runs the same steps backwards.

    @property
    def _pixel_slots(self):
        """Index of the pixels in a (sets, P) array: each pixel's (set, slot).

        In the active overlapped mode a pixel rides every source slot, so it
        indexes its set's whole row.
        """
        if self.mode is Mode.ACTIVE_OVERLAPPED:
            return self.set_index
        return self.set_index, self.member_index

    def pixel_values(self, image) -> np.ndarray:
        """The (Q,) values of a (rows, columns) image at the active pixels."""
        rows, columns = self.pixel_index.T
        return np.asarray(image, dtype=np.float64)[rows, columns]

    def image(self, per_pixel) -> np.ndarray:
        """A (rows, columns) image of per-pixel values, zero off the active pixels."""
        out = np.zeros((self.grid.rows, self.grid.columns))
        rows, columns = self.pixel_index.T
        out[rows, columns] = per_pixel
        return out

    def on_sums(self, per_pixel) -> np.ndarray:
        """(W, P) sums of the pixel values ON in each slot during each bit, before hopping.

        per_pixel is (Q,), each value summed into its pixel's (set, slot), or
        in the active overlapped mode (Q, P), one column per source. Set j's
        code is (1 + H[1 + code_row[j]]) / 2, so the sums are
        (per_set.sum(0) + H.T @ y) / 2 with per_set scattered to rows
        1 + code_row of an otherwise zero y. An FM-TDMA set is on in its own slot only.
        """
        per_set = np.zeros((self.set_count, self.channel_count))
        np.add.at(per_set, self._pixel_slots, per_pixel)
        if self.mode is Mode.FM_TDMA:
            return per_set
        y = np.zeros((self.code_length, self.channel_count))
        y[1 + self.code_row] = per_set
        return (per_set.sum(axis=0) + codes.hadamard_transform(y, transpose=True)) / 2

    def hop(self, sums) -> np.ndarray:
        """(W, P) slot sums moved to the carrier each slot rides during each bit."""
        out = np.zeros_like(sums)
        np.put_along_axis(out, self.hop_schedule, sums, axis=1)
        return out

    def estimates(self, readings) -> np.ndarray:
        """Per-pixel values from (W, P) carrier readings: the inverse of hop(on_sums(.)).

        Un-hops the readings, correlates them with set j's signed code as
        row 1 + code_row[j] of (2 / W) H (an FM-TDMA set is read in its own
        time slot), and picks each pixel's set and slot; shaped as on_sums'
        input.
        """
        per_set = np.take_along_axis(readings, self.hop_schedule, axis=1)
        if self.mode is not Mode.FM_TDMA:
            w = self.code_length
            per_set = (2.0 / w) * codes.hadamard_transform(per_set)[1 + self.code_row]
        return per_set[self._pixel_slots]

    def code_bits(self, set_idx: int) -> np.ndarray:
        """A set's 0/1 code (1 + H.T e_r) / 2, r = 1 + code_row[set_idx]; FM-TDMA's is e_set."""
        one_hot = np.zeros(self.code_length, dtype=np.int64)
        if self.mode is Mode.FM_TDMA:
            one_hot[set_idx] = 1
            return one_hot.astype(np.uint8)
        one_hot[1 + self.code_row[set_idx]] = 1
        return ((1 + codes.hadamard_transform(one_hot, transpose=True)) // 2).astype(np.uint8)


def coding_element(plan: CodingPlan, pixel: tuple[int, int], bit_index: int):
    """Code bit and carrier channel of one pixel during one bit.

    Returns (code_bit, channel) with channel a 1-based index, None while the
    pixel is parked, or a tuple of all channels in the active overlapped
    mode where every pixel rides every source carrier.
    """
    if not (1 <= bit_index <= plan.code_length):
        raise ValueError(f"bit_index {bit_index} outside 1..{plan.code_length}")
    m, n = pixel
    found = np.flatnonzero((plan.pixel_index == (n - 1, m - 1)).all(axis=1))
    if not found.size:
        raise ValueError(f"pixel {pixel} is not in the plan grid")
    idx = found[0]
    if plan.code_bits(plan.set_index[idx])[bit_index - 1] == 0:
        return 0, None
    carriers = (plan.hop_schedule[bit_index - 1] + 1).tolist()  # the carrier of each slot
    if plan.mode is Mode.ACTIVE_OVERLAPPED:
        return 1, tuple(carriers)
    return 1, carriers[plan.member_index[idx]]


def _slots_per_set(mode: Mode, channels: int) -> int:
    """Pixels per code set: one per carrier, or one where a pixel owns its set.

    Pixel ranks fill the sets in order, rank r at (set, slot) = divmod(r, slots).
    """
    return 1 if mode in (Mode.ACTIVE_OVERLAPPED, Mode.FM_TDMA) else channels


def _rng(key_seed: int, stream: int, extra: int = 0) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=key_seed, spawn_key=(stream, extra))
    return np.random.Generator(np.random.PCG64(seq))


#: The error build_plan raises for each failing timing row.
_TIMING_ERRORS = {
    "samples-per-bit-integer": TimingError,
    "carrier-cycles-integer": TimingError,
    "carrier-bins-distinct": TimingError,
    "nyquist": NyquistError,
    "odd-harmonics-clear": TimingError,
}


def _timing_rows(freq: FrequencyPlan, sample_rate: float, mode: Mode):
    """Integer-bin and Nyquist timing checks as (name, ok, detail) rows.

    A failing row's detail is the message build_plan raises with.
    """
    samples = sample_rate * freq.bit_duration
    ok = abs(samples - round(samples)) <= 1e-9 and round(samples) >= 1
    yield (
        "samples-per-bit-integer",
        ok,
        f"F = {samples}" if ok else f"sample_rate * T = {samples} is not a positive integer",
    )
    if mode is Mode.PLAIN_CDMA:
        return
    cycles = freq.cycles_per_bit()
    bad = [
        f"carrier {f_p} Hz gives {k} cycles per bit; needs a positive integer"
        for f_p, k in zip(freq.frequencies, cycles)
        if abs(k - round(k)) > 1e-9 or round(k) < 1
    ]
    yield "carrier-cycles-integer", not bad, bad[0] if bad else f"cycles per bit = {cycles}"
    bins = [round(k) for k in cycles]
    ok = len(set(bins)) == len(bins)
    yield "carrier-bins-distinct", ok, f"bins = {bins}" if ok else f"carriers share a bin: {bins}"
    top = max(freq.frequencies)
    ok = sample_rate > 2.0 * top
    failure = f"sample_rate {sample_rate} too low for {top} Hz {freq.waveform} carrier"
    yield "nyquist", ok, f"sample_rate {sample_rate} vs highest carrier {top}" if ok else failure
    if freq.waveform == "square":
        # No harmonic of one carrier may reach another's bin, folded past
        # Nyquist or not, so the sampled carriers are read at every bin. One
        # period of them gives each magnitude over g.
        g, basis = _period_basis(bins, round(samples))
        f_count, p = len(basis), len(bins)
        waves = np.stack([_square_wave(k / g, f_count) for k in cycles])
        parts = waves @ basis
        magnitude = np.hypot(parts[:, :p], parts[:, p:])  # (carrier, bin)
        own = np.diagonal(magnitude)
        leak = np.where(np.eye(p, dtype=bool), 0.0, magnitude)
        i, j = np.unravel_index(np.argmax(leak), leak.shape)
        ok = bool(leak[i, j] <= 1e-9 * own.min())
        yield "odd-harmonics-clear", ok, "" if ok else (
            f"square carrier at bin {bins[i]} puts {leak[i, j] / own[i]:.2g} of its own-bin"
            f" magnitude on carrier bin {bins[j]}"
        )


def _square_wave(cycles: float, f_count: int) -> np.ndarray:
    """One F-sample bit of a 0/1 square wave of `cycles` cycles, ON for the first half of each."""
    k = round(cycles)
    if abs(cycles - k) < 1e-9:
        # Integer cycles: exact integer edge test.
        ticks = (k * np.arange(f_count, dtype=np.int64)) % f_count
        return (2 * ticks < f_count).astype(np.float64)
    phase = (cycles * np.arange(f_count) / f_count) % 1.0
    return (phase < 0.5).astype(np.float64)


def _period_basis(bins, f_count: int) -> tuple[int, np.ndarray]:
    """g = gcd(F, bins) and the (L, 2 bins) real DFT basis [cos | -sin] at bins / g, L = F / g.

    An F-point bit's DFT at bin k is the L-point DFT at bin k / g of its g periods summed
    (decimation in time; Cooley and Tukey, 1965). Angles 2 pi n k / L are reduced as (n k) mod L.
    """
    g = math.gcd(f_count, *bins) or 1
    period = f_count // g
    ticks = np.outer(np.arange(period, dtype=np.int64), np.asarray(bins) // g) % period
    angle = (2.0 * math.pi / period) * ticks
    return g, np.concatenate([np.cos(angle), -np.sin(angle)], axis=1)


def build_plan(
    grid: PixelGrid,
    *,
    mode: Mode = Mode.PASSIVE_FDMA_CDMA,
    channels: int | None = None,
    f1: float | None = None,
    frequencies: tuple[float, ...] | None = None,
    bit_rate: float,
    sample_rate: float,
    key_seed: int = 0,
    hopping: bool = False,
    waveform: str | None = None,
    min_code_length: int | None = None,
    shuffle_pixels: bool | None = None,
    shuffle_codes: bool | None = None,
    frame_index: int = 0,
) -> CodingPlan:
    """Build and validate a coding plan; a deterministic function of its inputs.

    The carriers are the explicit `frequencies` list or else the octave
    ladder of `channels` (default 1) carriers from f1; the plain CDMA mode
    rides one static carrier and the FM-CDMA and FM-TDMA modes one carrier.
    An input the plan would ignore, such as f1 next to frequencies or a
    channels count other than the carriers', raises ConfigError. So does a
    keyed layer with nothing to permute: hopping on one carrier, the code
    shuffle in fm-tdma, or a frame_index with the code shuffle off. Keyed
    shuffles default to on whenever key_seed != 0, the code shuffle outside
    fm-tdma only.
    """
    grid.check()
    for name, value, ok, rule in (
        ("bit_rate", bit_rate, 0 < bit_rate < math.inf, "finite and > 0"),
        ("sample_rate", sample_rate, 0 < sample_rate < math.inf, "finite and > 0"),
        ("key_seed", key_seed, key_seed >= 0, ">= 0"),
        ("frame_index", frame_index, frame_index >= 0, ">= 0"),
        ("channels", channels, channels is None or channels >= 1, ">= 1"),
    ):
        if not ok:
            raise ConfigError(f"{name} must be {rule}, got {value}")
    q = grid.pixel_count
    mode = Mode(mode)
    plain = mode is Mode.PLAIN_CDMA
    if plain and frequencies is None:
        frequencies = (0.0,)  # its one static carrier
    if f1 is not None and frequencies is not None:
        raise ConfigError(f"f1 = {f1} would be ignored next to frequencies {list(frequencies)}")
    if frequencies is not None:
        freq_list = tuple(float(f) for f in frequencies)
    elif f1 is not None:
        freq_list = tuple(float(f1) * 2**p for p in range(1 if channels is None else channels))
    else:
        raise ConfigError("either f1 or an explicit frequency list is required")
    if not freq_list:
        raise ConfigError("at least one carrier frequency is required")
    if channels not in (None, len(freq_list)):
        raise ConfigError(f"channels = {channels} but the carriers are {list(freq_list)}")
    channels = len(freq_list)
    if mode in (Mode.FM_CDMA, Mode.FM_TDMA) and channels != 1:
        raise ConfigError(f"{mode.value} rides one carrier, got {channels}: {list(freq_list)}")
    if plain and freq_list != (0.0,):
        raise ConfigError(f"plain-cdma rides one static carrier, got frequencies {list(freq_list)}")
    if not all(map(math.isfinite, freq_list)):
        raise ConfigError(f"carrier frequencies must be finite, got {freq_list}")
    allowed = ("none",) if plain else ("square", "sine")
    if waveform is None:
        waveform = "sine" if mode is Mode.ACTIVE_OVERLAPPED else allowed[0]
    if waveform not in allowed:
        raise ConfigError(
            f"waveform must be {' or '.join(map(repr, allowed))} in {mode.value}, got {waveform!r}"
        )
    if mode is Mode.FM_TDMA and min_code_length is not None:
        raise ConfigError(f"fm-tdma has no codes, got min_code_length {min_code_length}")
    if hopping and channels < 2:
        raise ConfigError(f"hopping = True needs two or more carriers, {mode.value} has {channels}")
    if shuffle_codes is None:
        shuffle_codes = key_seed != 0 and mode is not Mode.FM_TDMA
    if shuffle_codes and mode is Mode.FM_TDMA:
        raise ConfigError("shuffle_codes = True in fm-tdma, which has no codes to shuffle")
    if frame_index and not shuffle_codes:
        raise ConfigError(
            f"frame_index = {frame_index} keys only the code shuffle, and shuffle_codes is off"
        )

    freq = FrequencyPlan(
        frequencies=freq_list,
        bit_duration=1.0 / float(bit_rate),
        waveform=waveform,
    )
    for name, ok, detail in _timing_rows(freq, float(sample_rate), mode):
        if not ok:
            raise _TIMING_ERRORS[name](detail)
    samples_per_bit = int(round(float(sample_rate) * freq.bit_duration))

    if shuffle_pixels is None:
        shuffle_pixels = key_seed != 0

    base_set, base_member = np.divmod(np.arange(q), _slots_per_set(mode, channels))
    set_count = int(base_set[-1]) + 1
    if shuffle_pixels:
        order = _rng(key_seed, _STREAM_PIXELS).permutation(q)
    else:
        order = np.arange(q)
    set_index = np.empty(q, dtype=np.int64)
    member_index = np.empty(q, dtype=np.int64)
    set_index[order] = base_set
    member_index[order] = base_member

    # Codebook and per-set code rows; an FM-TDMA set owns the slot of its index.
    book = None if mode is Mode.FM_TDMA else codes.codebook(set_count, min_length=min_code_length)
    code_length = q if book is None else book.length
    code_row = (
        _rng(key_seed, _STREAM_CODES, frame_index).permutation(set_count)
        if shuffle_codes else np.arange(set_count)
    )

    if hopping:
        rng = _rng(key_seed, _STREAM_HOPS)
        hops = np.stack([rng.permutation(channels) for _ in range(code_length)])
    else:
        hops = np.arange(channels)  # every bit the identity, broadcast without a copy
    hop_schedule = np.broadcast_to(hops, (code_length, channels))  # a read-only view

    phases = tuple(
        float(x) for x in _rng(key_seed, _STREAM_PHASES).uniform(0.0, 2.0 * math.pi, channels)
    )

    return CodingPlan(
        grid=grid,
        frequencies=freq,
        mode=mode,
        codebook=book,
        set_count=set_count,
        set_index=set_index,
        member_index=member_index,
        code_row=code_row,
        hop_schedule=hop_schedule,
        key_seed=int(key_seed),
        frame_index=int(frame_index),
        sample_rate=float(sample_rate),
        samples_per_bit=samples_per_bit,
        shuffle_pixels=bool(shuffle_pixels),
        shuffle_codes=bool(shuffle_codes),
        hopping=bool(hopping),
        carrier_phases=phases,
        code_length_override=min_code_length,
    )


def rebuild(plan: CodingPlan, **overrides) -> CodingPlan:
    """Re-run build_plan with this plan's parameters, some overridden."""
    return build_plan(plan.grid, **{**_plan_params(plan), **overrides})


def reallocate(plan: CodingPlan, frame_index: int) -> CodingPlan:
    """Next-frame plan: the set -> code allocation is re-keyed per frame.

    An fm-tdma plan has no codes to re-key, so build_plan refuses it.
    """
    return rebuild(plan, frame_index=frame_index, shuffle_codes=True)


@dataclass
class PlanReport:
    """validate_plan output: one (name, passed, detail) row per invariant."""

    entries: list[tuple[str, bool, str]] = field(default_factory=list)
    speedup_vs_single_channel: float = 1.0

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.entries.append((name, passed, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def failures(self) -> list[str]:
        return [name for name, ok, _ in self.entries if not ok]

    def __str__(self) -> str:
        lines = []
        for name, ok, detail in self.entries:
            status = "pass" if ok else "FAIL"
            lines.append(f"[{status}] {name}" + (f": {detail}" if detail else ""))
        lines.append(f"speedup vs single-channel plan: {self.speedup_vs_single_channel:g}")
        return "\n".join(lines)


def validate_plan(plan: CodingPlan) -> PlanReport:
    """Check every plan invariant and report pass/fail without raising."""
    report = PlanReport()
    freq = plan.frequencies
    for row in _timing_rows(freq, plan.sample_rate, plan.mode):
        report.add(*row)

    # The (set, slot) pairs, sorted, are the rank-order layout exactly: every
    # slot of a set used once, the last set's lowest slots when it is partial.
    slots = _slots_per_set(plan.mode, plan.channel_count)
    want_set, want_slot = np.divmod(np.arange(plan.grid.pixel_count), slots)
    rank = np.lexsort((plan.member_index, plan.set_index))
    report.add(
        "slot-layout",
        bool(plan.set_count == want_set[-1] + 1)
        and np.array_equal(plan.set_index[rank], want_set)
        and np.array_equal(plan.member_index[rank], want_slot),
        f"sets = {plan.set_count}, slots per set = {slots}",
    )

    if plan.hopping:
        w, p = plan.code_length, plan.channel_count
        identity = np.broadcast_to(np.arange(p), (w, p))
        rows_ok = np.array_equal(np.sort(plan.hop_schedule, axis=1), identity)
        report.add("hop-rows-are-permutations", rows_ok)

    if plan.codebook is not None:
        report.add("code-correlation-identity", *_code_identity(plan.codebook))

    report.speedup_vs_single_channel = _speedup_vs_single_channel(plan)
    return report


def _code_identity(book: CodeBook, probes: int = 4) -> tuple[bool, str]:
    """The Hadamard identities behind exact on/off correlation, at any code length.

    Checks, in exact int64 arithmetic through the transform the codec uses:
    the seed S exactly (S @ S.T == s I); balance, H @ 1 == W e0 (every code
    row sums to zero); and H @ (H.T @ r) == W r for `probes` fixed-seed
    random integer vectors r (Freivalds 1977). Together they give every code
    W / 2 ones and correlation (W / 2) I against the signed codes.
    """
    w, seed = book.length, codes.seed_matrix(book.length)
    ones = codes.hadamard_transform(np.ones(w, dtype=np.int64))
    r = np.random.default_rng(0).integers(-(2**15), 2**15, size=(w, probes))
    back = codes.hadamard_transform(codes.hadamard_transform(r, transpose=True))
    checks = {
        "seed": np.array_equal(seed @ seed.T, len(seed) * np.eye(len(seed), dtype=np.int64)),
        "balance": book.num_codes < w and ones[0] == w and not ones[1:].any(),
        f"{probes} Freivalds probes": np.array_equal(back, w * r),
    }
    detail = ", ".join(f"{name} {'ok' if ok else 'FAIL'}" for name, ok in checks.items())
    return bool(all(checks.values())), f"W = {w}: {detail}"


def _speedup_vs_single_channel(plan: CodingPlan) -> float:
    if plan.mode in (Mode.FM_TDMA,):
        return 1.0
    q = plan.grid.pixel_count
    single_w = codes.min_supported_order(q + 1)
    return single_w / plan.code_length


# ---------------------------------------------------------------------------
# Plan files (versioned JSON schema) and assignment audit dump
# ---------------------------------------------------------------------------

_PLAN_FORMAT = "caossim-plan"
_PLAN_VERSION = 1


def _typed(kind, *accepted):
    """Parser of a JSON value of the accepted types (default: kind), converted to kind."""
    accepted = accepted or (kind,)

    def parse(value):
        if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
            raise TypeError(f"expected {kind.__name__}, got {value!r}")
        return kind(value)

    return parse


#: JSON value parsers shared by plan files, stream sidecars and experiment
#: and detector configs: each raises TypeError on a value of the wrong JSON type.
json_int, json_real, json_flag = _typed(int), _typed(float, int, float), _typed(bool)
json_text, json_list, json_object = _typed(str), _typed(tuple, list, tuple), _typed(dict)


def json_optional(parse):
    """Parser accepting null (as None) or what parse accepts."""
    return lambda value: None if value is None else parse(value)


def parse_fields(doc, parsers: dict, defaults: dict, what: str) -> dict:
    """Parse a JSON object; unknown, missing or mistyped fields raise ConfigError.

    A missing field with an entry in defaults takes that value as it is.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(doc) - set(parsers)
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")
    out = {}
    for name, parse in parsers.items():
        if name in doc:
            try:
                out[name] = parse(doc[name])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{what} field {name!r}: {exc}") from None
        elif name in defaults:
            out[name] = defaults[name]
        else:
            raise ConfigError(f"{what} field {name!r} is missing")
    return out


def json_document(doc: dict) -> str:
    """The text of a caossim JSON document: sorted keys, two-space indent, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_document(doc))


def document_fields(data, kind: str, version: int) -> dict:
    """A versioned caossim document's fields besides its format and version.

    Raises ConfigError unless data is a JSON object of format kind and that version.
    """
    if not isinstance(data, dict) or data.get("format") != kind:
        raise ConfigError(f"not a {kind} document")
    if data.get("version") != version:
        raise ConfigError(f"unsupported {kind} version {data.get('version')!r}")
    return {k: v for k, v in data.items() if k not in ("format", "version")}


def _grid(value) -> PixelGrid:
    parsers = {
        "columns": json_int,
        "rows": json_int,
        "active_pixels": json_optional(
            lambda v: tuple((json_int(m), json_int(n)) for m, n in json_list(v))
        ),
    }
    defaults = {"active_pixels": None}
    return PixelGrid(**parse_fields(value, parsers, defaults, "grid"))


#: The build_plan parameters a plan records: keyword -> (CodingPlan
#: attribute, plan-file parser). Plan files, plan_from_dict and rebuild all
#: read this one table.
_PLAN_PARAMS = {
    "mode": ("mode.value", Mode),
    "frequencies": ("frequencies.frequencies", lambda v: tuple(map(json_real, json_list(v)))),
    "waveform": ("frequencies.waveform", json_text),
    "bit_rate": ("bit_rate", json_real),
    "sample_rate": ("sample_rate", json_real),
    "key_seed": ("key_seed", json_int),
    "frame_index": ("frame_index", json_int),
    "hopping": ("hopping", json_flag),
    "shuffle_pixels": ("shuffle_pixels", json_flag),
    "shuffle_codes": ("shuffle_codes", json_flag),
    "min_code_length": ("code_length_override", json_optional(json_int)),
}


def _plan_params(plan: CodingPlan) -> dict:
    return {name: attrgetter(attr)(plan) for name, (attr, _) in _PLAN_PARAMS.items()}


def plan_to_dict(plan: CodingPlan) -> dict:
    grid = {"columns": plan.grid.columns, "rows": plan.grid.rows}
    if plan.grid.active_pixels is not None:
        grid["active_pixels"] = [list(p) for p in plan.grid.active_pixels]
    return {
        "format": _PLAN_FORMAT,
        "version": _PLAN_VERSION,
        "grid": grid,
        "code_length": plan.code_length,
        **_plan_params(plan),
    }


def save_plan(plan: CodingPlan, path) -> None:
    write_json(plan_to_dict(plan), path)


def plan_from_dict(data: dict) -> CodingPlan:
    body = document_fields(data, _PLAN_FORMAT, _PLAN_VERSION)
    parsers = {"grid": _grid, "code_length": json_int}
    parsers.update((name, parse) for name, (_, parse) in _PLAN_PARAMS.items())
    fields = parse_fields(body, parsers, {"frame_index": 0, "min_code_length": None}, "plan")
    code_length = fields.pop("code_length")
    plan = build_plan(fields.pop("grid"), **fields)
    if plan.code_length != code_length:
        raise ConfigError(
            f"plan file declares code_length {code_length}"
            f" but parameters resolve to {plan.code_length}"
        )
    return plan


def load_plan(path) -> CodingPlan:
    with open(path, encoding="utf-8") as fh:
        return plan_from_dict(json.load(fh))


def write_assignment_csv(plan: CodingPlan, path) -> None:
    """Full per-pixel assignment matrix for auditing.

    One row per pixel: its 1-based column m and row n, set_index,
    member_index (its channel slot) and code_row. Its 0-based carrier in
    0-based bit w is hop_schedule[w, member_index], which coding_element
    gives; no column holds it, since a hopping plan moves it every bit.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "n", "set_index", "member_index", "code_row"])
        for (row, column), s, mem in zip(
            plan.pixel_index.tolist(), plan.set_index.tolist(), plan.member_index.tolist()
        ):
            writer.writerow([column + 1, row + 1, s, mem, int(plan.code_row[s])])
