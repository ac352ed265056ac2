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

import json
import math
import os
from dataclasses import asdict, dataclass
from enum import Enum
from functools import cached_property
from operator import attrgetter

import numpy as np

from . import codes
from .codes import CodeBook
from .errors import ConfigError, NyquistError, TimingError

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

    @property
    def waveform(self) -> str:
        """Carrier shape: DMD mirrors toggle "square", sources ride "sine", plain CDMA "none"."""
        return {Mode.PLAIN_CDMA: "none", Mode.ACTIVE_OVERLAPPED: "sine"}.get(self, "square")


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
    f1 unless an explicit list was given). bit_rate is kept as given, so a
    plan file records it unchanged. The carrier shape follows from the mode
    (Mode.waveform).
    """

    frequencies: tuple[float, ...]
    bit_rate: float

    @property
    def bit_duration(self) -> float:
        """T = 1 / bit_rate."""
        return 1.0 / self.bit_rate

    @property
    def channel_count(self) -> int:
        return len(self.frequencies)

    def cycles_per_bit(self) -> tuple[float, ...]:
        """f_p * T per channel; within 1e-9 of the integer carrier bins on a built plan."""
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
        return self.frequencies.bit_rate

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
    def period_carriers(self) -> np.ndarray:
        """One carrier period of every channel's unit carrier, shape (channels, L).

        The mode's waveform: square, a 50% duty 0/1 wave at f_p starting ON at
        the bit boundary; sine, (1 + sin(2 pi f_p t + phase_p)) / 2 with keyed
        per-channel phase; none (plain CDMA), constant 1, the mirror statically on.
        """
        return _read_only(_carrier_rows(
            self.carrier_bins, self.samples_per_bit, self.mode.waveform, self.carrier_phases,
            self.carrier_period,
        ))

    @cached_property
    def carrier_matrix(self) -> np.ndarray:
        """One bit of every channel's unit carrier, shape (channels, F): period_carriers g times.

        Bitwise the whole-bit build, since the ticks (k n) mod F repeat every L.
        No capture or decode reads it; it is the whole-bit reference.
        """
        g = self.samples_per_bit // self.carrier_period
        return _read_only(np.tile(self.period_carriers, g))

    @cached_property
    def carrier_bins(self) -> np.ndarray:
        """DFT bin index per channel within one bit: the integer cycles build_plan proved."""
        bins = [round(k) for k in self.frequencies.cycles_per_bit()]
        return _read_only(np.array(bins, dtype=np.int64))

    @cached_property
    def carrier_period(self) -> int:
        """L = F / g, g = gcd(F, carrier bins): every carrier repeats every L samples."""
        return len(self.period_basis)

    @cached_property
    def period_basis(self) -> np.ndarray:
        """(L, 2 channels) DFT basis [cos | -sin] at each bin of a bit folded onto L samples."""
        return _read_only(_period_basis(self.carrier_bins, self.samples_per_bit))

    @cached_property
    def carrier_bin_gains(self) -> np.ndarray:
        """Unit-carrier DFT magnitude at each channel's own bin, read as per_bit_spectra reads."""
        p, period = self.channel_count, self.carrier_period
        # The g periods of a bit, summed as the (p, g, L) fold of the whole bit sums them.
        periods = (p, self.samples_per_bit // period, period)
        folded = np.broadcast_to(self.period_carriers[:, None, :], periods).sum(axis=1)
        parts = folded @ self.period_basis
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


def _check_timing(freq: FrequencyPlan, sample_rate: float, mode: Mode) -> int:
    """Samples per bit F, or TimingError or NyquistError at the first broken timing rule.

    F = sample_rate * T must be an integer in 2 <= F < 2**32: decode_report
    states the DSP gain 10 log10(F / 2), and the integer ticks (k n) mod F of
    _carrier_rows stay exact in int64. Each carrier's cycles k must be whole.
    """
    samples = sample_rate * freq.bit_duration
    if not (2 <= samples < 2**32 and abs(samples - round(samples)) <= 1e-9):
        raise TimingError(f"sample_rate * T = {samples} is not an integer from 2 to 2**32 - 1")
    f_count = round(samples)
    if mode is Mode.PLAIN_CDMA:
        return f_count
    cycles = freq.cycles_per_bit()
    for f_p, k in zip(freq.frequencies, cycles):
        if not (math.isfinite(k) and abs(k - round(k)) <= 1e-9 and round(k) >= 1):
            raise TimingError(
                f"carrier {f_p} Hz gives {k} cycles per bit; needs a positive integer"
            )
    bins = [round(k) for k in cycles]
    if len(set(bins)) != len(bins):
        raise TimingError(f"carriers share a bin: {bins}")
    top = max(freq.frequencies)
    if not sample_rate > 2.0 * top:
        raise NyquistError(
            f"sample_rate {sample_rate} too low for {top} Hz {mode.waveform} carrier"
        )
    if mode.waveform == "square":
        # No harmonic of one carrier may reach another's bin, folded past
        # Nyquist or not, so the sampled carriers are read at every bin. One
        # period of them gives each magnitude over g.
        p = len(bins)
        basis = _period_basis(bins, f_count)
        parts = _carrier_rows(bins, f_count, "square", (), len(basis)) @ basis
        magnitude = np.hypot(parts[:, :p], parts[:, p:])  # (carrier, bin)
        own = np.diagonal(magnitude)
        leak = np.where(np.eye(p, dtype=bool), 0.0, magnitude)
        i, j = np.unravel_index(np.argmax(leak), leak.shape)
        if not leak[i, j] <= 1e-9 * own.min():
            raise TimingError(
                f"square carrier at bin {bins[i]} puts {leak[i, j] / own[i]:.2g} of its own-bin"
                f" magnitude on carrier bin {bins[j]}"
            )
    return f_count


def _carrier_rows(bins, f_count: int, waveform: str, phases, length: int) -> np.ndarray:
    """(bins, length) unit carriers at integer bins of an F-sample bit, from ticks (k n) mod F.

    Square: 0/1, ON for the first half of each cycle. Sine: (1 + sin(2 pi ticks / F +
    phase)) / 2. None: 1. Integer ticks make each row repeat bitwise every F / gcd(F, bins).
    """
    ticks = np.multiply.outer(np.asarray(bins, dtype=np.int64), np.arange(length, dtype=np.int64))
    ticks %= f_count
    if waveform == "square":
        return (2 * ticks < f_count).astype(np.float64)
    if waveform == "none":
        return np.ones(ticks.shape)
    return 0.5 * (1.0 + np.sin((2.0 * math.pi / f_count) * ticks + np.asarray(phases)[:, None]))


def _period_basis(bins, f_count: int) -> np.ndarray:
    """(L, 2 bins) real DFT basis [cos | -sin] at bins / g, g = gcd(F, bins), L = F / g.

    An F-point bit's DFT at bin k is the L-point DFT at bin k / g of its g periods summed
    (decimation in time; Cooley and Tukey, 1965). Angles 2 pi n k / L are reduced as (n k) mod L.
    """
    g = math.gcd(f_count, *bins)
    period = f_count // g
    ticks = np.outer(np.arange(period, dtype=np.int64), np.asarray(bins) // g) % period
    angle = (2.0 * math.pi / period) * ticks
    return np.concatenate([np.cos(angle), -np.sin(angle)], axis=1)


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
    shuffle in fm-tdma or on one code set, the pixel shuffle on one pixel,
    or a frame_index with the code shuffle off. A keyed shuffle defaults to
    on whenever key_seed != 0 and it has something to permute.
    """
    grid.check()
    for name, value, ok, rule in (
        ("bit_rate", bit_rate, 0 < bit_rate < math.inf, "finite and > 0"),
        ("sample_rate", sample_rate, 0 < sample_rate < math.inf, "finite and > 0"),
        ("key_seed", key_seed, key_seed >= 0, ">= 0"),
        ("frame_index", frame_index, frame_index >= 0, ">= 0"),
        ("channels", channels, channels is None or channels >= 1, ">= 1"),
        ("f1", f1, f1 is None or 0 < f1 < math.inf, "finite and > 0"),
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
        count = 1 if channels is None else channels
        # The top carrier f1 * 2**(count - 1) is below 2**(e + count - 1), e = frexp(f1)[1].
        if math.frexp(f1)[1] + count - 1 > 1024:  # every float is below 2**1024
            raise ConfigError(f"the octave ladder of channels = {count} from f1 = {f1} overflows")
        freq_list = tuple(math.ldexp(f1, p) for p in range(count))
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
    if hopping and channels < 2:
        raise ConfigError(f"hopping = True needs two or more carriers, {mode.value} has {channels}")
    slots = _slots_per_set(mode, channels)
    set_count = -(-q // slots)
    if shuffle_codes is None:
        shuffle_codes = key_seed != 0 and mode is not Mode.FM_TDMA and set_count > 1
    if shuffle_codes and mode is Mode.FM_TDMA:
        raise ConfigError("shuffle_codes = True in fm-tdma, which has no codes to shuffle")
    if shuffle_codes and set_count == 1:
        raise ConfigError("shuffle_codes = True on one code set, which has no other code to take")
    if shuffle_pixels is None:
        shuffle_pixels = key_seed != 0 and q > 1
    if shuffle_pixels and q == 1:
        raise ConfigError("shuffle_pixels = True on one pixel, which has no other slot to take")
    if frame_index and not shuffle_codes:
        raise ConfigError(
            f"frame_index = {frame_index} keys only the code shuffle, and shuffle_codes is off"
        )

    freq = FrequencyPlan(frequencies=freq_list, bit_rate=float(bit_rate))
    samples_per_bit = _check_timing(freq, float(sample_rate), mode)

    base_set, base_member = np.divmod(np.arange(q), slots)
    if shuffle_pixels:
        order = _rng(key_seed, _STREAM_PIXELS).permutation(q)
    else:
        order = np.arange(q)
    set_index = np.empty(q, dtype=np.int64)
    member_index = np.empty(q, dtype=np.int64)
    set_index[order] = base_set
    member_index[order] = base_member

    # Codebook and per-set code rows; an FM-TDMA set owns the slot of its index.
    book = None if mode is Mode.FM_TDMA else codes.codebook(set_count)
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
    )


def rebuild(plan: CodingPlan, **overrides) -> CodingPlan:
    """Re-run build_plan with this plan's parameters, some overridden."""
    return build_plan(**{**_plan_params(plan), **overrides})


def reallocate(plan: CodingPlan, frame_index: int) -> CodingPlan:
    """Next-frame plan: the set -> code allocation is re-keyed per frame.

    An fm-tdma plan, or one of a single code set, has no code allocation to
    re-key, so build_plan refuses it.
    """
    return rebuild(plan, frame_index=frame_index, shuffle_codes=True)


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
json_text, json_list = _typed(str), _typed(tuple, list, tuple)


def json_optional(parse):
    """Parser accepting null (as None) or what parse accepts."""
    return lambda value: None if value is None else parse(value)


def json_choice(parse, *allowed):
    """Parser of a closed set: a value parse accepts that is one of allowed, else ValueError."""

    def choose(value):
        value = parse(value)
        if value not in allowed:
            raise ValueError(f"expected {' or '.join(map(repr, allowed))}, got {value!r}")
        return value

    return choose


def parse_fields(doc, parsers: dict, defaults: dict, what: str) -> dict:
    """Parse a JSON object; unknown, missing or mistyped fields raise ConfigError.

    A missing field with an entry in defaults takes that value as it is. A
    field's parser refuses a value by raising TypeError, ValueError or, for
    a nested object, ConfigError, which is reported under the field's name.
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
            except (TypeError, ValueError, ConfigError) as exc:
                raise ConfigError(f"{what} field {name!r}: {exc}") from None
        elif name in defaults:
            out[name] = defaults[name]
        else:
            raise ConfigError(f"{what} field {name!r} is missing")
    return out


def json_document(doc: dict) -> str:
    """The text of a caossim JSON document: sorted keys, two-space indent, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_at(path, data, offset: int = 0) -> None:
    """Write bytes or a contiguous array at offset into path, then cut the file there.

    The file is made if missing and never truncated to zero first, which on
    ext4 starts a writeback on close that the next truncation waits for.
    """
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    with open(os.open(path, flags, 0o666), "wb") as fh:
        fh.seek(offset)
        fh.write(data)
        fh.truncate()


def write_json(doc: dict, path) -> None:
    write_at(path, json_document(doc).encode("utf-8"))


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


#: Every build_plan argument: keyword -> (parser of its JSON value, the
#: CodingPlan attribute that records it or None). Plan files hold the recorded
#: ones, which plan_from_dict and rebuild read back; an experiment config's plan
#: object sets any but key_seed, and takes build_plan's default for one it leaves out.
PLAN_KEYWORDS = {
    "grid": (_grid, "grid"),
    "mode": (json_choice(json_text, *(mode.value for mode in Mode)), "mode.value"),
    "channels": (json_int, None),
    "f1": (json_real, None),
    "frequencies": (lambda v: tuple(map(json_real, json_list(v))), "frequencies.frequencies"),
    "bit_rate": (json_real, "bit_rate"),
    "sample_rate": (json_real, "sample_rate"),
    "key_seed": (json_int, "key_seed"),
    "hopping": (json_flag, "hopping"),
    "shuffle_pixels": (json_flag, "shuffle_pixels"),
    "shuffle_codes": (json_flag, "shuffle_codes"),
    "frame_index": (json_int, "frame_index"),
}
_RECORDED = {name: attr for name, (_, attr) in PLAN_KEYWORDS.items() if attr}


def _plan_params(plan: CodingPlan) -> dict:
    return {name: attrgetter(attr)(plan) for name, attr in _RECORDED.items()}


def keywords_doc(keywords: dict) -> dict:
    """The JSON object of build_plan arguments that PLAN_KEYWORDS parses back."""
    grid = {name: value for name, value in asdict(keywords["grid"]).items() if value is not None}
    return {**keywords, "grid": grid}


def plan_to_dict(plan: CodingPlan) -> dict:
    return {
        "format": _PLAN_FORMAT,
        "version": _PLAN_VERSION,
        "code_length": plan.code_length,
        **keywords_doc(_plan_params(plan)),
    }


def save_plan(plan: CodingPlan, path) -> None:
    write_json(plan_to_dict(plan), path)


def plan_from_dict(data: dict) -> CodingPlan:
    body = document_fields(data, _PLAN_FORMAT, _PLAN_VERSION)
    parsers = {"code_length": json_int, **{name: PLAN_KEYWORDS[name][0] for name in _RECORDED}}
    fields = parse_fields(body, parsers, {"frame_index": 0}, "plan")
    code_length = fields.pop("code_length")
    plan = build_plan(**fields)
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
    lines = ["m,n,set_index,member_index,code_row"]
    for (row, column), s, mem in zip(
        plan.pixel_index.tolist(), plan.set_index.tolist(), plan.member_index.tolist()
    ):
        lines.append(f"{column + 1},{row + 1},{s},{mem},{int(plan.code_row[s])}")
    write_at(path, "".join(f"{line}\r\n" for line in lines).encode("ascii"))
