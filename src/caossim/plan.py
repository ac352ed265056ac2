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
from .errors import ConfigError, NyquistError, TimingError

# Sub-stream labels for key_seed derived generators.
_STREAM_PIXELS = 0
_STREAM_CODES = 1
_STREAM_HOPS = 2
_STREAM_PHASES = 3


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
        pixel_size: micromirrors per pixel side, informational only.
        active_pixels: optional explicit pixel list; default full raster,
            row-major (n outer, m inner).
    """

    columns: int
    rows: int
    pixel_size: int = 1
    active_pixels: tuple[tuple[int, int], ...] | None = None

    def positions(self) -> tuple[tuple[int, int], ...]:
        if self.active_pixels is not None:
            return self.active_pixels
        return tuple(
            (m, n) for n in range(1, self.rows + 1) for m in range(1, self.columns + 1)
        )

    def index(self, pixel) -> int:
        """Index of pixel in positions(); ValueError when it is not an active pixel."""
        m, n = pixel
        if self.active_pixels is not None:
            idx = self._active_index.get((m, n))
        elif 1 <= m <= self.columns and 1 <= n <= self.rows:
            idx = (n - 1) * self.columns + (m - 1)
        else:
            idx = None
        if idx is None:
            raise ValueError(f"pixel {pixel} is not in the plan grid")
        return idx

    @cached_property
    def _active_index(self) -> dict:
        return {pos: i for i, pos in enumerate(self.active_pixels)}

    @property
    def pixel_count(self) -> int:
        if self.active_pixels is not None:
            return len(self.active_pixels)
        return self.columns * self.rows

    def check(self) -> None:
        if self.columns < 1 or self.rows < 1:
            raise ConfigError("grid must be at least 1x1")
        if self.pixel_size < 1:
            raise ConfigError(f"pixel_size must be >= 1, got {self.pixel_size}")
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
    harmonics: int = 1

    @property
    def channel_count(self) -> int:
        return len(self.frequencies)

    def cycles_per_bit(self) -> tuple[float, ...]:
        """f_p * T per channel; integers on a valid plan."""
        return tuple(f * self.bit_duration for f in self.frequencies)


@dataclass(frozen=True)
class PixelSetLayout:
    set_count: int
    set_sizes: tuple[int, ...]

    @property
    def last_set_size(self) -> int:
        return self.set_sizes[-1]


def pixel_sets(num_pixels: int, num_channels: int) -> PixelSetLayout:
    """Partition Q pixels into J = ceil(Q / P) channel-sharing sets.

    All sets are full except possibly the last, which keeps the lowest
    channel indices.
    """
    if num_pixels < 1 or num_channels < 1:
        raise ValueError("num_pixels and num_channels must be >= 1")
    set_count = -(-num_pixels // num_channels)
    sizes = [num_channels] * (set_count - 1)
    sizes.append(num_pixels - (set_count - 1) * num_channels)
    return PixelSetLayout(set_count=set_count, set_sizes=tuple(sizes))


@dataclass(frozen=True, eq=False)
class CodingPlan:
    """Immutable result of build_plan; safe to share between encoder and decoder.

    set_index / member_index map each active pixel (in grid position order)
    to its code set and its channel slot within the set. code_row maps a set
    to its codebook row. hop_schedule, when present, is a (W, P) table whose
    row w is the permutation applied to channel slots during bit w; one
    global permutation shared by every set, which is the weakest condition
    that preserves exact correlation decoding.
    """

    grid: PixelGrid
    frequencies: FrequencyPlan
    mode: Mode
    codebook: CodeBook | None
    set_count: int
    set_index: np.ndarray
    member_index: np.ndarray
    code_row: np.ndarray | None
    hop_schedule: np.ndarray | None
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

    def positions(self) -> tuple[tuple[int, int], ...]:
        return self.grid.positions()

    def channel_slot(self, bit_index: int, member: int) -> int:
        """0-based channel index used by channel slot `member` during a bit."""
        if self.hop_schedule is None:
            return member
        return int(self.hop_schedule[bit_index - 1, member])

    def code_bits(self, set_idx: int) -> np.ndarray:
        """The 0/1 code of a set (slot indicator for FM-TDMA)."""
        if self.mode is Mode.FM_TDMA:
            bits = np.zeros(self.code_length, dtype=np.uint8)
            bits[set_idx] = 1
            return bits
        return self.codebook.code(int(self.code_row[set_idx]))


def coding_element(plan: CodingPlan, pixel: tuple[int, int], bit_index: int):
    """Code bit and carrier channel of one pixel during one bit.

    Returns (code_bit, channel) with channel a 1-based index, None while the
    pixel is parked, or a tuple of all channels in the active overlapped
    mode where every pixel rides every source carrier.
    """
    if not (1 <= bit_index <= plan.code_length):
        raise ValueError(f"bit_index {bit_index} outside 1..{plan.code_length}")
    idx = plan.grid.index(pixel)
    bit = int(plan.code_bits(int(plan.set_index[idx]))[bit_index - 1])
    if bit == 0:
        return 0, None
    if plan.mode is Mode.ACTIVE_OVERLAPPED:
        return 1, tuple(
            plan.channel_slot(bit_index, p) + 1 for p in range(plan.channel_count)
        )
    return 1, plan.channel_slot(bit_index, int(plan.member_index[idx])) + 1


def _rng(key_seed: int, stream: int, extra: int = 0) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=key_seed, spawn_key=(stream, extra))
    return np.random.Generator(np.random.PCG64(seq))


#: Timing rows build_plan enforces, with the error each raises; the other
#: rows are reported by validate_plan only.
_TIMING_ERRORS = {
    "samples-per-bit-integer": TimingError,
    "carrier-cycles-integer": TimingError,
    "nyquist": NyquistError,
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
    yield "carrier-bins-distinct", len(set(bins)) == len(bins), f"bins = {bins}"
    top = max(freq.frequencies)
    if freq.waveform == "square":
        # The harmonic margin keeps odd harmonics of the top carrier below Nyquist.
        needed = 2.0 * freq.harmonics * top
        ok = sample_rate >= needed and (freq.harmonics != 1 or sample_rate > needed)
        failure = (
            f"sample_rate {sample_rate} too low for {top} Hz square carrier"
            f" with harmonic margin {freq.harmonics}"
        )
    else:
        ok = sample_rate > 2.0 * top
        failure = f"sample_rate {sample_rate} too low for {top} Hz carrier"
    yield "nyquist", ok, f"sample_rate {sample_rate} vs highest carrier {top}" if ok else failure


def build_plan(
    grid: PixelGrid,
    *,
    mode: Mode = Mode.PASSIVE_FDMA_CDMA,
    channels: int = 1,
    f1: float | None = None,
    frequencies: tuple[float, ...] | None = None,
    bit_rate: float,
    sample_rate: float,
    key_seed: int = 0,
    hopping: bool = False,
    waveform: str | None = None,
    harmonics: int = 1,
    min_code_length: int | None = None,
    shuffle_pixels: bool | None = None,
    shuffle_codes: bool | None = None,
    frame_index: int = 0,
) -> CodingPlan:
    """Build and validate a coding plan; a deterministic function of its inputs.

    Either f1 (octave ladder of `channels` carriers) or an explicit
    `frequencies` list must be given, except in the plain CDMA and FM-TDMA
    modes which use a single channel. Keyed shuffles default to on whenever
    key_seed != 0.
    """
    grid.check()
    for name, value, ok, rule in (
        ("bit_rate", bit_rate, 0 < bit_rate < math.inf, "finite and > 0"),
        ("sample_rate", sample_rate, 0 < sample_rate < math.inf, "finite and > 0"),
        ("harmonics", harmonics, harmonics >= 1, ">= 1"),
        ("key_seed", key_seed, key_seed >= 0, ">= 0"),
        ("frame_index", frame_index, frame_index >= 0, ">= 0"),
    ):
        if not ok:
            raise ConfigError(f"{name} must be {rule}, got {value}")
    q = grid.pixel_count
    mode = Mode(mode)

    if mode in (Mode.FM_CDMA, Mode.FM_TDMA):
        channels = 1
    if mode is Mode.PLAIN_CDMA:
        channels = 1
        frequencies = (0.0,)
        waveform = "none"
    if frequencies is not None:
        freq_list = tuple(float(f) for f in frequencies)
        if len(freq_list) != channels and mode is not Mode.PLAIN_CDMA:
            channels = len(freq_list)
    else:
        if f1 is None:
            raise ConfigError("either f1 or an explicit frequency list is required")
        freq_list = tuple(float(f1) * 2**p for p in range(channels))
    if not freq_list:
        raise ConfigError("at least one carrier frequency is required")
    if not all(map(math.isfinite, freq_list)):
        raise ConfigError(f"carrier frequencies must be finite, got {freq_list}")
    if waveform is None:
        waveform = "sine" if mode is Mode.ACTIVE_OVERLAPPED else "square"

    freq = FrequencyPlan(
        frequencies=freq_list,
        bit_duration=1.0 / float(bit_rate),
        waveform=waveform,
        harmonics=harmonics,
    )
    for name, ok, detail in _timing_rows(freq, float(sample_rate), mode):
        if not ok and name in _TIMING_ERRORS:
            raise _TIMING_ERRORS[name](detail)
    samples_per_bit = int(round(float(sample_rate) * freq.bit_duration))

    if shuffle_pixels is None:
        shuffle_pixels = key_seed != 0
    if shuffle_codes is None:
        shuffle_codes = key_seed != 0

    # Pixel -> (set, member) layout.
    if mode in (Mode.ACTIVE_OVERLAPPED, Mode.FM_TDMA):
        set_count = q
        base_set = np.arange(q)
        base_member = np.zeros(q, dtype=np.int64)
    else:
        layout = pixel_sets(q, channels)
        set_count = layout.set_count
        ranks = np.arange(q)
        base_set = ranks // channels
        base_member = ranks % channels

    if shuffle_pixels:
        order = _rng(key_seed, _STREAM_PIXELS).permutation(q)
    else:
        order = np.arange(q)
    set_index = np.empty(q, dtype=np.int64)
    member_index = np.empty(q, dtype=np.int64)
    set_index[order] = base_set
    member_index[order] = base_member

    # Codebook and per-set code rows.
    if mode is Mode.FM_TDMA:
        book = None
        code_row = None
    else:
        book = codes.codebook(set_count, min_length=min_code_length)
        if shuffle_codes:
            code_row = _rng(key_seed, _STREAM_CODES, frame_index).permutation(set_count)
        else:
            code_row = np.arange(set_count)

    code_length = q if mode is Mode.FM_TDMA else book.length

    hop_schedule = None
    if hopping:
        rng = _rng(key_seed, _STREAM_HOPS)
        hop_schedule = np.stack([rng.permutation(channels) for _ in range(code_length)])

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
    """Next-frame plan: the set -> code allocation is re-keyed per frame."""
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

    if plan.mode is not Mode.PLAIN_CDMA and freq.waveform == "square":
        # No odd harmonic of one carrier (alias-folded) may land on
        # another carrier's bin.
        bins = [round(k) for k in freq.cycles_per_bit()]
        collision = False
        total = plan.samples_per_bit
        for kp in bins:
            if kp < 1:
                continue
            h = 3
            while h * kp <= total // 2:
                folded = (h * kp) % total
                folded = min(folded, total - folded)
                if folded in bins and folded != kp:
                    collision = True
                h += 2
        report.add("odd-harmonics-clear", not collision)

    q = plan.grid.pixel_count
    if plan.mode is Mode.ACTIVE_OVERLAPPED:
        report.add("active-one-code-per-pixel", plan.set_count == q)
    elif plan.mode is not Mode.FM_TDMA:
        layout = pixel_sets(q, plan.channel_count)
        report.add("set-count", plan.set_count == layout.set_count)
        pairs = set(zip(plan.set_index.tolist(), plan.member_index.tolist()))
        report.add("unique-code-channel-pairs", len(pairs) == q)
        sizes = np.bincount(plan.set_index, minlength=plan.set_count)
        report.add(
            "set-sizes",
            tuple(int(s) for s in sizes) == layout.set_sizes,
            f"sizes = {tuple(int(s) for s in sizes)}",
        )
        last = plan.member_index[plan.set_index == plan.set_count - 1]
        report.add(
            "partial-set-uses-lowest-channels",
            sorted(last.tolist()) == list(range(layout.last_set_size)),
        )

    if plan.hop_schedule is not None:
        rows_ok = plan.hop_schedule.shape == (plan.code_length, plan.channel_count) and all(
            sorted(row.tolist()) == list(range(plan.channel_count))
            for row in plan.hop_schedule
        )
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
        "pixel_size": json_int,
        "active_pixels": json_optional(
            lambda v: tuple((json_int(m), json_int(n)) for m, n in json_list(v))
        ),
    }
    defaults = {"pixel_size": 1, "active_pixels": None}
    return PixelGrid(**parse_fields(value, parsers, defaults, "grid"))


#: The build_plan parameters a plan records: keyword -> (CodingPlan
#: attribute, plan-file parser). Plan files, plan_from_dict and rebuild all
#: read this one table.
_PLAN_PARAMS = {
    "mode": ("mode.value", Mode),
    "frequencies": ("frequencies.frequencies", lambda v: tuple(map(json_real, json_list(v)))),
    "waveform": ("frequencies.waveform", json_text),
    "harmonics": ("frequencies.harmonics", json_int),
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
    grid = {
        "columns": plan.grid.columns,
        "rows": plan.grid.rows,
        "pixel_size": plan.grid.pixel_size,
    }
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
    """Full per-pixel assignment matrix for auditing."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "n", "set_index", "member_index", "channel", "code_row"])
        for idx, (m, n) in enumerate(plan.positions()):
            s = int(plan.set_index[idx])
            mem = int(plan.member_index[idx])
            row = s if plan.code_row is None else int(plan.code_row[s])
            writer.writerow([m, n, s, mem, mem + 1, row])
