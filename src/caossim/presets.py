"""Experiment presets: end-to-end desk-scale captures with pass/fail summaries.

Four presets mirror the three demonstration captures of the FDMA-CDMA
camera:

  exp1-hdr      passive 4-channel capture of a 6-patch 64 dB HDR target
  exp1-fmcdma   single-channel comparator on the same target and noise
  exp2-dualband broadband fiber spot decoded on two detector bands at once
  exp3-active   3-source modulated illumination of a two-hole filter target

Each preset is one record of the PRESETS table: the builder of its config
and the evaluator of its decoded images, which reads what it checks from
that config. Default timing is scaled (bit rates raised) so a preset runs
in seconds; full_scale=True restores the hardware bit rates, which changes
only the simulated duration, not the decoded values. All randomness is
seeded, so a preset reproduces bit-identical outputs on every run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import partial

import numpy as np

from . import decode as decode_mod
from . import metrics as metrics_mod
from . import plan as plan_mod
from . import scene as scene_mod
from .errors import ConfigError
from .plan import (
    Mode,
    PixelGrid,
    document_fields,
    json_document,
    json_flag,
    json_int,
    json_list,
    json_object,
    json_optional,
    json_real,
    json_text,
    parse_fields,
)
from .scene import DetectorModel, Scene

HDR_LEVELS_DB = (0.0, 20.0, 30.0, 48.0, 58.0, 64.0)

#: White-noise sigma for the experiment-1 presets, frozen by the calibration
#: sweep (`caossim calibrate`): the sigma at which the single-channel
#: comparator's 48 dB patch decodes at SNR ~= 3. Both experiment-1 presets
#: share it so their noise floors are directly comparable.
HDR_NOISE_SIGMA = 0.091876

#: Active-source LEDs as (center nm, fwhm nm) keyed by carrier order:
#: green on the first carrier, red on the second, blue on the third.
ACTIVE_SOURCES = ((530.0, 35.0), (625.0, 17.0), (455.0, 18.0))
FILTER_BANDS = {"blue": (450.0, 40.0), "green": (550.0, 40.0), "red": (620.0, 10.0)}

_RESPONSIVITIES = {
    "flat": 1.0,
    "si-band": scene_mod.si_band_responsivity,
    "ge-band": scene_mod.ge_band_responsivity,
}


def _pair(parse):
    """Parser of a JSON list of exactly two values that parse accepts."""

    def pair(value) -> list:
        items = [parse(v) for v in json_list(value)]
        if len(items) != 2:
            raise ValueError(f"expected 2 values, got {value!r}")
        return items

    return pair


def _json_field(default, parse, factory=MISSING):
    """A config field with its default (MISSING: required) and the parser of its JSON value."""
    return field(default=default, default_factory=factory, metadata={"parse": parse})


def _from_json_fields(cls, data, what: str):
    """cls from a JSON object through its fields' parsers.

    Unknown, mistyped or missing required fields raise ConfigError; other
    missing fields take their defaults.
    """
    parsers, defaults = {}, {}
    for f in fields(cls):
        parsers[f.name] = f.metadata["parse"]
        if f.default is not MISSING:
            defaults[f.name] = f.default
        elif f.default_factory is not MISSING:
            defaults[f.name] = f.default_factory()
    return cls(**parse_fields(data, parsers, defaults, what))


@dataclass
class DetectorConfig:
    gain: float = _json_field(1.0, json_real)
    noise_sigma: float = _json_field(0.0, json_real)
    shot_noise: float = _json_field(0.0, json_real)
    pink_noise: list | None = _json_field(None, json_optional(_pair(json_real)))
    adc_bits: int | None = _json_field(None, json_optional(json_int))
    adc_fullscale: float = _json_field(1.0, json_real)
    responsivity: str = _json_field("flat", json_text)

    @classmethod
    def from_dict(cls, data: dict) -> "DetectorConfig":
        """The one loader of detector settings read from JSON.

        Unknown or mistyped fields raise ConfigError; missing ones take the
        defaults.
        """
        return _from_json_fields(cls, data, "detector")

    def build(self) -> DetectorModel:
        resp = _RESPONSIVITIES.get(self.responsivity)
        if resp is None:
            raise ConfigError(f"unknown responsivity preset {self.responsivity!r}")
        # Every other field carries over to DetectorModel under its own name.
        params = {**asdict(self), "responsivity": resp() if callable(resp) else resp}
        params["pink_noise"] = tuple(self.pink_noise) if self.pink_noise else None
        return DetectorModel(**params)


def _convention(value) -> int:
    value = json_int(value)
    if value not in (10, 20):
        raise ValueError(f"expected 10 or 20, got {value}")
    return value


def _seed(value) -> int:
    value = json_int(value)
    if value < 0:
        raise ValueError(f"expected a seed >= 0, got {value}")
    return value


def _mode(value) -> str:
    return Mode(json_text(value)).value


def _real_list(value) -> list:
    return [json_real(v) for v in json_list(value)]


# ---------------------------------------------------------------------------
# Scene kinds of config files
# ---------------------------------------------------------------------------


def _hdr_scene(grid: PixelGrid, convention: int, levels_db=HDR_LEVELS_DB, layout=(2, 3)):
    """HDR patch target; its levels are in dB of the convention its patches are measured in."""
    return scene_mod.hdr_patch_target(grid, levels_db, layout=tuple(layout), convention=convention)


def _fiber_spot_scene(grid: PixelGrid, convention: int, center=None, radius=None):
    if center is None:
        center = (grid.columns // 2 + 1, grid.rows // 2 + 1)
    return scene_mod.dual_band_source(grid, tuple(center), radius=radius)


#: Two-hole variants: the filter bands on the (left, right) holes.
_TWO_HOLE_FILTERS = {"a": ("red", "green"), "b": ("green", "blue")}


def _two_hole_scene(grid: PixelGrid, convention: int, variant="a", radius=None):
    bands = _TWO_HOLE_FILTERS.get(variant)
    if bands is None:
        raise ConfigError(f"unknown two-hole variant {variant!r}")
    left = (grid.columns // 4 + 1, grid.rows // 2 + 1)
    right = (3 * grid.columns // 4 + 1, grid.rows // 2 + 1)
    return scene_mod.two_hole_target(
        grid,
        hole_positions=[left, right],
        hole_filters=[scene_mod.gaussian_spectrum(*FILTER_BANDS[b]) for b in bands],
        sources=[(scene_mod.gaussian_spectrum(*s), p + 1) for p, s in enumerate(ACTIVE_SOURCES)],
        hole_radius=radius if radius is not None else max(2.0, min(grid.columns, grid.rows) / 6.0),
    )


def _uniform_scene(grid: PixelGrid, convention: int, value=1.0):
    return Scene(grid=grid, irradiance=np.full((grid.rows, grid.columns), value))


def _image_scene(read):
    """Constructor of a scalar scene read from an image file by read."""
    return lambda grid, convention, path: Scene(grid=grid, irradiance=read(path))


#: Scene kinds of config files, keyed by their "preset" value: (the parser of
#: each parameter, the parameters without a default, the constructor, called
#: as build(grid, convention, **params)).
SCENE_KINDS = {
    "hdr-patches": ({"levels_db": _real_list, "layout": _pair(json_int)}, (), _hdr_scene),
    "fiber-spot": (
        {"center": _pair(json_int), "radius": json_optional(json_real)}, (), _fiber_spot_scene
    ),
    "two-hole": ({"variant": json_text, "radius": json_optional(json_real)}, (), _two_hole_scene),
    "uniform": ({"value": json_real}, (), _uniform_scene),
    "pgm": ({"path": json_text}, ("path",), _image_scene(scene_mod.read_image_pgm)),
    "csv": ({"path": json_text}, ("path",), _image_scene(scene_mod.read_image_csv)),
}


def _scene_params(value) -> dict:
    """A config scene: a known kind with only that kind's parameters, typed."""
    params = json_object(value)  # a copy
    kind = params.pop("preset", None)
    if kind not in SCENE_KINDS:
        raise ValueError(f"unknown scene preset {kind!r}")
    parsers, required, _ = SCENE_KINDS[kind]
    unknown = set(params) - set(parsers)
    if unknown:
        raise ValueError(f"unknown {kind} scene parameters: {sorted(unknown)}")
    for param in required:
        if param not in params:
            raise ValueError(f"a {kind} scene needs a {param}")
    typed = {"preset": kind}
    for name, v in params.items():
        try:
            typed[name] = parsers[name](v)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{kind} scene parameter {name!r}: {exc}") from None
    return typed


def build_scene(grid: PixelGrid, params: dict, convention: int = 20) -> Scene:
    """Scene constructor lookup for config files.

    An HDR target's levels are in dB of the given convention. An unknown
    kind or a parameter the kind does not take raises ConfigError.
    """
    try:
        params = _scene_params(params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    *_, build = SCENE_KINDS[params.pop("preset")]
    return build(grid, convention, **params)


_CONFIG_FORMAT = "caossim-experiment"
_CONFIG_VERSION = 1


@dataclass
class ExperimentConfig:
    """Lossless, strictly-validated description of one experiment run."""

    name: str = _json_field(MISSING, json_text)
    mode: str = _json_field(MISSING, _mode)
    grid_columns: int = _json_field(MISSING, json_int)
    grid_rows: int = _json_field(MISSING, json_int)
    pixel_size: int = _json_field(1, json_int)
    channels: int = _json_field(1, json_int)
    f1: float | None = _json_field(None, json_optional(json_real))
    frequencies: list | None = _json_field(None, json_optional(_real_list))
    bit_rate: float = _json_field(1.0, json_real)
    sample_rate: float = _json_field(2.0, json_real)
    code_length: int | None = _json_field(None, json_optional(json_int))
    key_seed: int = _json_field(0, json_int)
    hopping: bool = _json_field(False, json_flag)
    noise_seed: int = _json_field(0, _seed)
    detector: DetectorConfig = _json_field(MISSING, DetectorConfig.from_dict, DetectorConfig)
    detector2: DetectorConfig | None = _json_field(None, json_optional(DetectorConfig.from_dict))
    scene: dict = _json_field(MISSING, _scene_params, dict)
    dual: bool = _json_field(False, json_flag)
    convention: int = _json_field(20, _convention)

    def to_json(self) -> str:
        return json_document({**asdict(self), "format": _CONFIG_FORMAT, "version": _CONFIG_VERSION})

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Parse a config file; unknown, missing or mistyped fields raise ConfigError."""
        body = document_fields(json.loads(text), _CONFIG_FORMAT, _CONFIG_VERSION)
        return _from_json_fields(cls, body, "experiment config")

    def __post_init__(self):
        self.sides()

    def sides(self) -> tuple:
        """The detector config of each captured side: PD1, then PD2 when dual.

        A detector2 without dual would be silently dropped, so it raises ConfigError.
        """
        if self.detector2 is not None and not self.dual:
            raise ConfigError("detector2 is set but dual is false; set dual or drop detector2")
        return (self.detector, self.detector2 or self.detector)[: 1 + self.dual]

    def build_plan(self) -> plan_mod.CodingPlan:
        return plan_mod.build_plan(
            PixelGrid(self.grid_columns, self.grid_rows, self.pixel_size),
            mode=Mode(self.mode),
            channels=self.channels,
            f1=self.f1,
            frequencies=tuple(self.frequencies) if self.frequencies else None,
            bit_rate=self.bit_rate,
            sample_rate=self.sample_rate,
            key_seed=self.key_seed,
            hopping=self.hopping,
            min_code_length=self.code_length,
        )

    def build_scene(self, grid: PixelGrid) -> Scene:
        return build_scene(grid, self.scene, self.convention)


# ---------------------------------------------------------------------------
# Preset definitions
# ---------------------------------------------------------------------------


def _hdr_config(name, full_scale, variant, *, mode, channels, f1, noise_seed):
    """An experiment-1 capture of the HDR patch target at the calibrated noise floor."""
    scale = 1 if full_scale else 16
    # The calibration freezes the decoded noise floor at the desk-scale
    # bit length (F = 4096). Longer bits integrate more samples, so the
    # per-sample sigma grows with sqrt(F ratio) to keep the same floor.
    sigma = HDR_NOISE_SIGMA * math.sqrt(16.0 / scale)
    return ExperimentConfig(
        name=name,
        mode=mode.value,
        grid_columns=44, grid_rows=29, pixel_size=8,
        channels=channels, f1=f1 * scale,
        bit_rate=1.0 * scale, sample_rate=65536.0,
        key_seed=101, noise_seed=noise_seed,
        detector=DetectorConfig(gain=0.1, noise_sigma=sigma, adc_bits=16, adc_fullscale=10.0),
        scene={"preset": "hdr-patches", "levels_db": list(HDR_LEVELS_DB), "layout": [2, 3]},
    )


def _dualband_config(name, full_scale, variant):
    cols, rows, bit_rate, f1 = (65, 63, 4.0, 128.0) if full_scale else (21, 21, 16.0, 2048.0)
    return ExperimentConfig(
        name=name,
        mode=Mode.PASSIVE_FDMA_CDMA.value,
        grid_columns=cols, grid_rows=rows,
        channels=4, f1=f1,
        bit_rate=bit_rate, sample_rate=65536.0,
        key_seed=202,
        detector=DetectorConfig(responsivity="si-band"),
        detector2=DetectorConfig(responsivity="ge-band"),
        scene={"preset": "fiber-spot"},
        dual=True,
    )


def _active_config(name, full_scale, variant):
    bit_rate, fs = (31.25, 2_000_000.0) if full_scale else (500.0, 256_000.0)
    return ExperimentConfig(
        name=name,
        mode=Mode.ACTIVE_OVERLAPPED.value,
        grid_columns=32, grid_rows=15, pixel_size=20,
        channels=3, frequencies=[25000.0, 29000.0, 35000.0],
        bit_rate=bit_rate, sample_rate=fs,
        key_seed=303,
        scene={"preset": "two-hole", "variant": variant},
    )


def _evaluate_hdr(config, cplan, scn, detectors, images, *, tolerance_db, recovered):
    """Patch levels: the `recovered` brightest within tolerance_db, the rest at SNR < 1.

    When every patch is to be recovered, the dimmest must also reach SNR 1.
    """
    levels = config.scene["levels_db"]
    layout = scene_mod.hdr_patch_layout(cplan.grid, config.scene["layout"])
    report = metrics_mod.patch_dr(
        images[0], layout.patches, background=layout.background, convention=config.convention
    )
    snrs = [p.snr for p in report.patches]
    rows = []
    for i, (level, got, snr) in enumerate(zip(levels, report.dr_values(), snrs)):
        if i < recovered:
            good, text = abs(got - level) <= tolerance_db, f"-> {got:.2f} dB (snr {snr:.2f})"
        else:
            good, text = snr < 1.0, f"unrecoverable (snr {snr:.2f} < 1)"
        rows.append((good, f"patch {level:g} dB {text}"))
    if recovered == len(levels):
        rows.append((snrs[-1] >= 1.0, f"dimmest patch snr {snrs[-1]:.2f} >= 1"))
    return rows, report


def _evaluate_dualband(config, cplan, scn, detectors, images):
    """Each side's image against the spot's band integral through that side's responsivity."""
    rows = []
    for img, side, detector in zip(images, config.sides(), detectors):
        expected = scn.effective_irradiance(detector.responsivity)
        spot = expected > 0
        rel = np.max(
            np.abs(img.raw[spot] - expected[spot]) / expected[spot]
        ) if spot.any() else math.inf
        matches = f"{side.responsivity} spot matches band integral (max rel err {rel:.2e})"
        rows.append((rel < 1e-6, matches))
        rows.append((img.values.max() > 0, f"{side.responsivity} image shows the spot"))
    return rows, None


def _evaluate_active(config, cplan, scn, detectors, images):
    """A source's image shows exactly the holes its spectrum reaches, at their band integrals."""
    rows = []
    peak = max(img.values.max() for img in images)
    for img in images:
        expected = scn.per_source[img.source_index]
        should_show = expected.max() > 0
        good = (img.values.max() > 1e-6 * peak) == should_show
        if should_show:
            inside = expected > 0
            rel = np.max(np.abs(img.raw[inside] - expected[inside]) / expected[inside])
            good &= rel < 1e-6
            detail = f"hole present (max rel err {rel:.2e})"
        else:
            detail = f"image empty (peak ratio {img.values.max() / peak:.2e})"
        side = f"{img.pd_side} " if config.dual else ""
        rows.append((good, f"{side}source {img.source_index + 1}: {detail}"))
    return rows, None


#: The presets as (config builder, evaluator) records. A builder is called as
#: build(name, full_scale, variant); an evaluator as evaluate(config, plan,
#: scene, detectors, images) and returns (rows, patch report or None), one
#: (passed, text) row per summary line. An experiment-1 evaluator's row is
#: (dB tolerance, patches recovered, brightest first).
PRESETS = {
    "exp1-hdr": (
        partial(_hdr_config, mode=Mode.PASSIVE_FDMA_CDMA, channels=4, f1=128.0, noise_seed=2101),
        partial(_evaluate_hdr, tolerance_db=1.0, recovered=6),
    ),
    "exp1-fmcdma": (
        partial(_hdr_config, mode=Mode.FM_CDMA, channels=1, f1=1024.0, noise_seed=2102),
        # The single-channel comparator loses the two dimmest patches at this noise floor.
        partial(_evaluate_hdr, tolerance_db=1.5, recovered=4),
    ),
    "exp2-dualband": (_dualband_config, _evaluate_dualband),
    "exp3-active": (_active_config, _evaluate_active),
}

PRESET_NAMES = tuple(PRESETS)


def preset_config(name: str, full_scale: bool = False, variant: str = "a") -> ExperimentConfig:
    """Parameter set for a named preset at desk or hardware scale."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    build, _ = PRESETS[name]
    return build(name, full_scale, variant)


# ---------------------------------------------------------------------------
# Running an experiment
# ---------------------------------------------------------------------------


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    plan: plan_mod.CodingPlan
    scene: Scene
    images: list
    summary_lines: list[str]
    ok: bool
    patch_report: metrics_mod.PatchReport | None = None

    def summary_text(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return "\n".join([f"preset {self.config.name}: {status}", *self.summary_lines]) + "\n"


def run_experiment(config: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Build plan and scene, capture, decode, evaluate and optionally write files."""
    if config.noise_seed < 0:
        raise ConfigError(f"noise_seed must be >= 0, got {config.noise_seed}")
    cplan = config.build_plan()
    scn = config.build_scene(cplan.grid)
    detectors = tuple(side.build() for side in config.sides())
    dtype = np.float32 if cplan.frame_samples > 2**24 else np.float64

    decoded = decode_mod.decode_capture(cplan, scn, detectors, config.noise_seed, dtype, out_dir)
    images = decode_mod.image_list(decoded)

    preset = PRESETS.get(config.name)
    if preset is None:
        lines, ok, patch_report = [f"no acceptance checks defined for {config.name}"], True, None
    else:
        _, evaluate = preset
        rows, patch_report = evaluate(config, cplan, scn, detectors, images)
        lines = [f"{'PASS' if good else 'FAIL'} {text}" for good, text in rows]
        ok = all(good for good, _ in rows)
    result = ExperimentResult(
        config=config,
        plan=cplan,
        scene=scn,
        images=images,
        summary_lines=lines,
        ok=ok,
        patch_report=patch_report,
    )
    if out_dir is not None:
        _write_outputs(out_dir, result)
    return result


def _write_outputs(out_dir, result: ExperimentResult):
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8") as fh:
        fh.write(result.config.to_json())
    plan_mod.save_plan(result.plan, os.path.join(out_dir, "plan.json"))
    decode_mod.write_decode_outputs(out_dir, result.images, result.plan)
    if result.patch_report is not None:
        with open(os.path.join(out_dir, "patch_report.txt"), "w", encoding="utf-8") as fh:
            fh.write(result.patch_report.to_text())
        with open(os.path.join(out_dir, "patch_report.csv"), "w", encoding="utf-8") as fh:
            fh.write(result.patch_report.to_csv())
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(result.summary_text())


# ---------------------------------------------------------------------------
# Noise calibration for the experiment-1 presets
# ---------------------------------------------------------------------------


def calibrate_hdr_sigma(target_snr: float = 3.0, iterations: int = 4) -> float:
    """Sweep the white-noise sigma of the single-channel comparator preset.

    Finds the sigma at which its weakest reliably-recovered patch (48 dB)
    decodes at the target SNR, then returns it for freezing into
    HDR_NOISE_SIGMA. SNR scales as 1 / sigma, so a proportional update
    converges in a few decodes. A target that is not finite and > 0 raises
    ConfigError before any decode.
    """
    if not (math.isfinite(target_snr) and target_snr > 0):
        raise ConfigError(f"target SNR must be finite and > 0, got {target_snr}")
    config = preset_config("exp1-fmcdma")
    sigma = 0.05
    for _ in range(iterations):
        config.detector.noise_sigma = sigma
        result = run_experiment(config)
        snr48 = result.patch_report.patches[3].snr
        if not math.isfinite(snr48) or snr48 <= 0:
            sigma *= 0.5
            continue
        sigma *= snr48 / target_snr
    return sigma
