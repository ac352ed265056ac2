"""The benchmark's workloads: set-up, a fixed list of frames, and output checks.

Every input comes from the workload seed. Seed 0 reproduces the presets' own
key and noise seeds; any other seed derives fresh ones from (seed, preset
seed). Set-up builds the first plans, scenes and detector models; a frame is
one unit of timed work whose output the checks inspect afterwards. See
README.md for why each workload exists and what it should show.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from caossim import decode, metrics, plan, presets, scene, sensor

import reference

FLOAT32_ABOVE = 2**24  # presets switch to float32 streams above this many samples
REFERENCE_TOL = 1e-9  # timed decode vs rfft reference, share of the image peak
FLOAT32_TOL = 1e-6  # preset bound on float32-stream decodes
ROUNDTRIP_TOL = 1e-6  # .f32 file decode vs in-memory decode, share of the peak
NOISELESS_TOL = 1e-9  # float64 noiseless decode vs scene, relative per pixel
WRONG_KEY_MAX = 0.05
TRUTH_MIN = 0.99

#: PASS/FAIL sequence of each preset's summary lines at seed 0. The exp1 FAILs
#: are the honest failures the README documents (criterion 6 and the
#: comparator's seed-dependent 58 dB boundary); they vary with the noise seed,
#: so exp1 lines are compared at seed 0 only. exp2 and exp3 are noiseless and
#: must pass at every seed.
EXPECTED_STATUS = {
    ("full", "exp1-hdr"): "PPPPPFF",
    ("full", "exp1-fmcdma"): "PPPPFP",
    ("desk", "exp1-hdr"): "PPPPFFF",
    ("desk", "exp1-fmcdma"): "PPPPPP",
    ("full", "exp2-dualband"): "PPPP",
    ("desk", "exp2-dualband"): "PPPP",
    ("full", "exp3-active"): "PPP",
    ("desk", "exp3-active"): "PPP",
}
SEED_INDEPENDENT = ("exp2-dualband", "exp3-active")


def derive(seed: int, base: int) -> int:
    """Seed 0 keeps a preset's own seed; other seeds derive a new one."""
    if seed == 0:
        return base
    return int(np.random.SeedSequence([seed, base]).generate_state(1)[0])


@dataclass
class Context:
    seed: int
    scale: str  # "full" or "desk"
    tracer: object
    work_dir: str  # scratch space inside the checkout


@dataclass
class Frame:
    name: str
    run: Callable[[], dict]  # returns the frame's output: arrays, lines, scalars
    samples: int  # stream samples the frame captures or reads, both detector sides
    sizes: dict = field(default_factory=dict)


@dataclass
class Check:
    frame: int
    name: str
    ok: bool
    value: float | str
    limit: str


def _plan_sizes(cplan, streams: int) -> dict:
    return {
        "Q": cplan.grid.pixel_count,
        "P": cplan.channel_count,
        "W": cplan.code_length,
        "F": cplan.samples_per_bit,
        "samples_per_stream": cplan.frame_samples,
        "streams": streams,
        "dtype": np.dtype(_stream_dtype(cplan)).name,
    }


def _stream_dtype(cplan):
    return np.float32 if cplan.frame_samples > FLOAT32_ABOVE else np.float64


def _raws(images) -> list[np.ndarray]:
    if not isinstance(images, (list, tuple)):
        images = [images]
    return [img.raw for img in images]


# ---------------------------------------------------------------------------
# Presets run through run_experiment (exp1-fullscale, noiseless-files)
# ---------------------------------------------------------------------------


@dataclass
class PresetState:
    config: presets.ExperimentConfig
    plan: object
    scene: object
    detectors: tuple
    out_dir: str | None = None


def _preset_state(ctx: Context, name: str, out_dir: str | None = None) -> PresetState:
    config = presets.preset_config(name, full_scale=ctx.scale == "full")
    config.key_seed = derive(ctx.seed, config.key_seed)
    config.noise_seed = derive(ctx.seed, config.noise_seed)
    cplan = config.build_plan()
    scn = config.build_scene(cplan.grid)
    detectors = (config.detector.build(),)
    if config.dual:
        detectors += ((config.detector2 or config.detector).build(),)
    return PresetState(config, cplan, scn, detectors, out_dir)


def _experiment_frame(st: PresetState) -> Frame:
    def run():
        result = presets.run_experiment(st.config, out_dir=st.out_dir)
        return {"raw": _raws(result.images), "lines": result.summary_lines, "ok": result.ok}

    streams = len(st.detectors)
    return Frame(
        st.config.name,
        run,
        st.plan.frame_samples * streams,
        _plan_sizes(st.plan, streams),
    )


def _recapture(st: PresetState):
    """The stream(s) run_experiment captured, drawn again from the same seeds."""
    dtype = _stream_dtype(st.plan)
    if st.config.dual:
        dual = sensor.capture_dual(
            st.plan, st.scene, *st.detectors, seed=st.config.noise_seed, dtype=dtype
        )
        return [dual.pd1, dual.pd2]
    return [sensor.capture(st.plan, st.scene, st.detectors[0], seed=st.config.noise_seed, dtype=dtype)]


def _reference_images(streams, cplan) -> list[np.ndarray]:
    return [img for s in streams for img in reference.reference_decode(s, cplan)]


def _check_reference(i, label, got, want) -> list[Check]:
    err = reference.peak_error(got, want)
    return [Check(i, f"{label}.rfft_reference", err <= REFERENCE_TOL, err, f"<= {REFERENCE_TOL:g} of peak")]


def _check_lines(i, ctx, st, out) -> list[Check]:
    name = st.config.name
    if ctx.seed != 0 and name not in SEED_INDEPENDENT:
        return []
    status = "".join(line[0] for line in out["lines"])
    expected = EXPECTED_STATUS[(ctx.scale, name)]
    return [Check(i, f"{name}.preset_lines", status == expected, status, f"== {expected}")]


def _check_experiment(i, ctx, st, out) -> list[Check]:
    want = _reference_images(_recapture(st), st.plan)
    return _check_reference(i, st.config.name, out["raw"], want) + _check_lines(i, ctx, st, out)


def _float32_error(st: PresetState, raws) -> float:
    """Max relative error of noiseless decodes against the scene's truth maps."""
    if st.scene.per_source is not None:
        truths = list(st.scene.per_source)
    else:
        truths = [st.scene.effective_irradiance(d.responsivity) for d in st.detectors]
    return max(reference.relative_error(r, t) for r, t in zip(raws, truths) if t.max() > 0)


# exp1-fullscale -------------------------------------------------------------


def exp1_setup(ctx: Context) -> dict:
    return {"presets": [_preset_state(ctx, n) for n in ("exp1-hdr", "exp1-fmcdma")]}


def exp1_frames(state: dict, ctx: Context) -> list[Frame]:
    return [_experiment_frame(st) for st in state["presets"]]


def exp1_checks(state: dict, outputs: list, ctx: Context) -> list[Check]:
    checks = []
    for i, (st, out) in enumerate(zip(state["presets"], outputs)):
        if out is not None:
            checks += _check_experiment(i, ctx, st, out)
    return checks


# noiseless-files -------------------------------------------------------------


def files_setup(ctx: Context) -> dict:
    states = []
    for name in ("exp2-dualband", "exp3-active"):
        out_dir = os.path.join(ctx.work_dir, name)
        states.append(_preset_state(ctx, name, out_dir))
    return {"presets": states}


def _read_streams(st: PresetState) -> list:
    """The stream files run_experiment wrote, one per detector."""
    sides = ("stream_pd1", "stream_pd2")[: len(st.detectors)]
    return [sensor.read_stream(os.path.join(st.out_dir, side)) for side in sides]


def _file_decode_frame(st: PresetState) -> Frame:
    """The `caossim decode` path: load_plan + read_stream + decode_frame."""

    def run():
        cplan = plan.load_plan(os.path.join(st.out_dir, "plan.json"))
        streams = _read_streams(st)
        if len(streams) == 2:
            images = decode.decode_frame(sensor.DualStreams(*streams), cplan)
        else:
            images = decode.decode_frame(streams[0], cplan)
        return {"raw": _raws(images)}

    streams = len(st.detectors)
    return Frame(
        f"{st.config.name}-decode-files", run, st.plan.frame_samples * streams,
        _plan_sizes(st.plan, streams),
    )


def files_frames(state: dict, ctx: Context) -> list[Frame]:
    states = state["presets"]
    return [_experiment_frame(st) for st in states] + [_file_decode_frame(st) for st in states]


def files_checks(state: dict, outputs: list, ctx: Context) -> list[Check]:
    states = state["presets"]
    n = len(states)
    checks = []
    for i, st in enumerate(states):
        out = outputs[i]
        if out is not None:
            checks += _check_experiment(i, ctx, st, out)
            err = _float32_error(st, out["raw"])
            checks.append(Check(i, f"{st.config.name}.float32_error", err <= FLOAT32_TOL, err, f"<= {FLOAT32_TOL:g} relative"))

        j, file_out = n + i, outputs[n + i]
        if file_out is None:
            continue
        label = f"{st.config.name}-decode-files"
        want = _reference_images(_read_streams(st), st.plan)
        checks += _check_reference(j, label, file_out["raw"], want)
        if out is not None:
            err = reference.peak_error(file_out["raw"], out["raw"])
            checks.append(Check(j, f"{label}.f32_roundtrip", err <= ROUNDTRIP_TOL, err, f"<= {ROUNDTRIP_TOL:g} of peak"))
    return checks


# ---------------------------------------------------------------------------
# video-largegrid: per-frame reallocation on a large grid with short bits
# ---------------------------------------------------------------------------

VIDEO_FRAMES = 4
VIDEO_NOISE_SIGMA = 0.05
VIDEO_KEY_SEED = 404
VIDEO_WRONG_KEY_SEED = 405
VIDEO_NOISE_SEED = 4000


def video_setup(ctx: Context) -> dict:
    cols, rows = (128, 96) if ctx.scale == "full" else (16, 12)
    grid = plan.PixelGrid(cols, rows)
    key = derive(ctx.seed, VIDEO_KEY_SEED)
    wrong = derive(ctx.seed, VIDEO_WRONG_KEY_SEED)
    base = plan.build_plan(
        grid, channels=4, f1=2000.0, bit_rate=1000.0, sample_rate=128000.0,
        key_seed=key, hopping=True,
    )
    rng = np.random.default_rng(np.random.SeedSequence([ctx.seed, VIDEO_KEY_SEED]))
    images = [rng.uniform(0.05, 1.0, (rows, cols)) for _ in range(VIDEO_FRAMES)]
    with ctx.tracer.span("scene.build"):  # the first scene, as the presets build theirs
        first = scene.Scene(grid=grid, irradiance=images[0])
    return {
        "grid": grid,
        "base": base,
        "images": images,
        "first_scene": first,
        "detector": scene.DetectorModel(noise_sigma=VIDEO_NOISE_SIGMA),
        "noise_seeds": [derive(ctx.seed, VIDEO_NOISE_SEED + i) for i in range(VIDEO_FRAMES)],
        "wrong_key": wrong if wrong != key else wrong + 1,
    }


def video_frames(state: dict, ctx: Context) -> list[Frame]:
    tracer = ctx.tracer

    def frame(i):
        def run():
            cplan = plan.reallocate(state["base"], i + 1)
            with tracer.span("scene.build"):
                scn = scene.Scene(grid=state["grid"], irradiance=state["images"][i])
            stream = sensor.capture(cplan, scn, state["detector"], seed=state["noise_seeds"][i])
            image = decode.decode_frame(stream, cplan)
            rho = metrics.wrong_key_correlation(stream, cplan, state["wrong_key"])
            return {"raw": [image.raw], "wrong_key_rho": rho}

        return run

    base = state["base"]
    return [
        Frame(f"frame-{i + 1}", frame(i), base.frame_samples, _plan_sizes(base, 1))
        for i in range(VIDEO_FRAMES)
    ]


def video_checks(state: dict, outputs: list, ctx: Context) -> list[Check]:
    # A wrong-key decode is noise-like: |rho| is about 1 / sqrt(Q). The 0.05
    # bound holds on the full grid; the desk grid is too small for it.
    wrong_max = max(WRONG_KEY_MAX, 4.0 / np.sqrt(state["grid"].pixel_count))
    checks = []
    for i, out in enumerate(outputs):
        if out is None:
            continue
        cplan = plan.reallocate(state["base"], i + 1)
        truth = state["images"][i]
        scn = scene.Scene(grid=state["grid"], irradiance=truth)
        stream = sensor.capture(cplan, scn, state["detector"], seed=state["noise_seeds"][i])
        checks += _check_reference(i, f"frame-{i + 1}", out["raw"], reference.reference_decode(stream, cplan))
        rho = abs(out["wrong_key_rho"])
        checks.append(Check(i, f"frame-{i + 1}.wrong_key_rho", rho < wrong_max, rho, f"|rho| < {wrong_max:.3g}"))
        rho = reference.correlation(out["raw"][0], truth)
        checks.append(Check(i, f"frame-{i + 1}.truth_rho", rho > TRUTH_MIN, rho, f"> {TRUTH_MIN}"))
        if i == 0:
            # The paper's invariant on a noiseless float64 copy of the frame.
            clean = decode.decode_frame(sensor.synthesize(cplan, scn), cplan)
            err = reference.relative_error(clean.raw, truth)
            checks.append(Check(i, "frame-1.noiseless_float64", err < NOISELESS_TOL, err, f"< {NOISELESS_TOL:g} relative"))
    return checks


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable
    frames: Callable
    checks: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exp1-fullscale",
            "full-scale exp1-hdr and exp1-fmcdma in memory: 105 M noisy float32 samples, "
            "time and memory go to add_noise and whole-stream materialization",
            exp1_setup, exp1_frames, exp1_checks,
        ),
        Workload(
            "noiseless-files",
            "full-scale exp2-dualband and exp3-active written to files and decoded back: "
            "synthesize, per_bit_spectra and file I/O, no noise or ADC",
            files_setup, files_frames, files_checks,
        ),
        Workload(
            "video-largegrid",
            "128x96 hopping FDMA-CDMA video with a code reallocation and a wrong-key "
            "decode per frame: codebook, plan and correlation outweigh the sample path",
            video_setup, video_frames, video_checks,
        ),
    )
}


def same_output(a: dict | None, b: dict | None) -> bool:
    """Bitwise equality of two frame outputs."""
    if a is None or b is None or a.keys() != b.keys():
        return False
    for key in a:
        x, y = a[key], b[key]
        if key == "raw":
            if len(x) != len(y) or not all(np.array_equal(p, q) for p, q in zip(x, y)):
                return False
        elif x != y:
            return False
    return True

