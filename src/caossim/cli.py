"""Command-line front end.

Subcommands build and validate coding plans, synthesize captures, decode
streams back into images, run the bundled experiment presets end to end,
and re-run the noise calibration sweep. Every command is deterministic
given its config and seeds.

Exit codes: 0 success, 2 configuration problems, 3 plan or data validation
failures, 4 preset acceptance-check failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import decode as decode_mod
from . import plan as plan_mod
from . import presets as presets_mod
from . import scene as scene_mod
from . import sensor as sensor_mod
from .errors import CaosError, ConfigError
from .presets import ExperimentConfig
from .scene import DetectorModel

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VALIDATION = 3
EXIT_ACCEPTANCE = 4


def _experiment_config(args) -> ExperimentConfig:
    """The config of --preset or --config, with the --seed and --convention overrides."""
    if args.preset:
        config = presets_mod.preset_config(args.preset, args.full_scale, args.variant)
    elif args.config:
        with open(args.config, encoding="utf-8") as fh:
            config = ExperimentConfig.from_json(fh.read())
    else:
        raise ConfigError("plan needs --config or --preset")
    if args.seed is not None:
        config.key_seed = args.seed
    if args.convention is not None:
        config.convention = 10 if args.convention == "10log" else 20
    return config


def cmd_plan(args) -> int:
    cplan = _experiment_config(args).build_plan()
    report = plan_mod.validate_plan(cplan)
    os.makedirs(args.out, exist_ok=True)
    plan_mod.save_plan(cplan, os.path.join(args.out, "plan.json"))
    plan_mod.write_assignment_csv(cplan, os.path.join(args.out, "assignment.csv"))
    with open(os.path.join(args.out, "validation.txt"), "w", encoding="utf-8") as fh:
        fh.write(str(report) + "\n")
    print(str(report))
    if not report.passed:
        return EXIT_VALIDATION
    return EXIT_OK


def _load_detector(path) -> DetectorModel:
    if path is None:
        return DetectorModel()
    with open(path, encoding="utf-8") as fh:
        return presets_mod.DetectorConfig.from_dict(json.load(fh)).build()


def cmd_simulate(args) -> int:
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"noise seed must be >= 0, got {args.seed}")
    cplan = plan_mod.load_plan(args.plan)
    kind = "pgm" if args.scene.endswith(".pgm") else "csv"
    scn = presets_mod.build_scene(cplan.grid, {"preset": kind, "path": args.scene})
    detector = _load_detector(args.detector)
    os.makedirs(args.out, exist_ok=True)
    seed = 0 if args.seed is None else args.seed
    for det, side_seed, side in sensor_mod.capture_sides((detector,) * (1 + args.dual), seed):
        for block in sensor_mod.capture_blocks(cplan, scn, det, side_seed, side):
            paths = sensor_mod.write_stream(block, os.path.join(args.out, f"stream_{side}"))
        print(f"wrote {paths[0]} and {paths[1]}")
    return EXIT_OK


def cmd_decode(args) -> int:
    cplan = plan_mod.load_plan(args.plan)
    stream = sensor_mod.read_stream(args.stream)
    os.makedirs(args.out, exist_ok=True)
    if args.stream2:
        stream = sensor_mod.DualStreams(pd1=stream, pd2=sensor_mod.read_stream(args.stream2))
    images = decode_mod.image_list(decode_mod.decode_frame(stream, cplan))
    truth = scene_mod.read_image_csv(args.truth) if args.truth else None
    report = decode_mod.write_decode_outputs(args.out, images, cplan, truth=truth)
    if truth is not None:
        flags = [entry.get("truth_correlation_ok") for entry in report["images"]]
        rhos = [entry.get("truth_correlation") for entry in report["images"]]
        for i, (ok, rho) in enumerate(zip(flags, rhos)):
            status = "matches" if ok else "LOW CORRELATION, likely wrong key"
            print(f"image {i}: truth correlation {rho:.4f} ({status})")
    print(f"decoded {len(images)} image(s) into {args.out}")
    return EXIT_OK


def cmd_experiment(args) -> int:
    result = presets_mod.run_experiment(_experiment_config(args), out_dir=args.out)
    print(result.summary_text())
    return EXIT_OK if result.ok else EXIT_ACCEPTANCE


def cmd_calibrate(args) -> int:
    sigma = presets_mod.calibrate_hdr_sigma(target_snr=args.target_snr)
    print(f"calibrated noise sigma: {sigma:.6g}")
    print(f"frozen preset value:    {presets_mod.HDR_NOISE_SIGMA:.6g}")
    if args.out:
        plan_mod.write_json({"noise_sigma": sigma, "target_snr": args.target_snr}, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caossim",
        description="Simulator and codec for FDMA-CDMA coded-access camera signals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="build and validate a coding plan")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--preset", choices=presets_mod.PRESET_NAMES)
    p.add_argument("--variant", choices=("a", "b"), default="a")
    p.add_argument("--full-scale", action="store_true")
    p.add_argument("--seed", type=int, default=None, help="key seed override")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plan, convention=None)

    p = sub.add_parser("simulate", help="synthesize detector streams for a plan")
    p.add_argument("--plan", required=True)
    p.add_argument("--scene", required=True, help="scalar scene file (.pgm or .csv)")
    p.add_argument("--detector", help="detector config JSON")
    p.add_argument("--seed", type=int, default=None, help="noise seed")
    p.add_argument("--dual", action="store_true", help="capture both detector sides")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decode", help="decode stream files back to images")
    p.add_argument("--plan", required=True)
    p.add_argument("--stream", required=True, help="stream base path (without .f32)")
    p.add_argument("--stream2", help="second detector stream base path")
    p.add_argument("--truth", help="ground-truth scene CSV for a correlation check")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("experiment", help="run a bundled preset end to end")
    p.add_argument("--preset", required=True, choices=presets_mod.PRESET_NAMES)
    p.add_argument("--variant", choices=("a", "b"), default="a")
    p.add_argument("--full-scale", action="store_true")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--convention", choices=("20log", "10log"), default="20log")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment, config=None)

    p = sub.add_parser("calibrate", help="re-run the HDR preset noise calibration sweep")
    p.add_argument("--target-snr", type=float, default=3.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CaosError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
