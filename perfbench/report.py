#!/usr/bin/env python3
"""Run every workload untraced and traced, then print one summary.

    python3 perfbench/report.py [--seed 0] [--seconds 30] [--scale full]

Each run is a fresh `run.py` process, one at a time. The summary lists every
end-to-end metric with its unit, failed_frac, the tracing overhead (traced
run_s minus untraced run_s, from the two separate runs) and, per workload,
whether the traced layer times confirm the load the workload was built for.
Exits 1 if any run reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exp1-fullscale", "noiseless-files", "video-largegrid")
END_TO_END = ("setup_s", "run_s", "msamples_per_s", "peak_rss_mb")
SAMPLE_LAYERS = ("sensor.synthesize", "sensor.add_noise", "sensor.apply_adc", "decode.per_bit_spectra")
CONTROL_LAYERS = ("codes.codebook", "plan.build_plan", "decode.correlate", "metrics.evaluate")


def run_one(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--scale", scale]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    stem = f"{workload}-{scale}-seed{seed}-trace{trace}.json"
    with open(ROOT / ".perfbench" / "results" / stem, encoding="utf-8") as fh:
        return json.load(fh)


def load_verdicts(workload: str, traced: dict) -> list[str]:
    """The load each workload was built for, checked against its traced layers."""
    layers = traced["layers"]["run"]
    self_s = {name: row["self_s"] for name, row in layers.items()}
    run_s = traced["per_layer"]["trace.run_s"]["value"]
    lines = []
    if workload == "exp1-fullscale":
        top = max(self_s, key=self_s.get)
        lines.append(f"largest layer is {top} ({100 * self_s[top] / run_s:.1f} % of traced run_s);"
                     f" predicted sensor.add_noise: {'confirmed' if top == 'sensor.add_noise' else 'NOT confirmed'}")
    elif workload == "noiseless-files":
        share = (self_s["sensor.add_noise"] + self_s["sensor.apply_adc"]) / run_s
        lines.append(f"add_noise + apply_adc = {100 * share:.1f} % of traced run_s;"
                     f" predicted < 10 %: {'confirmed' if share < 0.10 else 'NOT confirmed'}")
        io = {n: layers[n]["calls"] for n in ("io.stream_write", "io.stream_read", "io.reports")}
        nonzero = all(v > 0 for v in io.values())
        lines.append(f"io layer calls {io}; predicted non-zero: {'confirmed' if nonzero else 'NOT confirmed'}")
    elif workload == "video-largegrid":
        control = sum(self_s[n] for n in CONTROL_LAYERS)
        sample = sum(self_s[n] for n in SAMPLE_LAYERS)
        lines.append(f"codebook + build_plan + correlate + metrics = {control:.3f} s,"
                     f" sample path = {sample:.3f} s; predicted control > sample:"
                     f" {'confirmed' if control > sample else 'NOT confirmed'}")
    coverage = traced["per_layer"]["trace.self_coverage_pct"]["value"]
    lines.append(f"layer self times cover {coverage:.2f} % of traced run_s (needed >= 90 %)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--scale", choices=("full", "desk"), default="full")
    args = parser.parse_args(argv)

    rows, notes, correct = [], [], True
    for workload in WORKLOADS:
        untraced = run_one(workload, args.seed, args.seconds, 0, args.scale)
        traced = run_one(workload, args.seed, args.seconds, 1, args.scale)
        correct &= untraced["correct"] and traced["correct"]
        rows.append((workload, untraced, traced))
        notes.append((workload, load_verdicts(workload, traced)))

    print(f"caossim benchmark, seed {args.seed}, {args.seconds:g} s per run, scale {args.scale}")
    for workload, untraced, traced in rows:
        print(f"\n{workload}")
        for name in END_TO_END:
            metric = untraced["end_to_end"][name]
            print(f"  {name:<16} {metric['value']:>14.6g} {metric['unit']}")
        print(f"  {'failed_frac':<16} {untraced['failed_frac']:>14.6g} ratio"
              f" ({untraced['failed']} of {untraced['attempted']} frames)")
        traced_run = traced["per_layer"]["trace.run_s"]["value"]
        overhead = traced_run - untraced["end_to_end"]["run_s"]["value"]
        estimate = traced["per_layer"]["trace.overhead_est_s"]["value"]
        print(f"  {'traced run_s':<16} {traced_run:>14.6g} s; tracing overhead {overhead:+.4f} s"
              f" between the two runs (includes run-to-run noise), {estimate * 1e3:.3f} ms"
              f" per pass estimated inside the traced run")
        failed_checks = [c["name"] for c in untraced["checks"] + traced["checks"] if not c["ok"]]
        print(f"  checks: {len(untraced['checks'])} per run, failed: {failed_checks or 'none'}")
    print()
    for workload, lines in notes:
        for line in lines:
            print(f"{workload}: {line}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
