#!/usr/bin/env python3
"""caossim benchmark: one workload in one fresh process, one JSON result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exp1-fullscale --seed 0 --seconds 30 --trace 0

Workloads: exp1-fullscale, noiseless-files, video-largegrid (see README.md).
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the benchmark wraps caossim's layer functions and the last line
carries the per-layer metrics. Everything above that line is a readable
report; the full result (manifest, checks, layer table, spans) is written to
.perfbench/results/ in the checkout.

caossim is imported from src/ of the checkout this file sits in, never from
an installed copy; without src/ the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def limit_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        wanted = nproc
        if current.isdigit() and int(current) > 0:
            wanted = min(nproc, int(current))
        os.environ[var] = str(wanted)
    return nproc


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="0 keeps the presets' own seeds")
    parser.add_argument("--seconds", type=float, default=30.0, help="timed passes run this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "desk"), default="full",
                        help="desk: tiny variants for the harness self-test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "caossim" / "__init__.py").is_file():
        print(f"error: {src} holds no caossim sources; run from a repository checkout",
              file=sys.stderr)
        return 2
    nproc = limit_blas_threads()

    # numpy, caossim's one dependency, loads first and outside setup_s: its
    # cold import (OpenBLAS start-up included) is reported on its own.
    start = time.perf_counter()
    import numpy  # noqa: F401

    numpy_import_s = time.perf_counter() - start
    start = time.perf_counter()
    sys.path.insert(0, str(src))
    import caossim

    import_s = time.perf_counter() - start
    if Path(caossim.__file__).resolve().parent != (src / "caossim").resolve():
        print(f"error: imported caossim from {caossim.__file__}, not {src}", file=sys.stderr)
        return 2

    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from"
              f" {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    result = harness.run(args, str(ROOT), nproc, import_s, numpy_import_s)
    harness.print_report(result)

    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, default=float)
    print(f"result written to {results_dir / (stem + '.json')}")

    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    line = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
