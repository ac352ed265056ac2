"""Runs one workload: repeated set-up, timed passes over its frames, checks, metrics.

Imported by run.py only after caossim has been imported under the set-up
clock.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import caossim
import layers
import workloads
from tracer import NullTracer, Tracer, maxrss_mb, self_times

SETUP_REPEATS = 5
PAGE_CACHE_NOTE = (
    "warm: stream files are written and read back through the OS page cache,"
    " which the benchmark cannot drop, so file I/O times are warm-cache times"
)


# ---------------------------------------------------------------------------
# Run manifest
# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def git_commit(root: str) -> str:
    """HEAD commit read from .git, or 'unknown' outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(args, root: str, nproc: int, frames, bytes_written: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "processes": 1,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": blas_threads(),
            "threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
        "caossim_version": caossim.__version__,
        "setup_repeats": SETUP_REPEATS,
        "sizes": {
            "frames": [{"name": f.name, **f.sizes} for f in frames],
            "samples_per_pass": sum(f.samples for f in frames),
            "bytes_written_per_pass": bytes_written,
        },
        "page_cache": PAGE_CACHE_NOTE,
    }


def _dir_bytes(path: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


# ---------------------------------------------------------------------------
# Per-layer numbers from the spans of a traced run
# ---------------------------------------------------------------------------


def _outermost(spans) -> set[int]:
    """Spans with no enclosing span of the same name (recursion counts once)."""
    by_id = {sp.sid: sp for sp in spans}
    keep = set()
    for sp in spans:
        parent = sp.parent
        while parent is not None and by_id[parent].name != sp.name:
            parent = by_id[parent].parent
        if parent is None:
            keep.add(sp.sid)
    return keep


def layer_groups(spans, phase: str, group_of) -> dict:
    """Per layer, per group (pass or set-up repeat): calls, times, counts, rss rise."""
    spans = [sp for sp in spans if sp.phase == phase]
    selfs = self_times(spans)
    outer = _outermost(spans)
    groups = sorted({group_of(sp) for sp in spans})
    table = {
        layer: {g: {"calls": 0, "s": 0.0, "self_s": 0.0, "rss": 0.0, "samples": 0, "bytes": 0, "macs": 0}
                for g in groups}
        for layer in layers.LAYERS
    }
    for sp in spans:
        if sp.name not in table:
            continue
        row = table[sp.name][group_of(sp)]
        row["self_s"] += selfs[sp.sid]
        for key in ("samples", "bytes", "macs"):
            row[key] += sp.counts.get(key, 0)
        if sp.sid in outer:
            row["calls"] += 1
            row["s"] += sp.duration
            row["rss"] += sp.rss_after_mb - sp.rss_before_mb
    return table


def layer_summary(table: dict) -> dict:
    """Median times over groups; counts and the rss rise from the first group."""
    out = {}
    for layer, by_group in table.items():
        rows = list(by_group.values())
        if not rows:
            continue
        first = rows[0]
        out[layer] = {
            "calls": first["calls"],
            "s": statistics.median(r["s"] for r in rows),
            "self_s": statistics.median(r["self_s"] for r in rows),
            "msamples": first["samples"] / 1e6,
            "gb_moved_computed": first["bytes"] / 1e9,
            "gmacs": first["macs"] / 1e9,
            "rss_hwm_delta_mb": first["rss"],
        }
    return out


def per_layer_metrics(tracer: Tracer, frames_per_pass: int, pass_times: list) -> tuple[dict, dict, dict]:
    run = layer_summary(layer_groups(tracer.spans, "run", lambda sp: sp.frame // frames_per_pass))
    setup = layer_summary(layer_groups(tracer.spans, "setup", lambda sp: sp.frame))
    run_spans = [sp for sp in tracer.spans if sp.phase == "run"]
    selfs = self_times(run_spans)
    layer_self = sum(selfs[sp.sid] for sp in run_spans if sp.name in layers.LAYERS)
    spans_per_pass = sum(1 for sp in run_spans if sp.frame < frames_per_pass)
    values = {
        "trace.run_s": statistics.median(pass_times),
        "trace.self_coverage_pct": 100.0 * layer_self / sum(pass_times),
        "trace.spans": spans_per_pass,
        "trace.overhead_est_s": spans_per_pass * tracer.span_cost(),
    }
    for name in layers.per_layer_units():
        if name in values:
            continue
        if name.startswith("setup."):
            layer, key = name[len("setup."):].rsplit(".", 1)
            values[name] = setup[layer][key]
        else:
            layer, key = name.rsplit(".", 1)
            values[name] = run[layer][key]
    return values, run, setup


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def timed_passes(frames, tracer, seconds: float) -> tuple[list[float], list[list]]:
    """Repeat the frame list; a frame that raises yields None and the run goes on."""
    tracer.phase = "run"
    pass_times, outputs = [], []
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        outs = []
        for i, frame in enumerate(frames):
            tracer.frame = len(pass_times) * len(frames) + i
            with tracer.span("frame"):
                try:
                    outs.append(frame.run())
                except Exception:  # counted in failed_frac; the traceback goes to stderr
                    traceback.print_exc()
                    outs.append(None)
        pass_times.append(time.perf_counter() - start)
        outputs.append(outs)
        # Start another pass only if one more like the last fits the budget.
        if time.perf_counter() + pass_times[-1] > deadline:
            return pass_times, outputs


def run(args, root: str, nproc: int, import_s: float, numpy_import_s: float) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NullTracer()
    work_dir = os.path.join(root, ".perfbench", f"work-{os.getpid()}")
    ctx = workloads.Context(args.seed, args.scale, tracer, work_dir)
    if args.trace:
        layers.install(tracer)
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            tracer.frame = k
            start = time.perf_counter()
            state = wl.setup(ctx)
            setup_times.append(time.perf_counter() - start)
        frames = wl.frames(state, ctx)
        pass_times, outputs = timed_passes(frames, tracer, args.seconds)
        peak_rss = maxrss_mb()
        tracer.unwrap_all()  # checks run untraced
        last = outputs[-1]
        checks = wl.checks(state, last, ctx)
        bytes_written = _dir_bytes(work_dir)
    finally:
        tracer.unwrap_all()
        shutil.rmtree(work_dir, ignore_errors=True)

    failed_frames = {c.frame for c in checks if not c.ok}
    failed = sum(
        1
        for outs in outputs
        for i, out in enumerate(outs)
        if out is None or i in failed_frames or not workloads.same_output(out, last[i])
    )
    attempted = len(frames) * len(outputs)
    samples = sum(f.samples for f in frames)
    run_s = statistics.median(pass_times)
    setup_s = import_s + statistics.median(setup_times)
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "msamples_per_s": (samples / run_s / 1e6, "Msample/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    result = {
        "manifest": manifest(args, root, nproc, frames, bytes_written),
        "why": wl.why,
        "numpy_import_s": numpy_import_s,
        "import_s": import_s,
        "setup_times": setup_times,
        "pass_times": pass_times,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "failed_frac": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "checks": [vars(c) for c in checks],
        "correct": failed == 0 and all(c.ok for c in checks),
    }
    if args.trace:
        values, run_layers, setup_layers = per_layer_metrics(tracer, len(frames), pass_times)
        units = layers.per_layer_units()
        result["per_layer"] = {k: {"value": values[k], "unit": units[k]} for k in units}
        result["layers"] = {"run": run_layers, "setup": setup_layers}
        result["spans"] = [vars(sp) for sp in tracer.spans]
    return result


# ---------------------------------------------------------------------------
# Human-readable report
# ---------------------------------------------------------------------------


def print_report(result: dict, out=sys.stdout) -> None:
    m = result["manifest"]
    p = lambda *a: print(*a, file=out)  # noqa: E731
    p(f"workload {m['workload']}  seed {m['seed']}  scale {m['scale']}  trace {m['trace']}")
    p(f"  why: {result['why']}")
    p("manifest " + json.dumps({k: v for k, v in m.items() if k != "sizes"}, sort_keys=True))
    sizes = m["sizes"]
    p(f"input: {len(sizes['frames'])} frames per pass, {sizes['samples_per_pass'] / 1e6:.3f} Msample"
      f" per pass (both detector sides), {sizes['bytes_written_per_pass']} bytes written per pass")
    for f in sizes["frames"]:
        p(f"  frame {f['name']}: Q={f['Q']} P={f['P']} W={f['W']} F={f['F']}"
          f" {f['streams']}x{f['samples_per_stream']} {f['dtype']} samples")
    passes = ", ".join(f"{t:.4f}" for t in result["pass_times"])
    p(f"passes: {len(result['pass_times'])} ({passes} s)")
    setups = ", ".join(f"{t:.4f}" for t in result["setup_times"])
    p(f"setup: import caossim {result['import_s']:.4f} s + median of builds ({setups} s);"
      f" numpy import before it {result['numpy_import_s']:.4f} s, not in setup_s")
    for name, metric in result["end_to_end"].items():
        p(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    p(f"metric failed_frac = {result['failed_frac']:.6g} ratio"
      f" ({result['failed']} of {result['attempted']} frames failed)")
    for c in result["checks"]:
        value = c["value"] if isinstance(c["value"], str) else f"{c['value']:.3e}"
        p(f"check {'PASS' if c['ok'] else 'FAIL'} {c['name']} = {value} ({c['limit']})")
    if "layers" not in result:
        return
    run_s = result["per_layer"]["trace.run_s"]["value"]
    per_layer = result["per_layer"]
    p(f"traced run_s {run_s:.4f} s; layer self time covers"
      f" {per_layer['trace.self_coverage_pct']['value']:.2f} % of it; tracing overhead"
      f" about {per_layer['trace.overhead_est_s']['value'] * 1e3:.3f} ms per pass"
      f" ({per_layer['trace.spans']['value']} spans times the cost of a traced no-op call)")
    p(f"{'layer':<24}{'calls':>7}{'s':>10}{'self_s':>10}{'self%':>8}{'Msample':>10}"
      f"{'GB':>9}{'GMAC':>9}{'rss+MB':>9}   setup self_s")
    for layer in layers.LAYERS:
        r = result["layers"]["run"].get(layer)
        s = result["layers"]["setup"].get(layer)
        if r is None:
            continue
        p(f"{layer:<24}{r['calls']:>7}{r['s']:>10.4f}{r['self_s']:>10.4f}"
          f"{100 * r['self_s'] / run_s:>8.2f}{r['msamples']:>10.3f}{r['gb_moved_computed']:>9.4f}"
          f"{r['gmacs']:>9.4f}{r['rss_hwm_delta_mb']:>9.1f}   {s['self_s'] if s else 0.0:.4f}")
