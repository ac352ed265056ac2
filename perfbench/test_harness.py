"""Self-test of the benchmark harness on tiny desk-scale workloads.

    python3 -m pytest perfbench

Runs every workload at desk scale, untraced and traced, in fresh processes
(seconds, not minutes) and checks that every layer span, counter, output
check and metric still appears, so the harness cannot rot while the full
runs stay out of the test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Layers each workload must call; the rest of the layer table stays idle.
IDLE = {
    "exp1-fullscale": {"io.stream_write", "io.stream_read", "io.reports"},
    "noiseless-files": {"metrics.evaluate"},
    "video-largegrid": {"io.stream_write", "io.stream_read", "io.reports", "presets.glue"},
}
CHECKS = {
    "exp1-fullscale": {
        "exp1-hdr.rfft_reference", "exp1-hdr.preset_lines",
        "exp1-fmcdma.rfft_reference", "exp1-fmcdma.preset_lines",
    },
    "noiseless-files": {
        f"{name}.{kind}"
        for name in ("exp2-dualband", "exp3-active")
        for kind in ("rfft_reference", "preset_lines", "float32_error")
    } | {
        f"{name}-decode-files.{kind}"
        for name in ("exp2-dualband", "exp3-active")
        for kind in ("rfft_reference", "f32_roundtrip")
    },
    "video-largegrid": {
        f"frame-{i}.{kind}" for i in range(1, 5) for kind in ("rfft_reference", "wrong_key_rho", "truth_rho")
    } | {"frame-1.noiseless_float64"},
}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def desk_run(workload: str, trace: int):
    proc = run("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace),
               "--scale", "desk")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    stem = f"{workload}-desk-seed0-trace{trace}.json"
    result = json.loads((ROOT / ".perfbench" / "results" / stem).read_text())
    return line, result


def test_benchmark_json_matches_contract():
    assert set(WORKLOADS) == set(IDLE)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    line, result = desk_run(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert {c["name"] for c in result["checks"]} == CHECKS[workload]
    assert all(c["ok"] for c in result["checks"])
    manifest = result["manifest"]
    for key in ("seed", "nproc", "blas", "numpy", "python", "git_commit", "caossim_version", "sizes"):
        assert key in manifest
    assert manifest["sizes"]["frames"] and manifest["sizes"]["samples_per_pass"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_exercises_every_layer_span_and_counter(workload):
    line, result = desk_run(workload, 1)
    assert line["correct"]
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units
    for name, metric in line["metrics"].items():
        if metric["unit"] == "s":
            assert metric["value"] > 0, name
    layers = result["layers"]["run"]
    for layer, row in layers.items():
        busy = layer not in IDLE[workload]
        assert (row["calls"] > 0) == busy, layer
        if busy and layer.startswith(("sensor.", "io.stream", "decode.per_bit")):
            assert row["msamples"] > 0 and row["gb_moved_computed"] >= 0, layer
    for layer in ("sensor.synthesize", "decode.per_bit_spectra", "decode.correlate"):
        assert layers[layer]["gmacs"] > 0
    assert line["metrics"]["trace.self_coverage_pct"]["value"] >= 90.0
    spans = result["spans"]
    assert spans and all({"name", "start", "end", "parent", "frame"} <= set(sp) for sp in spans)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
