import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caossim import cli, plan as planmod, presets, scene as sc, sensor
from caossim.errors import ConfigError
from caossim.plan import PixelGrid, build_plan
from test_sensor import whole_stream_capture


def run_cli(*argv):
    return cli.main(list(argv))


class TestPlanCommand:
    def test_preset_exp1_plan(self, tmp_path, capsys):
        out = tmp_path / "plan"
        assert run_cli("plan", "--preset", "exp1-hdr", "--out", str(out)) == 0
        loaded = planmod.load_plan(out / "plan.json")
        assert loaded.set_count == 319
        assert loaded.code_length == 320
        assert (out / "assignment.csv").exists()
        assert "speedup vs single-channel plan: 4" in (out / "validation.txt").read_text()

    def test_nyquist_violation_exits_nonzero(self, tmp_path):
        config = presets.preset_config("exp1-hdr")
        config.f1 = 65536.0  # top carrier lands beyond Nyquist
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(config.to_json())
        code = run_cli("plan", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert code == cli.EXIT_VALIDATION

    def test_unknown_config_field_exits_config_code(self, tmp_path):
        config = presets.preset_config("exp1-hdr")
        data = json.loads(config.to_json())
        data["mystery"] = True
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(data))
        code = run_cli("plan", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert code == cli.EXIT_CONFIG

    def test_plan_files_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("plan", "--preset", "exp3-active", "--out", str(out1)) == 0
        assert run_cli("plan", "--preset", "exp3-active", "--out", str(out2)) == 0
        assert (out1 / "plan.json").read_bytes() == (out2 / "plan.json").read_bytes()


class TestPipeline:
    def write_small_config(self, tmp_path):
        config = presets.ExperimentConfig(
            name="tiny",
            mode="passive-fdma-cdma",
            grid_columns=4,
            grid_rows=4,
            channels=2,
            f1=2.0,
            bit_rate=1.0,
            sample_rate=64.0,
            key_seed=7,
            scene={"preset": "uniform"},
        )
        path = tmp_path / "tiny.json"
        path.write_text(config.to_json())
        return path

    def test_simulate_then_decode_roundtrip(self, tmp_path):
        cfg = self.write_small_config(tmp_path)
        plan_dir = tmp_path / "plan"
        assert run_cli("plan", "--config", str(cfg), "--out", str(plan_dir)) == 0

        grid = PixelGrid(4, 4)
        rng = np.random.default_rng(3)
        scene_img = rng.uniform(0.2, 1.0, (4, 4))
        scene_path = tmp_path / "scene.csv"
        sc.write_image_csv(scene_img, scene_path)

        sim_dir = tmp_path / "sim"
        assert run_cli(
            "simulate",
            "--plan", str(plan_dir / "plan.json"),
            "--scene", str(scene_path),
            "--out", str(sim_dir),
        ) == 0

        dec_dir = tmp_path / "dec"
        assert run_cli(
            "decode",
            "--plan", str(plan_dir / "plan.json"),
            "--stream", str(sim_dir / "stream_pd1"),
            "--truth", str(scene_path),
            "--out", str(dec_dir),
        ) == 0
        decoded = sc.read_image_csv(dec_dir / "image_pd1.csv")
        assert np.allclose(decoded / decoded.max(), scene_img / scene_img.max(), atol=1e-5)
        report = json.loads((dec_dir / "decode_report.json").read_text())
        assert report["images"][0]["truth_correlation_ok"]

    def test_decode_with_tampered_plan_flags_low_correlation(self, tmp_path):
        cfg = self.write_small_config(tmp_path)
        plan_dir = tmp_path / "plan"
        run_cli("plan", "--config", str(cfg), "--out", str(plan_dir))

        rng = np.random.default_rng(5)
        scene_img = rng.uniform(0.0, 1.0, (4, 4))
        scene_path = tmp_path / "scene.csv"
        sc.write_image_csv(scene_img, scene_path)
        sim_dir = tmp_path / "sim"
        run_cli("simulate", "--plan", str(plan_dir / "plan.json"),
                "--scene", str(scene_path), "--out", str(sim_dir))

        # Tamper: same structure, different key seed.
        tampered = json.loads((plan_dir / "plan.json").read_text())
        tampered["key_seed"] = 987654321
        tampered_path = tmp_path / "tampered.json"
        tampered_path.write_text(json.dumps(tampered))

        dec_dir = tmp_path / "dec"
        code = run_cli(
            "decode",
            "--plan", str(tampered_path),
            "--stream", str(sim_dir / "stream_pd1"),
            "--truth", str(scene_path),
            "--out", str(dec_dir),
        )
        assert code == 0  # wrong key decodes without error, by design
        report = json.loads((dec_dir / "decode_report.json").read_text())
        assert not report["images"][0]["truth_correlation_ok"]


def _drop_mode(plan):
    del plan["mode"]


@pytest.mark.parametrize(
    "tamper",
    [
        _drop_mode,
        lambda plan: plan["grid"].update(columns="x"),
        lambda plan: plan.update(mode="zzz"),
        lambda plan: plan.update(frequencies=None),
    ],
    ids=["missing-mode", "text-columns", "unknown-mode", "null-frequencies"],
)
def test_decode_malformed_plan_exits_config_code(tmp_path, capsys, tamper):
    plan_dir = tmp_path / "plan"
    assert run_cli("plan", "--preset", "exp2-dualband", "--out", str(plan_dir)) == 0
    data = json.loads((plan_dir / "plan.json").read_text())
    tamper(data)
    bad_plan = tmp_path / "bad.json"
    bad_plan.write_text(json.dumps(data))
    code = run_cli(
        "decode",
        "--plan", str(bad_plan),
        "--stream", str(tmp_path / "none"),
        "--out", str(tmp_path / "d"),
    )
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


class TestExperimentCommand:
    def test_exp2_writes_two_band_images(self, tmp_path):
        out = tmp_path / "exp2"
        assert run_cli("experiment", "--preset", "exp2-dualband", "--out", str(out)) == 0
        pd1 = sc.read_image_csv(out / "image_pd1.csv")
        pd2 = sc.read_image_csv(out / "image_pd2.csv")
        assert pd1.max() > 0 and pd2.max() > 0
        summary = (out / "summary.txt").read_text()
        assert summary.startswith("preset exp2-dualband: PASS")

    def test_exp3_variant_b_pattern(self, tmp_path):
        out = tmp_path / "exp3"
        code = run_cli(
            "experiment", "--preset", "exp3-active", "--variant", "b", "--out", str(out)
        )
        assert code == 0
        img1 = sc.read_image_csv(out / "image_source1.csv")
        img2 = sc.read_image_csv(out / "image_source2.csv")
        img3 = sc.read_image_csv(out / "image_source3.csv")
        peak = max(img.max() for img in (img1, img2, img3))
        assert img1.max() > 1e-6 * peak  # green-filter hole under the green source
        assert img2.max() <= 1e-6 * peak  # nothing red-filtered on the target
        assert img3.max() > 1e-6 * peak  # blue-filter hole under the blue source

    def test_rerun_bit_identical_outputs(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("experiment", "--preset", "exp3-active", "--out", str(out1))
        run_cli("experiment", "--preset", "exp3-active", "--out", str(out2))
        for name in ("image_source1.pgm", "image_source2.pgm", "stream_pd1.f32"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_experiment_config_roundtrip():
    config = presets.preset_config("exp1-hdr")
    back = presets.ExperimentConfig.from_json(config.to_json())
    assert back.to_json() == config.to_json()


def test_experiment_config_rejects_unknown_detector_field():
    config = presets.preset_config("exp1-hdr")
    data = json.loads(config.to_json())
    data["detector"]["extra"] = 1
    with pytest.raises(ConfigError):
        presets.ExperimentConfig.from_json(json.dumps(data))


def test_experiment_config_rejects_an_unknown_convention():
    data = json.loads(presets.preset_config("exp1-hdr").to_json())
    data["convention"] = 15
    with mock.patch.object(sensor, "capture_blocks") as capture:
        with pytest.raises(ConfigError, match="field 'convention': expected 10 or 20, got 15"):
            presets.ExperimentConfig.from_json(json.dumps(data))
    capture.assert_not_called()


def test_experiment_config_rejects_non_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[]")
    assert run_cli("plan", "--config", str(path), "--out", str(tmp_path / "p")) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


_DROP = object()


def _config_edit(field, value):
    """Set one experiment-config field to value, or delete it for _DROP."""

    def edit(data):
        if value is _DROP:
            del data[field]
        else:
            data[field] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _config_edit("grid_columns", "x"),
        _config_edit("bit_rate", "fast"),
        _config_edit("hopping", 1),
        _config_edit("frequencies", 25000.0),
        _config_edit("frequencies", [25000.0, "x", 35000.0]),
        _config_edit("mode", "no-such-mode"),
        _config_edit("grid_rows", _DROP),
        _config_edit("scene", {"preset": "uniform", "valu": 3}),
        _config_edit("scene", {"preset": "no-such-scene"}),
        _config_edit("scene", [1]),
        _config_edit("convention", 15),
    ],
    ids=[
        "text-int", "text-real", "int-flag", "number-list", "text-in-list", "unknown-mode",
        "missing-required", "unknown-scene-key", "unknown-scene", "list-scene", "convention-15",
    ],
)
def test_plan_mistyped_experiment_config_exits_config_code(tmp_path, capsys, edit):
    data = json.loads(presets.preset_config("exp3-active").to_json())
    edit(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert run_cli("plan", "--config", str(path), "--out", str(tmp_path / "p")) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: experiment config field ")


def test_experiment_config_fills_defaults_and_accepts_ints_for_numbers():
    data = {
        "format": "caossim-experiment",
        "version": 1,
        "name": "tiny",
        "mode": "passive-fdma-cdma",
        "grid_columns": 4,
        "grid_rows": 4,
        "f1": 2,
        "scene": {"preset": "uniform"},
    }
    config = presets.ExperimentConfig.from_json(json.dumps(data))
    assert config == presets.ExperimentConfig(
        name="tiny", mode="passive-fdma-cdma", grid_columns=4, grid_rows=4, f1=2.0,
        scene={"preset": "uniform"},
    )
    assert isinstance(config.f1, float)


@pytest.mark.parametrize(
    "params, message",
    [
        ({"preset": "uniform", "valu": 3}, r"unknown uniform scene parameters: \['valu'\]"),
        ({"preset": "two-hole", "variant": "b", "levels_db": [0]}, r"\['levels_db'\]"),
        ({"preset": "csv"}, "needs a path"),
        ({}, "unknown scene preset None"),
        ({"preset": "hdr-patches", "layout": "x"}, "hdr-patches scene parameter 'layout'"),
        ({"preset": "hdr-patches", "levels_db": [0, "a"]}, "parameter 'levels_db'"),
        ({"preset": "fiber-spot", "center": [1, 2, 3]}, "parameter 'center': expected 2"),
        ({"preset": "uniform", "value": "abc"}, "uniform scene parameter 'value'"),
        ({"preset": "two-hole", "radius": "big"}, "parameter 'radius'"),
    ],
    ids=[
        "unknown-key", "other-preset-key", "missing-path", "no-preset", "text-layout",
        "text-in-levels", "long-center", "text-value", "text-radius",
    ],
)
def test_build_scene_rejects_unknown_or_mistyped_parameters(params, message):
    with pytest.raises(ConfigError, match=message):
        presets.build_scene(PixelGrid(4, 4), params)


def test_simulate_writes_each_side_block_by_block(tmp_path):
    plan_dir = tmp_path / "plan"
    assert run_cli("plan", "--preset", "exp1-hdr", "--out", str(plan_dir)) == 0
    cplan = planmod.load_plan(plan_dir / "plan.json")
    scene_path = tmp_path / "scene.csv"
    grid = cplan.grid
    sc.write_image_csv(np.random.default_rng(2).uniform(0.1, 1.0, (grid.rows, grid.columns)), scene_path)
    settings = {"noise_sigma": 0.05, "adc_bits": 12, "adc_fullscale": 400.0}
    det_path = tmp_path / "det.json"
    det_path.write_text(json.dumps(settings))
    with mock.patch.object(sensor, "BLOCK_SAMPLES", 100 * cplan.samples_per_bit):
        assert run_cli(
            "simulate", "--plan", str(plan_dir / "plan.json"), "--scene", str(scene_path),
            "--detector", str(det_path), "--dual", "--seed", "5", "--out", str(tmp_path / "sim"),
        ) == 0
    scn = presets.build_scene(grid, {"preset": "csv", "path": str(scene_path)})
    detector = presets.DetectorConfig.from_dict(settings).build()
    for det, seed, side in sensor.capture_sides((detector, detector), 5):
        want = whole_stream_capture(cplan, scn, det, seed, side)
        sensor.write_stream(want, tmp_path / "want")
        got = sensor.stream_paths(tmp_path / "sim" / f"stream_{side}")
        for got_path, want_path in zip(got, sensor.stream_paths(tmp_path / "want")):
            assert Path(got_path).read_bytes() == Path(want_path).read_bytes()


@pytest.mark.parametrize(
    "detector",
    [
        {"gain": "x"},
        {"shot_noise": True},
        {"adc_bits": 12.0},
        {"adc_bits": True},
        {"pink_noise": [0.1]},
        {"pink_noise": [0.1, "a"]},
        {"noise_sigma": None},
        {"responsivity": 1.0},
        {"adc_bits": 0},
        {"adc_bits": 2000},
        {"adc_bits": -3},
        {"noise_sigma": math.nan},
        {"noise_sigma": math.inf},
        {"gain": math.nan},
        {"gain": math.inf},
        {"adc_bits": 12, "adc_fullscale": math.nan},
        {"shot_noise": -1.0},
        {"shot_noise": math.inf},
        {"pink_noise": [math.nan, 1.0]},
    ],
    ids=["text-gain", "bool-shot-noise", "float-bits", "bool-bits", "short-pink", "text-pink",
         "null-sigma", "number-responsivity", "zero-bits", "2000-bits", "negative-bits",
         "nan-sigma", "inf-sigma", "nan-gain", "inf-gain", "nan-fullscale",
         "negative-shot-factor", "inf-shot-factor", "nan-pink-amplitude"],
)
def test_simulate_mistyped_detector_exits_config_code(tmp_path, capsys, detector):
    plan_dir = tmp_path / "plan"
    assert run_cli("plan", "--preset", "exp3-active", "--out", str(plan_dir)) == 0
    scene_path = tmp_path / "scene.csv"
    sc.write_image_csv(np.ones((15, 32)), scene_path)
    det_path = tmp_path / "det.json"
    det_path.write_text(json.dumps(detector))
    code = run_cli(
        "simulate",
        "--plan", str(plan_dir / "plan.json"),
        "--scene", str(scene_path),
        "--detector", str(det_path),
        "--out", str(tmp_path / "sim"),
    )
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


def test_detector_config_accepts_ints_for_numbers():
    config = presets.DetectorConfig.from_dict({"gain": 2, "adc_bits": 12, "pink_noise": [0.1, 1]})
    assert config == presets.DetectorConfig(gain=2.0, adc_bits=12, pink_noise=[0.1, 1.0])


def _drop_length(meta):
    del meta["length"]


def _nan_sample(out):
    raw = out / "stream_pd1.f32"
    samples = np.fromfile(raw, dtype="<f4")
    samples[7 * samples.size // 512] = np.nan  # bit 7 of the 512-bit exp3-active frame
    samples.tofile(raw)


def _tamper_sidecar(change):
    def tamper(out):
        meta_path = out / "stream_pd1.json"
        meta = json.loads(meta_path.read_text())
        change(meta)
        meta_path.write_text(json.dumps(meta))

    return tamper


@pytest.mark.parametrize(
    "tamper",
    [
        _tamper_sidecar(_drop_length),
        _tamper_sidecar(lambda meta: meta.update(bits="512")),
        _tamper_sidecar(lambda meta: meta.update(rate=None)),
        _tamper_sidecar(lambda meta: meta.update(pd_side="pd3")),
        _tamper_sidecar(lambda meta: meta.update(extra=1)),
        _nan_sample,
    ],
    ids=[
        "missing-length", "text-bits", "null-rate", "unknown-side", "unknown-field", "nan-sample"
    ],
)
def test_decode_malformed_stream_exits_config_code(tmp_path, capsys, tamper):
    out = tmp_path / "exp3"
    assert run_cli("experiment", "--preset", "exp3-active", "--out", str(out)) == 0
    tamper(out)
    capsys.readouterr()
    code = run_cli(
        "decode",
        "--plan", str(out / "plan.json"),
        "--stream", str(out / "stream_pd1"),
        "--out", str(tmp_path / "d"),
    )
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    if tamper is _nan_sample:
        assert "bit 7 " in err


def _decode_exp2_streams(tmp_path):
    """caossim decode --stream2 of desk exp2-dualband's two stream files in tmp_path/exp2."""
    out = tmp_path / "exp2"
    return run_cli(
        "decode",
        "--plan", str(out / "plan.json"),
        "--stream", str(out / "stream_pd1"),
        "--stream2", str(out / "stream_pd2"),
        "--out", str(tmp_path / "d"),
    )


@pytest.fixture
def exp2_streams(tmp_path):
    """Desk exp2-dualband's outputs, PD1 and PD2 stream files included, in tmp_path/exp2."""
    out = tmp_path / "exp2"
    assert run_cli("experiment", "--preset", "exp2-dualband", "--out", str(out)) == 0
    return out


def test_decode_stream_file_with_trailing_bytes_exits_validation_code(
    exp2_streams, tmp_path, capsys
):
    # A partial sample at the end of the file is refused, not trimmed off.
    raw = exp2_streams / "stream_pd1.f32"
    size = raw.stat().st_size
    with open(raw, "ab") as fh:
        fh.write(b"\0\0")
    capsys.readouterr()
    assert _decode_exp2_streams(tmp_path) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"validation error: raw file has {size + 2} bytes, sidecar declares {size // 4} samples\n"
    )
    assert not (tmp_path / "d").exists()


def test_decode_stream_file_cut_short_after_it_was_read_exits_validation_code(
    exp2_streams, tmp_path, capsys
):
    real_read_stream = sensor.read_stream

    def read_then_cut(base):
        stream = real_read_stream(base)
        os.truncate(stream.path, os.path.getsize(stream.path) // 2)
        return stream

    capsys.readouterr()
    with mock.patch.object(sensor, "read_stream", read_then_cut):
        assert _decode_exp2_streams(tmp_path) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and "stream_pd1.f32 ends inside bits 0.." in err


@pytest.mark.parametrize("sidecar", ["kept", "zero-bits"])
def test_decode_two_empty_stream_files_exits_validation_code(
    exp2_streams, tmp_path, capsys, sidecar
):
    for side in (sensor.PD1, sensor.PD2):
        (exp2_streams / f"stream_{side}.f32").write_bytes(b"")
        if sidecar == "zero-bits":
            meta_path = exp2_streams / f"stream_{side}.json"
            meta = json.loads(meta_path.read_text())
            meta.update(length=0, bits=0)
            meta_path.write_text(json.dumps(meta))
    capsys.readouterr()
    assert _decode_exp2_streams(tmp_path) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.startswith("validation error: ")


_PGM_HEADER = b"P5\n# scale 1.0\n21 21\n65535\n"

#: Scene files for a 21x21 plan that are not valid images.
_MALFORMED_SCENES = {
    "empty.pgm": b"",
    "header-cut.pgm": b"P5\n21 21\n",
    "no-newline.pgm": b"P5\n21 21\n65535",
    "text-size.pgm": b"P5\n21 x\n65535\n" + bytes(2 * 21 * 21),
    "negative-size.pgm": b"P5\n-21 21\n65535\n" + bytes(2 * 21 * 21),
    "text-scale.pgm": _PGM_HEADER.replace(b"1.0", b"big") + bytes(2 * 21 * 21),
    "short-pixels.pgm": _PGM_HEADER + bytes(2 * 21 * 21 - 1),
    "text-cell.csv": b"1,2\n3,x\n",
    "inf-cell.csv": b"1,2\n3,inf\n",
    "ragged.csv": b"1,2\n3\n",
    "empty.csv": b"",
}


@pytest.mark.parametrize("name", list(_MALFORMED_SCENES))
def test_simulate_malformed_scene_file_exits_config_code(tmp_path, name):
    # A subprocess under a timeout, so a parser that loops forever fails the test.
    plan_dir = tmp_path / "plan"
    assert run_cli("plan", "--preset", "exp2-dualband", "--out", str(plan_dir)) == 0
    scene_path = tmp_path / name
    scene_path.write_bytes(_MALFORMED_SCENES[name])
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "caossim.cli", "simulate", "--plan", str(plan_dir / "plan.json"),
         "--scene", str(scene_path), "--out", str(tmp_path / "sim")],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == cli.EXIT_CONFIG, proc.stderr
    assert proc.stderr.startswith("config error: ") and str(scene_path) in proc.stderr


def test_decode_wrong_shape_truth_exits_config_code(tmp_path, capsys):
    plan_dir = tmp_path / "plan"
    assert run_cli("plan", "--preset", "exp2-dualband", "--out", str(plan_dir)) == 0
    scene_path, truth_path = tmp_path / "scene.csv", tmp_path / "truth.csv"
    sc.write_image_csv(np.random.default_rng(1).uniform(0.1, 1.0, (21, 21)), scene_path)
    sc.write_image_csv(np.random.default_rng(2).uniform(0.1, 1.0, (3, 3)), truth_path)
    assert run_cli("simulate", "--plan", str(plan_dir / "plan.json"), "--scene", str(scene_path),
                   "--out", str(tmp_path / "sim")) == 0
    capsys.readouterr()
    code = run_cli(
        "decode",
        "--plan", str(plan_dir / "plan.json"),
        "--stream", str(tmp_path / "sim" / "stream_pd1"),
        "--truth", str(truth_path),
        "--out", str(tmp_path / "d"),
    )
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: cannot correlate a 21x21 image with a 3x3 one\n"
    assert not any((tmp_path / "d").iterdir())  # checked before any output is written


def test_decode_non_finite_truth_cell_exits_config_code(tmp_path, capsys):
    plan_dir = tmp_path / "plan"
    assert run_cli("plan", "--preset", "exp2-dualband", "--out", str(plan_dir)) == 0
    scene_path, truth_path = tmp_path / "scene.csv", tmp_path / "truth.csv"
    image = np.random.default_rng(1).uniform(0.1, 1.0, (21, 21))
    sc.write_image_csv(image, scene_path)
    image[4, 7] = np.nan
    sc.write_image_csv(image, truth_path)
    assert run_cli("simulate", "--plan", str(plan_dir / "plan.json"), "--scene", str(scene_path),
                   "--out", str(tmp_path / "sim")) == 0
    capsys.readouterr()
    code = run_cli(
        "decode",
        "--plan", str(plan_dir / "plan.json"),
        "--stream", str(tmp_path / "sim" / "stream_pd1"),
        "--truth", str(truth_path),
        "--out", str(tmp_path / "d"),
    )
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {truth_path}: non-finite value nan in row 5, column 8\n"


def _plan_file_case(field, value, in_grid=False, preset="exp1-hdr"):
    """argv of a decode whose desk preset plan file has field set to value."""

    def argv(tmp_path):
        assert run_cli("plan", "--preset", preset, "--out", str(tmp_path / "p")) == 0
        data = json.loads((tmp_path / "p" / "plan.json").read_text())
        (data["grid"] if in_grid else data)[field] = value
        path = tmp_path / "bad_plan.json"
        path.write_text(json.dumps(data))
        return ["decode", "--plan", str(path), "--stream", str(tmp_path / "none"),
                "--out", str(tmp_path / "d")]

    return argv


def _config_case(field, value, preset="exp1-hdr"):
    """argv of a plan built from the desk preset experiment config with field set to value."""

    def argv(tmp_path):
        data = json.loads(presets.preset_config(preset).to_json())
        data[field] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return ["plan", "--config", str(path), "--out", str(tmp_path / "p")]

    return argv


@pytest.mark.parametrize(
    "case, names",
    [
        (_plan_file_case("bit_rate", 0), "bit_rate"),
        (_plan_file_case("bit_rate", math.nan), "bit_rate"),
        (_config_case("bit_rate", math.inf), "bit_rate"),
        (_plan_file_case("sample_rate", 0), "sample_rate"),
        (_config_case("sample_rate", math.nan), "sample_rate"),
        (_plan_file_case("sample_rate", math.inf), "sample_rate"),
        (_plan_file_case("key_seed", -1), "key_seed"),
        (_config_case("key_seed", -1), "key_seed"),
        (lambda tmp: ["plan", "--preset", "exp1-hdr", "--seed", "-1", "--out", str(tmp / "p")],
         "key_seed"),
        (_plan_file_case("frame_index", -1), "frame_index"),
        (_plan_file_case("pixel_size", 0, in_grid=True), "pixel_size"),
        (_config_case("pixel_size", 0), "pixel_size"),
        (_plan_file_case("active_pixels", [], in_grid=True), "active pixel"),
        (_plan_file_case("active_pixels", [[1, 1], [1, 1]], in_grid=True), "unique"),
        (_plan_file_case("active_pixels", [[1, 1], [99, 1]], in_grid=True), "(99, 1) outside"),
        (_plan_file_case("code_length", 7), "declares code_length 7"),
        (_config_case("f1", math.nan), "carrier frequencies"),
        (_config_case("noise_seed", -1), "noise_seed"),
        (_plan_file_case("frequencies", [16384.0, 8192.0], preset="exp1-fmcdma"), "fm-cdma"),
        (_config_case("channels", 4, preset="exp1-fmcdma"), "fm-cdma"),
    ],
    ids=[
        "plan-zero-bit-rate", "plan-nan-bit-rate", "config-inf-bit-rate", "plan-zero-sample-rate",
        "config-nan-sample-rate", "plan-inf-sample-rate", "plan-negative-key-seed",
        "config-negative-key-seed", "preset-seed-minus-one", "plan-negative-frame-index",
        "plan-zero-pixel-size", "config-zero-pixel-size",
        "plan-no-active-pixels", "plan-repeated-active-pixel", "plan-active-pixel-off-grid",
        "plan-wrong-code-length", "config-nan-f1", "config-negative-noise-seed",
        "plan-fm-cdma-two-carriers", "config-fm-cdma-four-channels",
    ],
)
def test_out_of_range_plan_parameter_exits_config_code(tmp_path, capsys, case, names):
    argv = case(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and names in err, err


def _older_config(tmp_path):
    """argv of a plan from the desk exp1-hdr config, its detector as an older build wrote it."""
    data = json.loads(presets.preset_config("exp1-hdr").to_json())
    data["detector"].update(shot_noise=False, shot_factor=1.0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return ["plan", "--config", str(path), "--out", str(tmp_path / "p")]


def _older_detector(tmp_path):
    """argv of a simulate whose detector file an older build's DetectorConfig wrote."""
    assert run_cli("plan", "--preset", "exp3-active", "--out", str(tmp_path / "p")) == 0
    sc.write_image_csv(np.ones((15, 32)), tmp_path / "scene.csv")
    detector = {
        "gain": 1.0, "noise_sigma": 0.1, "shot_noise": True, "shot_factor": 0.5,
        "pink_noise": None, "adc_bits": None, "adc_fullscale": 1.0, "responsivity": "flat",
    }
    (tmp_path / "det.json").write_text(json.dumps(detector))
    return ["simulate", "--plan", str(tmp_path / "p" / "plan.json"), "--scene",
            str(tmp_path / "scene.csv"), "--detector", str(tmp_path / "det.json"),
            "--out", str(tmp_path / "s")]


@pytest.mark.parametrize(
    "case, message",
    [
        (_older_config, "unknown detector fields: ['shot_factor']"),
        (_older_detector, "unknown detector fields: ['shot_factor']"),
        (_plan_file_case("harmonics", 1), "unknown plan fields: ['harmonics']"),
    ],
    ids=["config", "detector", "plan"],
)
def test_file_with_a_boolean_shot_noise_or_a_harmonic_margin_exits_config_code(
    tmp_path, capsys, case, message
):
    # Files from before shot_noise became the shot factor and plans lost their
    # harmonic margin are refused, never read with a new meaning.
    argv = case(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("target", ["0", "inf", "-1", "nan"])
def test_calibrate_target_snr_not_finite_and_positive_exits_config_code(capsys, target):
    with mock.patch.object(presets, "run_experiment") as run:
        assert run_cli("calibrate", "--target-snr", target) == cli.EXIT_CONFIG
    run.assert_not_called()
    err = capsys.readouterr().err
    assert err == f"config error: target SNR must be finite and > 0, got {float(target)}\n"


def test_config_with_a_second_detector_but_not_dual_is_refused(tmp_path, capsys):
    # A detector2 without dual used to be dropped: one side decoded and PASS.
    data = json.loads(presets.preset_config("exp2-dualband").to_json())
    data["dual"] = False
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigError, match="detector2 is set but dual is false"):
        presets.ExperimentConfig.from_json(path.read_text())
    assert run_cli("plan", "--config", str(path), "--out", str(tmp_path / "p")) == cli.EXIT_CONFIG
    assert "detector2 is set but dual is false" in capsys.readouterr().err
    config = presets.preset_config("exp2-dualband")
    config.dual = False
    with mock.patch.object(sensor, "capture_blocks") as capture:
        with pytest.raises(ConfigError, match="detector2 is set but dual is false"):
            presets.run_experiment(config)
    capture.assert_not_called()


#: Plan-file edits after which a plan cannot decode exactly, with the exit
#: code and error text that refuse the file.
_UNDECODABLE_PLANS = {
    "static-waveform": (dict(waveform="none"), cli.EXIT_CONFIG, "must be 'square' or 'sine'"),
    "unknown-waveform": (dict(waveform="triangle"), cli.EXIT_CONFIG, "got 'triangle'"),
    "shared-bin": (
        dict(frequencies=[2.0, 2.0]), cli.EXIT_VALIDATION, "carriers share a bin: [2, 2]"
    ),
    "harmonic-on-a-carrier": (
        dict(frequencies=[1.0, 3.0]), cli.EXIT_VALIDATION,
        "square carrier at bin 1 puts 0.35 of its own-bin magnitude on carrier bin 3",
    ),
    # At F = 20 the 5th harmonic of bin 3 (bin 15) folds back onto bin 5.
    "folded-harmonic-on-a-carrier": (
        dict(frequencies=[3.0, 5.0], sample_rate=20.0), cli.EXIT_VALIDATION,
        "square carrier at bin 3 puts 0.22 of its own-bin magnitude on carrier bin 5",
    ),
}


@pytest.mark.parametrize("case", list(_UNDECODABLE_PLANS))
def test_plan_file_that_cannot_decode_exactly_is_refused(tmp_path, capsys, case):
    edit, code, message = _UNDECODABLE_PLANS[case]
    # A passive two-carrier plan on a 4x4 grid with F = 16, and a stream it wrote.
    plan = build_plan(PixelGrid(4, 4), channels=2, f1=1.0, bit_rate=1.0, sample_rate=16.0)
    data = planmod.plan_to_dict(plan)
    good, bad, scene = tmp_path / "good.json", tmp_path / "bad.json", tmp_path / "scene.csv"
    good.write_text(json.dumps(data))
    bad.write_text(json.dumps({**data, **edit}))
    sc.write_image_csv(np.random.default_rng(2).uniform(0.1, 1.0, (4, 4)), scene)
    simulate = ["simulate", "--scene", str(scene), "--out"]
    assert run_cli(*simulate, str(tmp_path), "--plan", str(good)) == 0
    for argv in (
        [*simulate, str(tmp_path / "s"), "--plan", str(bad)],
        ["decode", "--plan", str(bad), "--stream", str(tmp_path / "stream_pd1"),
         "--out", str(tmp_path / "d")],
    ):
        capsys.readouterr()
        assert run_cli(*argv) == code
        assert message in capsys.readouterr().err
    assert not (tmp_path / "s").exists() and not (tmp_path / "d").exists()


def test_simulate_negative_noise_seed_exits_config_code(tmp_path, capsys):
    assert run_cli("plan", "--preset", "exp3-active", "--out", str(tmp_path / "p")) == 0
    code = run_cli("simulate", "--plan", str(tmp_path / "p" / "plan.json"), "--scene",
                   str(tmp_path / "none.csv"), "--seed", "-1", "--out", str(tmp_path / "sim"))
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: noise seed must be >= 0, got -1\n"


def test_decode_two_active_streams_writes_each_side_per_source(tmp_path, capsys):
    assert run_cli("plan", "--preset", "exp3-active", "--out", str(tmp_path / "p")) == 0
    cplan = planmod.load_plan(tmp_path / "p" / "plan.json")
    scene = presets.preset_config("exp3-active").build_scene(cplan.grid)
    dual = sensor.capture_dual(cplan, scene)
    sensor.write_stream(dual.pd1, tmp_path / "s1")
    sensor.write_stream(dual.pd2, tmp_path / "s2")
    out = tmp_path / "d"
    assert run_cli("decode", "--plan", str(tmp_path / "p" / "plan.json"), "--stream",
                   str(tmp_path / "s1"), "--stream2", str(tmp_path / "s2"), "--out", str(out)) == 0
    sources = cplan.channel_count
    assert f"decoded {2 * sources} image(s)" in capsys.readouterr().out
    assert len(list(out.glob("image_*.csv"))) == 2 * sources
    peak = scene.per_source.max()
    for tag in ("source", "pd2_source"):
        for k in range(sources):
            image = sc.read_image_csv(out / f"image_{tag}{k + 1}.csv")
            # Stream files hold float32 samples.
            assert np.max(np.abs(image - scene.per_source[k])) <= 1e-6 * peak
    report = json.loads((out / "decode_report.json").read_text())
    sides = [(entry["pd_side"], entry["source_index"]) for entry in report["images"]]
    assert sides == [(side, k) for side in ("pd1", "pd2") for k in range(sources)]


@pytest.mark.parametrize("second", ["s1", "s1_copy"])
def test_decode_two_streams_of_one_side_exits_config_code(tmp_path, capsys, second):
    # One PD1 file twice, or two PD1 files, would decode both as PD1 and
    # write the second side's images over the first's.
    assert run_cli("plan", "--preset", "exp3-active", "--out", str(tmp_path / "p")) == 0
    cplan = planmod.load_plan(tmp_path / "p" / "plan.json")
    scene = presets.preset_config("exp3-active").build_scene(cplan.grid)
    stream = sensor.synthesize(cplan, scene)
    sensor.write_stream(stream, tmp_path / "s1")
    sensor.write_stream(stream, tmp_path / "s1_copy")
    out = tmp_path / "d"
    code = run_cli("decode", "--plan", str(tmp_path / "p" / "plan.json"), "--stream",
                   str(tmp_path / "s1"), "--stream2", str(tmp_path / second), "--out", str(out))
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: dual streams need a pd1 and a pd2 stream, got two pd1\n"
    )
    assert not list(out.glob("image_*"))


def _not_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"name": "caméra"}'.encode("latin-1"))
    return str(path)


#: argv of a command given a path the file system cannot read as asked, with
#: the valid_inputs directory root and an empty scratch directory tmp.
_FILE_SYSTEM_CASES = {
    "plan-is-a-directory": lambda root, tmp: [
        "decode", "--plan", str(tmp), "--stream", str(root / "stream_pd1"), "--out", str(tmp / "d")
    ],
    "plan-not-utf8": lambda root, tmp: [
        "decode", "--plan", _not_utf8(tmp), "--stream", str(root / "stream_pd1"),
        "--out", str(tmp / "d"),
    ],
    "config-not-utf8": lambda root, tmp: [
        "plan", "--config", _not_utf8(tmp), "--out", str(tmp / "p")
    ],
    "detector-is-a-directory": lambda root, tmp: [
        "simulate", "--plan", str(root / "plan.json"), "--scene", str(root / "scene.csv"),
        "--detector", str(tmp), "--out", str(tmp / "s"),
    ],
    "scene-is-a-directory": lambda root, tmp: [
        "simulate", "--plan", str(root / "plan.json"), "--scene", str(tmp), "--out", str(tmp / "s")
    ],
    "truth-is-a-directory": lambda root, tmp: [
        "decode", "--plan", str(root / "plan.json"), "--stream", str(root / "stream_pd1"),
        "--truth", str(tmp), "--out", str(tmp / "d"),
    ],
    "out-is-a-file": lambda root, tmp: [
        "plan", "--preset", "exp1-hdr", "--out", str(root / "plan.json")
    ],
}


@pytest.mark.parametrize("case", list(_FILE_SYSTEM_CASES))
def test_unreadable_path_exits_config_code(valid_inputs, tmp_path, capsys, case):
    argv = _FILE_SYSTEM_CASES[case](valid_inputs, tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")


#: Values put in place of one field of a valid input file. Huge magnitudes are
#: left out: a 10**6 x 10**6 grid is a memory problem, not a parse error.
_HOSTILE = (0, -1, 0.5, math.nan, math.inf, -math.inf, "x", None, [], {}, True)


#: The valid JSON input files the property edits, each under its name in valid_inputs.
_VALID_FILES = ("plan.json", "stream_pd1.json", "det.json", "config.json")


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A directory of valid inputs: a desk exp2-dualband plan, its PD1 stream, a
    scene and a detector config, and the desk exp1-hdr experiment config."""
    root = tmp_path_factory.mktemp("valid")
    assert run_cli("plan", "--preset", "exp2-dualband", "--out", str(root)) == 0
    sc.write_image_csv(np.random.default_rng(4).uniform(0.1, 1.0, (21, 21)), root / "scene.csv")
    detector = {
        "gain": 2.0, "noise_sigma": 0.01, "shot_noise": 0.0, "pink_noise": [0.01, 1.0],
        "adc_bits": 12, "adc_fullscale": 4.0, "responsivity": "flat",
    }
    (root / "det.json").write_text(json.dumps(detector))
    assert run_cli("simulate", "--plan", str(root / "plan.json"), "--scene", str(root / "scene.csv"),
                   "--detector", str(root / "det.json"), "--out", str(root)) == 0
    (root / "config.json").write_text(presets.preset_config("exp1-hdr").to_json())
    return root


def _field_paths(doc):
    """Every top-level field of a JSON object and every field of an object inside it."""
    paths = []
    for key, value in doc.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, inner) for inner in value)
    return paths


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_hostile_field_ends_in_an_exit_code_not_an_exception(valid_inputs, data):
    # A plan file or stream sidecar goes to decode, a detector config to
    # simulate, an experiment config to plan; all other inputs stay valid.
    root = valid_inputs
    name = data.draw(st.sampled_from(_VALID_FILES), label="file")
    doc = json.loads((root / name).read_text())
    *parents, key = data.draw(st.sampled_from(_field_paths(doc)), label="field")
    (doc[parents[0]] if parents else doc)[key] = data.draw(st.sampled_from(_HOSTILE), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, name), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        plan, stream = str(root / "plan.json"), str(root / "stream_pd1")
        argv = {
            "plan.json": ["decode", "--plan", path, "--stream", stream],
            "stream_pd1.json": ["decode", "--plan", plan, "--stream", os.path.join(tmp, "stream_pd1")],
            "det.json": ["simulate", "--plan", plan, "--scene", str(root / "scene.csv"),
                         "--detector", path],
            "config.json": ["plan", "--config", path],
        }[name]
        shutil.copy(root / "stream_pd1.f32", tmp)
        assert cli.main([*argv, "--out", out]) in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_VALIDATION)
