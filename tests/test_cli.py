import inspect
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
from caossim.errors import CaosError, ConfigError
from caossim.plan import Mode, PixelGrid, build_plan
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
        config.plan["f1"] = 65536.0  # top carrier lands beyond Nyquist
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
            plan=dict(
                grid=PixelGrid(4, 4),
                mode="passive-fdma-cdma",
                channels=2,
                f1=2.0,
                bit_rate=1.0,
                sample_rate=64.0,
            ),
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
    """Set one experiment-config field, a dotted path into its objects, to value; _DROP deletes it."""
    *parents, key = field.split(".")

    def edit(data):
        for name in parents:
            data = data[name]
        if value is _DROP:
            del data[key]
        else:
            data[key] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _config_edit("plan.grid.columns", "x"),
        _config_edit("plan.bit_rate", "fast"),
        _config_edit("plan.hopping", 1),
        _config_edit("plan.frequencies", 25000.0),
        _config_edit("plan.frequencies", [25000.0, "x", 35000.0]),
        _config_edit("plan.mode", "no-such-mode"),
        _config_edit("plan.grid.rows", _DROP),
        _config_edit("plan.sample_rate", _DROP),
        _config_edit("plan", _DROP),
        _config_edit("plan", [1]),
        _config_edit("plan.key_seed", 5),
        _config_edit("plan.shuffle_codes", None),
        _config_edit("scene", {"preset": "uniform", "valu": 3}),
        _config_edit("scene", {"preset": "no-such-scene"}),
        _config_edit("scene", [1]),
        _config_edit("convention", 15),
    ],
    ids=[
        "text-int", "text-real", "int-flag", "number-list", "text-in-list", "unknown-mode",
        "missing-required", "missing-sample-rate", "missing-plan", "list-plan", "plan-key-seed",
        "null-flag", "unknown-scene-key", "unknown-scene", "list-scene", "convention-15",
    ],
)
def test_plan_mistyped_experiment_config_exits_config_code(tmp_path, capsys, edit):
    data = json.loads(presets.preset_config("exp3-active").to_json())
    edit(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert run_cli("plan", "--config", str(path), "--out", str(tmp_path / "p")) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: experiment config field ")


def _detector_edit(**fields):
    """Set the fields of an experiment config's first detector."""
    return lambda data: data["detector"].update(fields)


def _scene_edit(scene, name="exp2-dualband"):
    """Give an experiment config this scene and name."""
    return lambda data: data.update(scene=scene, name=name)


#: Edits of the desk exp2-dualband config that leave its plan buildable but
#: the experiment unrunnable. A scene file path is read from the working
#: directory.
_UNRUNNABLE_CONFIGS = {
    "no-scene": _config_edit("scene", _DROP),
    "negative-gain": _detector_edit(gain=-1),
    "unknown-responsivity": _detector_edit(responsivity="bogus"),
    "adc-bits-99": _detector_edit(adc_bits=99),
    "pink-alpha-5": _detector_edit(pink_noise=[0.1, 5]),
    "spot-off-grid": _scene_edit({"preset": "fiber-spot", "center": [99, 1]}),
    "preset-name-uniform-scene": _scene_edit({"preset": "uniform"}),
    "missing-csv-file": _scene_edit({"preset": "csv", "path": "missing.csv"}, name="my-scene"),
    "two-hole-variant-c": _scene_edit({"preset": "two-hole", "variant": "c"}, name="my-holes"),
    "hdr-layout-no-rows": _scene_edit({"preset": "hdr-patches", "layout": [0, 3]}, name="my-hdr"),
}


@pytest.mark.parametrize("case", list(_UNRUNNABLE_CONFIGS))
def test_plan_refuses_a_config_as_run_experiment_does(tmp_path, capsys, monkeypatch, case):
    data = json.loads(presets.preset_config("exp2-dualband").to_json())
    _UNRUNNABLE_CONFIGS[case](data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sensor, "capture_blocks", None)  # a capture would raise TypeError
    with pytest.raises((CaosError, OSError)) as refused:
        presets.run_experiment(presets.ExperimentConfig.from_json(path.read_text()))
    if isinstance(refused.value, (ConfigError, OSError)):
        code, kind = cli.EXIT_CONFIG, "config"
    else:
        code, kind = cli.EXIT_VALIDATION, "validation"
    capsys.readouterr()
    assert run_cli("plan", "--config", str(path), "--out", str(tmp_path / "p")) == code
    assert capsys.readouterr().err == f"{kind} error: {refused.value}\n"
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "one of the arguments --config --preset is required"),
        (["--preset", "exp1-hdr", "--config", "no-such-config.json"],
         "argument --config: not allowed with argument --preset"),
    ],
    ids=["neither", "both"],
)
def test_plan_takes_exactly_one_of_preset_and_config(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exited:
        run_cli("plan", *argv, "--out", "p")
    assert exited.value.code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("flags", [["--full-scale"], ["--variant", "a"]], ids=["full-scale", "variant"])
def test_plan_refuses_a_preset_flag_next_to_config(tmp_path, capsys, flags):
    path = _config_file(tmp_path, "exp3-active", {})
    capsys.readouterr()
    argv = ["plan", "--config", str(path), *flags, "--out", str(tmp_path / "p")]
    assert run_cli(*argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: {flags[0]} applies to --preset only, not to --config\n"
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("command", ["plan", "experiment"])
@pytest.mark.parametrize("preset", ["exp1-hdr", "exp1-fmcdma", "exp2-dualband"])
def test_variant_is_refused_for_a_preset_without_variants(
    tmp_path, capsys, monkeypatch, command, preset
):
    # Only the two-hole preset has variants; elsewhere --variant was dropped silently.
    monkeypatch.setattr(sensor, "capture_blocks", None)  # a capture would raise TypeError
    argv = [command, "--preset", preset, "--variant", "b", "--out", str(tmp_path / "p")]
    assert run_cli(*argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: --variant applies to a two-hole preset only, not to {preset}\n"
    assert not (tmp_path / "p").exists()


def test_experiment_config_fills_defaults_and_accepts_ints_for_numbers():
    data = {
        "format": "caossim-experiment",
        "version": 2,
        "name": "tiny",
        "plan": {"grid": {"columns": 4, "rows": 4}, "f1": 2, "bit_rate": 1, "sample_rate": 8},
        "scene": {"preset": "uniform"},
    }
    config = presets.ExperimentConfig.from_json(json.dumps(data))
    assert config == presets.ExperimentConfig(
        name="tiny", plan=dict(grid=PixelGrid(4, 4), f1=2.0, bit_rate=1.0, sample_rate=8.0),
        scene={"preset": "uniform"},
    )
    assert all(isinstance(config.plan[name], float) for name in ("f1", "bit_rate", "sample_rate"))
    # The keywords left out take build_plan's defaults.
    assert config.build_plan().mode is Mode.PASSIVE_FDMA_CDMA


#: The desk exp1-hdr experiment config as format version 1 wrote it, its plan
#: settings spelled as fields of their own.
_VERSION_1_CONFIG = """{
  "bit_rate": 16.0,
  "channels": 4,
  "code_length": null,
  "convention": 20,
  "detector": {
    "adc_bits": 16,
    "adc_fullscale": 10.0,
    "gain": 0.1,
    "noise_sigma": 0.091876,
    "pink_noise": [
      0.0,
      1.0
    ],
    "responsivity": "flat",
    "shot_noise": 0.0
  },
  "detector2": null,
  "f1": 2048.0,
  "format": "caossim-experiment",
  "frequencies": null,
  "grid_columns": 44,
  "grid_rows": 29,
  "hopping": false,
  "key_seed": 101,
  "mode": "passive-fdma-cdma",
  "name": "exp1-hdr",
  "noise_seed": 2101,
  "sample_rate": 65536.0,
  "scene": {
    "layout": [
      2,
      3
    ],
    "levels_db": [
      0.0,
      20.0,
      30.0,
      48.0,
      58.0,
      64.0
    ],
    "preset": "hdr-patches"
  },
  "version": 1
}
"""


def test_version_1_experiment_config_is_refused_naming_the_plan_object(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(_VERSION_1_CONFIG)
    assert run_cli("plan", "--config", str(path), "--out", str(tmp_path / "p")) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: caossim-experiment version 1 is no longer read: version 2 holds"
        " the plan settings in one \"plan\" object of build_plan's arguments\n"
    )
    assert not (tmp_path / "p").exists()
    # Version 2 holds the settings it gave in its plan object, under build_plan's names.
    old = json.loads(_VERSION_1_CONFIG)
    assert json.loads(presets.preset_config("exp1-hdr").to_json())["plan"] == {
        "grid": {"columns": old["grid_columns"], "rows": old["grid_rows"]},
        **{name: old[name] for name in ("mode", "channels", "f1", "bit_rate", "sample_rate")},
    }


@pytest.mark.parametrize(
    "params, message",
    [
        ({"preset": "uniform", "valu": 3}, r"unknown uniform scene fields: \['valu'\]"),
        ({"preset": "two-hole", "variant": "b", "levels_db": [0]}, r"\['levels_db'\]"),
        ({"preset": "csv"}, "csv scene field 'path' is missing"),
        ({}, "unknown scene preset None"),
        ({"preset": ["uniform"]}, r"unknown scene preset \['uniform'\]"),
        ([1], "scene must be a JSON object"),
        ({"preset": "hdr-patches", "layout": "x"}, "hdr-patches scene field 'layout'"),
        ({"preset": "hdr-patches", "levels_db": [0, "a"]}, "field 'levels_db'"),
        ({"preset": "fiber-spot", "center": [1, 2, 3]}, "field 'center': expected 2"),
        ({"preset": "uniform", "value": "abc"}, "uniform scene field 'value'"),
        ({"preset": "two-hole", "radius": "big"}, "field 'radius'"),
    ],
    ids=[
        "unknown-key", "other-preset-key", "missing-path", "no-preset", "list-preset",
        "list-scene", "text-layout", "text-in-levels", "long-center", "text-value", "text-radius",
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


@pytest.mark.parametrize("name", list(_MALFORMED_SCENES))
def test_plan_config_with_malformed_scene_file_exits_config_code(
    tmp_path, capsys, monkeypatch, name
):
    # plan --config reads a config's scene file, relative to the working directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(_MALFORMED_SCENES[name])
    scene = {"preset": name.rsplit(".", 1)[1], "path": name}
    path = _config_file(tmp_path, "exp2-dualband", {"name": "my-scene", "scene": scene})
    capsys.readouterr()
    assert run_cli("plan", "--config", str(path), "--out", "p") == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and name in err, err
    assert not (tmp_path / "p").exists()


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


#: The build_plan arguments an experiment config sets inside its plan object:
#: all but key_seed, one of the run's two seeds.
_PLAN_SETTINGS = set(inspect.signature(build_plan).parameters) - {"key_seed"}


def _config_file(tmp_path, preset, fields):
    """Path of the desk preset's experiment config with fields set.

    A build_plan argument other than key_seed is set inside the config's plan
    object, and a None one deleted there, so that it takes build_plan's default.
    """
    data = json.loads(presets.preset_config(preset).to_json())
    for name, value in fields.items():
        if name not in _PLAN_SETTINGS:
            data[name] = value
        elif value is None:
            data["plan"].pop(name, None)
        else:
            data["plan"][name] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def _plan_file_case(field, value, in_grid=False, preset="exp1-hdr", **config):
    """argv of a decode of a plan file with field set to value.

    The plan is built from the desk preset's experiment config with the fields in config set.
    """

    def argv(tmp_path):
        path = _config_file(tmp_path, preset, config)
        assert run_cli("plan", "--config", str(path), "--out", str(tmp_path / "p")) == 0
        data = json.loads((tmp_path / "p" / "plan.json").read_text())
        (data["grid"] if in_grid else data)[field] = value
        path = tmp_path / "bad_plan.json"
        path.write_text(json.dumps(data))
        return ["decode", "--plan", str(path), "--stream", str(tmp_path / "none"),
                "--out", str(tmp_path / "d")]

    return argv


def _config_case(field, value, preset="exp1-hdr", **fields):
    """argv of a plan built from the desk preset experiment config with field set to value.

    Each keyword field is set too.
    """

    def argv(tmp_path):
        path = _config_file(tmp_path, preset, {**fields, field: value})
        return ["plan", "--config", str(path), "--out", str(tmp_path / "p")]

    return argv


#: Values of f1 off the positive finite floats, with their test ids.
_OFF_F1 = {0.0: "zero", -1.0: "negative", math.nan: "nan", math.inf: "inf"}

#: Config edits that make a preset's config one that runs unchecked on any
#: grid: a name with no preset record and a uniform scene.
_UNCHECKED = dict(name="uniform-target", scene={"preset": "uniform"})

#: A config's plan grid of two pixels, one code set on more than one carrier, and of one pixel.
_GRID_2X1, _GRID_1X1 = {"columns": 2, "rows": 1}, {"columns": 1, "rows": 1}


#: Config edits that leave each mode on one carrier.
_ONE_CARRIER = {
    "fm-cdma": ("exp1-fmcdma", {}),
    "fm-tdma": ("exp1-fmcdma", dict(mode="fm-tdma")),
    "plain-cdma": ("exp1-fmcdma", dict(mode="plain-cdma", f1=None)),  # None deletes f1
    "passive": ("exp1-hdr", dict(channels=1)),
    "active": ("exp3-active", dict(channels=1, frequencies=[25000.0])),
}


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
        (_plan_file_case("active_pixels", [], in_grid=True), "active pixel"),
        (_plan_file_case("active_pixels", [[1, 1], [1, 1]], in_grid=True), "unique"),
        (_plan_file_case("active_pixels", [[1, 1], [99, 1]], in_grid=True), "(99, 1) outside"),
        (_plan_file_case("code_length", 7), "declares code_length 7"),
        (_config_case("f1", math.nan), "f1 must be finite and > 0, got nan"),
        # Refused by name before the octave ladder is built.
        *[(_config_case("f1", f1, channels=channels), f"f1 must be finite and > 0, got {f1}")
          for f1 in _OFF_F1 for channels in (2, 1026)],
        (_config_case("noise_seed", -1), "noise_seed"),
        (_plan_file_case("frequencies", [16384.0, 8192.0], preset="exp1-fmcdma"), "fm-cdma"),
        (_config_case("channels", 4, preset="exp1-fmcdma"), "fm-cdma"),
        (_config_case("channels", 0), "channels"),
        (_config_case("frequencies", [2048.0, 4096.0]),
         "f1 = 2048.0 would be ignored next to frequencies [2048.0, 4096.0]"),
        (_config_case("channels", 4, preset="exp3-active"), "channels = 4"),
        (_config_case("mode", "plain-cdma"),
         "f1 = 2048.0 would be ignored next to frequencies [0.0]"),
        # A keyed layer with nothing to permute, from a config or from a plan
        # file an older build wrote with it.
        *[(_config_case("hopping", True, preset, **edits), "hopping = True needs two or more")
          for preset, edits in _ONE_CARRIER.values()],
        *[(_plan_file_case("hopping", True, preset=preset, **edits),
           "hopping = True needs two or more") for preset, edits in _ONE_CARRIER.values()],
        (_plan_file_case("shuffle_codes", True, preset="exp1-fmcdma", mode="fm-tdma"),
         "shuffle_codes = True in fm-tdma"),
        (_plan_file_case("frame_index", 2, key_seed=0),
         "frame_index = 2 keys only the code shuffle"),
        (_plan_file_case("shuffle_codes", True, grid=_GRID_2X1, **_UNCHECKED),
         "shuffle_codes = True on one code set"),
        (_plan_file_case("frame_index", 3, grid=_GRID_2X1, **_UNCHECKED),
         "frame_index = 3 keys only the code shuffle"),
        (_plan_file_case("shuffle_pixels", True, preset="exp1-fmcdma", grid=_GRID_1X1,
                         **_UNCHECKED),
         "shuffle_pixels = True on one pixel"),
        # The same keyed layers set by a config, which reaches build_plan through plan.
        (_config_case("shuffle_codes", True, preset="exp1-fmcdma", mode="fm-tdma"),
         "shuffle_codes = True in fm-tdma"),
        (_config_case("frame_index", 2, key_seed=0), "frame_index = 2 keys only the code shuffle"),
        (_config_case("shuffle_codes", True, grid=_GRID_2X1, **_UNCHECKED),
         "shuffle_codes = True on one code set"),
        (_config_case("shuffle_pixels", True, preset="exp1-fmcdma", grid=_GRID_1X1, **_UNCHECKED),
         "shuffle_pixels = True on one pixel"),
        (_config_case("frame_index", -1), "frame_index"),
        (_config_case("grid", {"columns": 2, "rows": 2, "active_pixels": [[1, 1], [1, 1]]}),
         "unique"),
    ],
    ids=[
        "plan-zero-bit-rate", "plan-nan-bit-rate", "config-inf-bit-rate", "plan-zero-sample-rate",
        "config-nan-sample-rate", "plan-inf-sample-rate", "plan-negative-key-seed",
        "config-negative-key-seed", "preset-seed-minus-one", "plan-negative-frame-index",
        "plan-no-active-pixels", "plan-repeated-active-pixel", "plan-active-pixel-off-grid",
        "plan-wrong-code-length", "config-nan-f1",
        *(f"config-{name}-f1-{channels}-channels" for name in _OFF_F1.values()
          for channels in (2, 1026)),
        "config-negative-noise-seed",
        "plan-fm-cdma-two-carriers", "config-fm-cdma-four-channels", "config-zero-channels",
        "config-f1-and-frequencies", "config-channels-not-the-carrier-count",
        "config-plain-cdma-with-f1", *(f"config-{mode}-hopping" for mode in _ONE_CARRIER),
        *(f"plan-{mode}-hopping" for mode in _ONE_CARRIER), "plan-fm-tdma-shuffle-codes",
        "plan-frame-index-unkeyed", "plan-one-set-shuffle-codes", "plan-one-set-frame-index",
        "plan-one-pixel-shuffle-pixels", "config-fm-tdma-shuffle-codes",
        "config-frame-index-unkeyed", "config-one-set-shuffle-codes",
        "config-one-pixel-shuffle-pixels", "config-negative-frame-index",
        "config-repeated-active-pixel",
    ],
)
def test_out_of_range_plan_parameter_exits_config_code(tmp_path, capsys, case, names):
    argv = case(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and names in err, err


def test_keyed_fm_tdma_config_plans_without_a_code_shuffle(tmp_path):
    # An fm-tdma plan has no codes, so its code shuffle is off under any key.
    assert run_cli(*_config_case("mode", "fm-tdma", preset="exp1-fmcdma")(tmp_path)) == 0
    data = json.loads((tmp_path / "p" / "plan.json").read_text())
    assert data["key_seed"] == 101 and data["shuffle_pixels"] and not data["shuffle_codes"]


@pytest.mark.parametrize(
    "preset, columns, shuffles",
    [("exp1-hdr", 2, (True, False)), ("exp1-fmcdma", 1, (False, False))],
    ids=["one-code-set", "one-pixel"],
)
def test_keyed_config_plans_without_shuffles_that_permute_nothing(
    tmp_path, preset, columns, shuffles
):
    grid = {"columns": columns, "rows": 1}
    argv = _config_case("grid", grid, preset=preset, **_UNCHECKED)(tmp_path)
    assert run_cli(*argv) == 0
    data = json.loads((tmp_path / "p" / "plan.json").read_text())
    assert data["key_seed"] == 101 and (data["shuffle_pixels"], data["shuffle_codes"]) == shuffles


def _older_config(tmp_path):
    """argv of a plan from the desk exp1-hdr config, its detector as an older build wrote it."""
    data = json.loads(presets.preset_config("exp1-hdr").to_json())
    data["detector"].update(shot_noise=False, shot_factor=1.0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return ["plan", "--config", str(path), "--out", str(tmp_path / "p")]


def _detector_file_case(detector):
    """argv of a simulate of the desk exp3-active plan with this detector file."""

    def argv(tmp_path):
        assert run_cli("plan", "--preset", "exp3-active", "--out", str(tmp_path / "p")) == 0
        sc.write_image_csv(np.ones((15, 32)), tmp_path / "scene.csv")
        (tmp_path / "det.json").write_text(json.dumps(detector))
        return ["simulate", "--plan", str(tmp_path / "p" / "plan.json"), "--scene",
                str(tmp_path / "scene.csv"), "--detector", str(tmp_path / "det.json"),
                "--out", str(tmp_path / "s")]

    return argv


#: A detector file as an older build's DetectorConfig wrote it.
_older_detector = _detector_file_case({
    "gain": 1.0, "noise_sigma": 0.1, "shot_noise": True, "shot_factor": 0.5,
    "pink_noise": None, "adc_bits": None, "adc_fullscale": 1.0, "responsivity": "flat",
})


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


def _dual_config(tmp_path, dual=True):
    """argv of a plan from the desk exp2-dualband config as a build with a dual field wrote it."""
    data = json.loads(presets.preset_config("exp2-dualband").to_json())
    data.update(dual=dual, pixel_size=1)
    for side in ("detector", "detector2"):
        data[side]["pink_noise"] = None
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return ["plan", "--config", str(path), "--out", str(tmp_path / "p")]


@pytest.mark.parametrize(
    "case, message",
    [
        (_dual_config, "unknown experiment config fields: ['dual', 'pixel_size']"),
        # A second detector next to "dual": false used to be refused as a contradiction.
        (lambda tmp: _dual_config(tmp, dual=False), "unknown experiment config fields: ['dual',"),
        (_config_case("pixel_size", 8), "unknown experiment config fields: ['pixel_size']"),
        (_plan_file_case("pixel_size", 1, in_grid=True), "unknown grid fields: ['pixel_size']"),
        (_config_case("detector", {"pink_noise": None}),
         "detector field 'pink_noise': expected tuple, got None"),
        (_detector_file_case({"noise_sigma": 0.1, "pink_noise": None}),
         "detector field 'pink_noise': expected tuple, got None"),
    ],
    ids=["config", "config-dual-false", "config-pixel-size", "plan-pixel-size",
         "config-null-pink-noise", "detector"],
)
def test_file_with_dual_pixel_size_or_null_pink_noise_exits_config_code(
    tmp_path, capsys, case, message
):
    # A capture is dual exactly when it has a second detector, pixel_size did
    # nothing, and 1/f noise is off at amplitude 0, so files that still spell
    # those are refused by the field's name.
    argv = case(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert not (tmp_path / "s").exists() and not (tmp_path / "d").exists()


def _older_plan_config(field, value):
    """argv of a plan from the desk exp1-hdr config whose plan object sets field to value."""

    def argv(tmp_path):
        data = json.loads(presets.preset_config("exp1-hdr").to_json())
        data["plan"][field] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return ["plan", "--config", str(path), "--out", str(tmp_path / "p")]

    return argv


@pytest.mark.parametrize("length", [7, 1, 0, -4, 200])
def test_config_with_a_min_code_length_exits_config_code(tmp_path, capsys, length):
    # A plan's code length follows from its set count, so a config that still
    # sets one is refused by the field's name, whatever the length.
    argv = _older_plan_config("min_code_length", length)(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == cli.EXIT_CONFIG
    assert "unknown plan fields: ['min_code_length']" in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize(
    "case, message",
    [
        (_older_plan_config("waveform", "sine"), "unknown plan fields: ['waveform']"),
        (_plan_file_case("waveform", "square"), "unknown plan fields: ['waveform']"),
        (_plan_file_case("min_code_length", None), "unknown plan fields: ['min_code_length']"),
    ],
    ids=["config-waveform", "plan-waveform", "plan-min-code-length"],
)
def test_file_with_a_waveform_or_a_min_code_length_exits_config_code(
    tmp_path, capsys, case, message
):
    # The carrier waveform follows from the mode and the code length from the
    # set count, so files that still set either are refused, never read with
    # a new meaning.
    argv = case(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert not os.path.exists(argv[argv.index("--out") + 1])


@pytest.mark.parametrize("hopping", [False, True], ids=["fixed", "hopping"])
def test_plan_file_asking_for_a_huge_code_is_refused_before_the_plan_is_built(
    tmp_path, capsys, hopping
):
    # A 4-pixel plan file as older builds wrote it, padded to a 2**40-bit
    # code. Read with its old meaning, simulate would ask for 16 TiB of slot
    # sums, and a hopping plan would draw 2**40 hop rows.
    length = 2**40
    doc = {
        "format": "caossim-plan", "version": 1, "code_length": length,
        "grid": {"columns": 2, "rows": 2}, "mode": "passive-fdma-cdma",
        "frequencies": [1.0, 2.0], "bit_rate": 1.0, "sample_rate": 16.0, "key_seed": 0,
        "hopping": hopping, "waveform": "square", "min_code_length": length,
        "shuffle_pixels": False, "shuffle_codes": False, "frame_index": 0,
    }
    path, scene = tmp_path / "plan.json", tmp_path / "scene.csv"
    path.write_text(json.dumps(doc))
    sc.write_image_csv(np.ones((2, 2)), scene)
    for argv in (
        ["simulate", "--plan", str(path), "--scene", str(scene), "--out", str(tmp_path / "s")],
        ["decode", "--plan", str(path), "--stream", str(tmp_path / "none"),
         "--out", str(tmp_path / "d")],
    ):
        capsys.readouterr()
        with mock.patch.object(planmod, "build_plan") as build:
            assert run_cli(*argv) == cli.EXIT_CONFIG
        build.assert_not_called()
        err = capsys.readouterr().err
        assert err == "config error: unknown plan fields: ['min_code_length', 'waveform']\n", err
    assert not (tmp_path / "s").exists() and not (tmp_path / "d").exists()


#: Plan-file edits after which a plan cannot decode exactly or breaks a
#: timing rule, with the exit code and error text that refuse the file.
_UNDECODABLE_PLANS = {
    # A passive plan rides square carriers, and a plan file sets no waveform.
    "static-waveform": (
        dict(waveform="none"), cli.EXIT_CONFIG, "unknown plan fields: ['waveform']"
    ),
    "unknown-waveform": (
        dict(waveform="triangle"), cli.EXIT_CONFIG, "unknown plan fields: ['waveform']"
    ),
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
    # One sample per bit has no DSP gain 10 log10(F / 2) to report.
    "one-sample-bit": (
        dict(mode="plain-cdma", frequencies=[0.0], bit_rate=4.0, sample_rate=4.0),
        cli.EXIT_VALIDATION, "sample_rate * T = 1.0 is not an integer from 2 to 2**32 - 1",
    ),
    "samples-per-bit-overflow": (
        dict(bit_rate=1e-308), cli.EXIT_VALIDATION,
        "sample_rate * T = inf is not an integer from 2 to 2**32 - 1",
    ),
    # F = 1e-9 * 1e10 = 10 samples per bit, but 1e308 Hz * 1e10 s overflows.
    "cycles-per-bit-overflow": (
        dict(frequencies=[1e308], bit_rate=1e-10, sample_rate=1e-9), cli.EXIT_VALIDATION,
        "carrier 1e+308 Hz gives inf cycles per bit; needs a positive integer",
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
#: left out: a 10**6 x 10**6 grid is a memory problem, not a parse error. 2**11
#: carriers from any f1 >= 1 overflow a float.
_HOSTILE = (0, -1, 0.5, 2**11, math.nan, math.inf, -math.inf, "x", None, [], {}, True)


#: The valid JSON input files the property edits, each under its name in valid_inputs.
_VALID_FILES = ("plan.json", "stream_pd1.json", "det.json", "config.json")


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A directory of valid inputs: a desk exp2-dualband plan on the odd rows and
    columns of its grid, its PD1 stream, a scene and a detector config, and the
    desk exp1-hdr experiment config."""
    root = tmp_path_factory.mktemp("valid")
    config = presets.preset_config("exp2-dualband")
    odd = [(m, n) for n in range(1, 22, 2) for m in range(1, 22, 2)]
    config.plan["grid"] = PixelGrid(21, 21, tuple(odd))  # so grid.active_pixels is a field
    (root / "exp2.json").write_text(config.to_json())
    assert run_cli("plan", "--config", str(root / "exp2.json"), "--out", str(root)) == 0
    sc.write_image_csv(np.random.default_rng(4).uniform(0.1, 1.0, (21, 21)), root / "scene.csv")
    detector = {
        "gain": 2.0, "noise_sigma": 0.01, "shot_noise": 0.0, "pink_noise": [0.01, 1.0],
        "adc_bits": 12, "adc_fullscale": 4.0, "responsivity": "flat",
    }
    (root / "det.json").write_text(json.dumps(detector))
    assert run_cli("simulate", "--plan", str(root / "plan.json"), "--scene", str(root / "scene.csv"),
                   "--detector", str(root / "det.json"), "--out", str(root)) == 0
    config = presets.preset_config("exp1-hdr")
    # Every plan setting at the value the plan resolves it to, so that each
    # takes the hostile values; frequencies aside, since f1 and channels set them.
    recorded = planmod.plan_to_dict(config.build_plan())
    keyed = ("hopping", "shuffle_pixels", "shuffle_codes")
    config.plan.update((name, recorded[name]) for name in (*keyed, "frame_index"))
    (root / "config.json").write_text(config.to_json())
    return root


def _field_paths(doc):
    """The path of every field of a JSON object, of the objects inside it at any depth too."""
    paths = []
    for key, value in doc.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, *inner) for inner in _field_paths(value))
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
    target = doc
    for parent in parents:
        target = target[parent]
    target[key] = data.draw(st.sampled_from(_HOSTILE), label="value")
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


@pytest.mark.parametrize(
    "command, help_text",
    [("plan", "key seed override"), ("experiment", "key seed override"), ("simulate", "noise seed")],
)
def test_seed_help_names_the_seed_it_sets(command, help_text, capsys):
    # plan and experiment --seed override the key seed; simulate --seed is the noise seed.
    with pytest.raises(SystemExit) as exited:
        run_cli(command, "--help")
    assert exited.value.code == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert ["--seed", "SEED", *help_text.split()] in lines


#: The modules `import caossim` loads. presets and cli load when imported.
_PACKAGE_MODULES = ["codes", "decode", "errors", "metrics", "plan", "scene", "sensor"]


def test_caossim_exports_nothing_but_its_modules():
    # Every public object has one spelling, caossim.<module>.<name>.
    import caossim

    public = {name: value for name, value in vars(caossim).items() if not name.startswith("_")}
    assert {name for name, value in public.items() if not inspect.ismodule(value)} == set()
    assert all(value.__name__ == f"caossim.{name}" for name, value in public.items())
    assert set(_PACKAGE_MODULES) <= set(public) and caossim.__version__


def test_import_caossim_loads_its_modules_and_not_presets_or_cli():
    src = Path(cli.__file__).resolve().parents[1]
    code = "import json, sys, caossim; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60, check=True,
    )
    loaded = [name for name in json.loads(proc.stdout) if name.split(".")[0] == "caossim"]
    assert loaded == ["caossim", *(f"caossim.{name}" for name in _PACKAGE_MODULES)]
