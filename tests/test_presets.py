import json
import tracemalloc

import numpy as np
import pytest

from caossim import decode, presets, sensor
from caossim.errors import ConfigError, LayoutError
from caossim.plan import PixelGrid


class TestPresetParameters:
    def test_exp1_full_scale_matches_hardware_numbers(self):
        plan = presets.preset_config("exp1-hdr", full_scale=True).build_plan()
        assert plan.grid.pixel_count == 1276
        assert plan.frequencies.frequencies == (128.0, 256.0, 512.0, 1024.0)
        assert plan.set_count == 319
        assert plan.code_length == 320
        assert plan.samples_per_bit == 65536
        assert plan.frame_time == pytest.approx(320.0)
        assert decode.dsp_gain_db(plan.samples_per_bit) == pytest.approx(45.15, abs=0.02)

    def test_exp1_comparator_full_scale(self):
        plan = presets.preset_config("exp1-fmcdma", full_scale=True).build_plan()
        assert plan.code_length == 1280
        assert plan.frame_time == pytest.approx(1280.0)

    def test_exp2_full_scale(self):
        plan = presets.preset_config("exp2-dualband", full_scale=True).build_plan()
        assert plan.grid.pixel_count == 65 * 63
        assert plan.set_count == 1024
        assert plan.code_length == 1280
        assert plan.samples_per_bit == 16384
        assert decode.dsp_gain_db(plan.samples_per_bit) == pytest.approx(39.13, abs=0.01)

    def test_exp3_full_scale(self):
        plan = presets.preset_config("exp3-active", full_scale=True).build_plan()
        assert plan.grid.pixel_count == 480
        assert plan.set_count == 480
        assert plan.code_length == 512
        assert plan.samples_per_bit == 64000
        assert [round(k) for k in plan.frequencies.cycles_per_bit()] == [800, 928, 1120]

    def test_scaled_presets_share_code_structure_with_full_scale(self):
        # Raising the bit rate must not change the code allocation, only F.
        for name in ("exp1-hdr", "exp1-fmcdma", "exp3-active"):
            scaled = presets.preset_config(name).build_plan()
            full = presets.preset_config(name, full_scale=True).build_plan()
            assert scaled.code_length == full.code_length
            assert np.array_equal(scaled.set_index, full.set_index)
            assert np.array_equal(scaled.member_index, full.member_index)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            presets.preset_config("exp9-imaginary")


class TestRunDeterminism:
    def test_same_config_same_images(self):
        cfg = presets.preset_config("exp2-dualband")
        a = presets.run_experiment(cfg)
        b = presets.run_experiment(cfg)
        for img_a, img_b in zip(a.images, b.images):
            assert np.array_equal(img_a.values, img_b.values)

    def test_noise_seed_changes_noisy_capture(self):
        cfg1 = presets.preset_config("exp1-hdr")
        cfg2 = presets.preset_config("exp1-hdr")
        cfg2.noise_seed += 1
        a = presets.run_experiment(cfg1)
        b = presets.run_experiment(cfg2)
        assert not np.array_equal(a.images[0].values, b.images[0].values)


def test_in_memory_run_never_holds_the_whole_stream():
    # Full-scale exp1-hdr: 21 M samples. Without out_dir, run_experiment
    # captures and decodes block by block, so its traced peak stays below one
    # float64 copy of the stream (167.8 MB).
    config = presets.preset_config("exp1-hdr", full_scale=True)
    frame_samples = config.build_plan().frame_samples
    assert frame_samples > 4 * sensor.BLOCK_SAMPLES
    stream_bytes = frame_samples * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        result = presets.run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.images[0].raw.shape == (29, 44)
    assert peak < stream_bytes


def test_in_memory_run_holds_a_few_blocks():
    # The same run in 2**19-sample blocks, each noised and quantized in its
    # own float32 samples, with white noise handed over from a ring of two
    # 2**17-sample float64 chunks and carriers kept as one period: 5.2 MiB,
    # bound at that plus 4 MiB, one float64 block. It was 7.6 MiB with the
    # whole-bit (4, 65536) carrier table, 15.6 MiB with a separate noise and
    # ADC output per block and a ring of two whole-block buffers, 27.6 MiB in
    # 2**20-sample blocks and 99 MiB in 4 M-sample blocks.
    config = presets.preset_config("exp1-hdr", full_scale=True)
    tracemalloc.start()
    try:
        presets.run_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9.25 * 2**20


def test_file_writing_run_never_holds_the_whole_stream(tmp_path):
    # The same run with out_dir writes the stream file block by block as it decodes.
    config = presets.preset_config("exp1-hdr", full_scale=True)
    plan = config.build_plan()
    stream_bytes = plan.frame_samples * np.dtype(np.float64).itemsize
    tracemalloc.start()
    try:
        result = presets.run_experiment(config, out_dir=tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stream_bytes
    # Decoding the file back reads it one 2**19-sample block at a time: the
    # float32 block, its float64 copy and the plan's basis and carriers, not
    # the 80 MiB of float32 samples the file holds.
    tracemalloc.start()
    try:
        stream = sensor.read_stream(tmp_path / "stream_pd1")
        image = decode.decode_frame(stream, plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    assert stream.bits == plan.code_length
    assert image.raw.tobytes() == result.images[0].raw.tobytes()


def test_dual_file_decode_holds_one_block_at_a_time(tmp_path):
    # Full-scale exp2-dualband writes two 84 MB float32 files; `caossim
    # decode --stream2` decodes them through DualStreams, side after side.
    config = presets.preset_config("exp2-dualband", full_scale=True)
    plan = config.build_plan()
    result = presets.run_experiment(config, out_dir=tmp_path)
    tracemalloc.start()
    try:
        sides = [sensor.read_stream(tmp_path / f"stream_{side}") for side in (sensor.PD1, sensor.PD2)]
        images = decode.decode_frame(sensor.DualStreams(*sides), plan)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    assert [image.raw.tobytes() for image in images] == [
        image.raw.tobytes() for image in result.images
    ]


def test_calibration_targets_comparator_weak_patch():
    sigma = presets.calibrate_hdr_sigma(target_snr=3.0, iterations=3)
    # The frozen constant should match a fresh sweep to within a few percent.
    assert sigma == pytest.approx(presets.HDR_NOISE_SIGMA, rel=0.05)
    cfg = presets.preset_config("exp1-fmcdma")
    result = presets.run_experiment(cfg)
    assert result.patch_report.patches[3].snr == pytest.approx(3.0, rel=0.1)


@pytest.mark.parametrize("convention", [10, 20])
def test_noiseless_hdr_patches_measure_their_levels_at_either_convention(convention):
    # The target is built in the convention its patches are measured in.
    config = presets.preset_config("exp1-hdr")
    config.convention = convention
    config.detector = presets.DetectorConfig(gain=config.detector.gain)  # no noise, no ADC
    result = presets.run_experiment(config)
    assert result.patch_report.convention == convention
    measured = result.patch_report.dr_values()
    assert max(abs(got - level) for got, level in zip(measured, presets.HDR_LEVELS_DB)) <= 1.0


def test_hdr_evaluator_reads_the_levels_of_its_config():
    config = presets.preset_config("exp1-hdr")
    config.detector = presets.DetectorConfig(gain=config.detector.gain)  # no noise, no ADC
    config.scene["levels_db"] = [0.0, 6.0, 12.0, 18.0, 24.0, 30.0]
    result = presets.run_experiment(config)
    assert result.ok
    assert [line.split(" dB")[0] for line in result.summary_lines[:6]] == [
        f"PASS patch {level}" for level in (0, 6, 12, 18, 24, 30)
    ]


def test_hdr_config_scene_is_built_and_judged_at_the_kind_defaults():
    data = json.loads(presets.preset_config("exp1-hdr").to_json())
    data["scene"] = {"preset": "hdr-patches"}  # levels_db and layout left to their defaults
    config = presets.ExperimentConfig.from_json(json.dumps(data))
    assert json.loads(config.to_json())["scene"] == {"preset": "hdr-patches"}
    config.detector = presets.DetectorConfig(gain=config.detector.gain)  # no noise, no ADC
    result = presets.run_experiment(config)
    assert result.ok
    assert [line.split(" dB")[0] for line in result.summary_lines[:6]] == [
        f"PASS patch {level:g}" for level in presets.HDR_LEVELS_DB
    ]


@pytest.mark.parametrize("name", ["exp1-hdr", "exp2-dualband", "exp3-active"])
def test_preset_name_with_a_scene_of_another_kind_is_refused_before_any_capture(
    monkeypatch, name
):
    config = presets.preset_config(name)
    config.scene = {"preset": "uniform"}
    monkeypatch.setattr(sensor, "capture_blocks", None)  # a capture would raise TypeError
    with pytest.raises(ConfigError, match=f"preset {name} does not check a uniform scene"):
        presets.run_experiment(config)


@pytest.mark.parametrize(
    "params",
    [
        {"preset": "hdr-patches", "layout": [-2, -3]},
        {"preset": "hdr-patches", "levels_db": [0, 20, 30, 48, 58, -7000]},
        {"preset": "fiber-spot", "radius": -1},
        {"preset": "fiber-spot", "center": [30, 4]},
        {"preset": "two-hole", "radius": -1},
    ],
    ids=["negative-layout", "overflowing-level", "fiber-negative-radius", "fiber-center-outside",
         "two-hole-negative-radius"],
)
def test_config_scene_values_out_of_range_raise_layout_error(params):
    with pytest.raises(LayoutError):
        presets.build_scene(PixelGrid(24, 16), params)


def test_fiber_spot_center_null_builds_the_default_spot_and_is_kept_as_given(tmp_path):
    data = json.loads(presets.preset_config("exp2-dualband").to_json())
    data["scene"] = {"preset": "fiber-spot", "center": None}
    result = presets.run_experiment(
        presets.ExperimentConfig.from_json(json.dumps(data)), out_dir=tmp_path
    )
    assert result.ok
    written = json.loads((tmp_path / "config.json").read_text())
    assert written["scene"] == {"preset": "fiber-spot", "center": None}
    left_out = presets.build_scene(result.plan.grid, {"preset": "fiber-spot"})
    np.testing.assert_array_equal(result.scene.irradiance, left_out.irradiance)
    np.testing.assert_array_equal(result.scene.spectrum.values, left_out.spectrum.values)


def test_dualband_evaluator_labels_each_side_by_its_responsivity():
    config = presets.preset_config("exp2-dualband")
    config.detector, config.detector2 = config.detector2, config.detector
    result = presets.run_experiment(config)
    assert result.ok
    assert [line.split()[1] for line in result.summary_lines] == ["ge-band"] * 2 + ["si-band"] * 2


def test_config_without_a_preset_record_runs_unchecked():
    config = presets.preset_config("exp2-dualband")
    config.name = "my-spot"
    result = presets.run_experiment(config)
    assert result.ok
    assert result.summary_text() == "preset my-spot: PASS\nno acceptance checks defined for my-spot\n"


def test_dual_active_capture_decodes_every_source_on_both_sides():
    config = presets.preset_config("exp3-active")
    config.detector2 = config.detector  # one detector model on both sides
    result = presets.run_experiment(config)
    assert result.ok
    maps = result.scene.per_source
    sources = len(maps)
    assert [(img.pd_side, img.source_index) for img in result.images] == [
        (side, k) for side in (sensor.PD1, sensor.PD2) for k in range(sources)
    ]
    for img in result.images:
        assert np.max(np.abs(img.raw - maps[img.source_index])) <= 1e-9 * maps.max()
    assert result.summary_lines[sources].startswith(f"PASS {sensor.PD2} source 1: ")


def test_negative_noise_seed_is_refused_before_any_capture(monkeypatch):
    config = presets.preset_config("exp3-active")
    config.noise_seed = -1
    monkeypatch.setattr(sensor, "capture_blocks", None)  # a capture would raise TypeError
    with pytest.raises(ConfigError, match="noise_seed"):
        presets.run_experiment(config)
