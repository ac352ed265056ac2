"""Layer table: which caossim functions each layer wraps, and its computed counts.

Layers are named after modules. A layer's self time is its spans' time minus
the time of the spans they contain, so ``plan.build_plan`` self time excludes
``codes.codebook`` and ``decode.correlate`` (the self time of
``decode_frame``: equalize, hop gather, signed-code correlation, scatter)
excludes ``decode.per_bit_spectra``.

Counts are computed from array sizes at the layer boundary, never measured:
samples through the layer, bytes of its input and output arrays
(``gb_moved_computed``; temporaries are not counted, the ``ru_maxrss`` rise
shows those) and multiply-adds of the dense arithmetic it implements. They
repeat exactly for a given workload and seed.
"""

from __future__ import annotations

from caossim import codes, decode, metrics, plan, presets, scene, sensor
from caossim.plan import Mode

from tracer import Tracer

F64 = 8
F32_FILE = 4  # stream files hold little-endian float32

#: Every layer, in report order.
LAYERS = (
    "codes.codebook",
    "plan.build_plan",
    "scene.build",
    "sensor.synthesize",
    "sensor.add_noise",
    "sensor.apply_adc",
    "decode.per_bit_spectra",
    "decode.correlate",
    "metrics.evaluate",
    "io.stream_write",
    "io.stream_read",
    "io.reports",
    "presets.glue",
)

#: Layers whose calls carry a whole detector stream.
SAMPLE_PATH = (
    "sensor.synthesize",
    "sensor.add_noise",
    "sensor.apply_adc",
    "decode.per_bit_spectra",
    "io.stream_write",
    "io.stream_read",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _synthesize(args, kwargs, stream):
    cplan = _arg(args, kwargs, 0, "plan")
    n = stream.samples.size
    return {"samples": n, "bytes": n * stream.samples.itemsize, "macs": n * cplan.channel_count}


def _add_noise(args, kwargs, stream):
    source = _arg(args, kwargs, 0, "stream")
    n = stream.samples.size
    return {"samples": n, "bytes": n * (source.samples.itemsize + stream.samples.itemsize)}


def _apply_adc(args, kwargs, stream):
    source = _arg(args, kwargs, 0, "stream")
    n = stream.samples.size
    moved = 0 if stream is source else n * (source.samples.itemsize + stream.samples.itemsize)
    return {"samples": n, "bytes": moved}


def _per_bit_spectra(args, kwargs, spectra):
    stream = _arg(args, kwargs, 0, "stream")
    n = stream.samples.size
    channels = spectra.shape[1]
    # One complex basis column per channel against real samples: 2 real MACs.
    return {
        "samples": n,
        "bytes": n * stream.samples.itemsize + spectra.size * F64,
        "macs": 2 * n * channels,
    }


def _correlate(args, kwargs, result):
    stream = _arg(args, kwargs, 0, "stream")
    cplan = _arg(args, kwargs, 1, "plan")
    if isinstance(stream, sensor.DualStreams) or cplan.mode is Mode.FM_TDMA:
        return {}  # the per-detector calls inside carry the counts
    w, slots = cplan.code_length, cplan.channel_count
    sets, pixels = cplan.set_count, cplan.grid.pixel_count
    images = len(result) if isinstance(result, list) else 1
    return {
        "bytes": w * slots * F64 + sets * w + images * pixels * F64,
        "macs": sets * w * slots,
    }


def _stream_write(args, kwargs, paths):
    stream = _arg(args, kwargs, 0, "stream")
    n = stream.samples.size
    return {"samples": n, "bytes": n * (stream.samples.itemsize + F32_FILE)}


def _stream_read(args, kwargs, stream):
    n = stream.samples.size
    return {"samples": n, "bytes": n * (F32_FILE + stream.samples.itemsize)}


#: (module, attribute, layer, counter). Calls go through module attributes.
WRAPPED = (
    (codes, "codebook", "codes.codebook", None),
    (plan, "build_plan", "plan.build_plan", None),
    (presets, "build_scene", "scene.build", None),
    (sensor, "synthesize", "sensor.synthesize", _synthesize),
    (sensor, "add_noise", "sensor.add_noise", _add_noise),
    (sensor, "apply_adc", "sensor.apply_adc", _apply_adc),
    (decode, "per_bit_spectra", "decode.per_bit_spectra", _per_bit_spectra),
    (decode, "decode_frame", "decode.correlate", _correlate),
    (metrics, "patch_dr", "metrics.evaluate", None),
    (metrics, "wrong_key_correlation", "metrics.evaluate", None),
    (sensor, "write_stream", "io.stream_write", _stream_write),
    (sensor, "read_stream", "io.stream_read", _stream_read),
    (plan, "save_plan", "io.reports", None),
    (plan, "load_plan", "io.reports", None),
    (scene, "write_image_pgm", "io.reports", None),
    (scene, "write_image_csv", "io.reports", None),
    (decode, "decode_report", "io.reports", None),
    (decode, "write_decode_report", "io.reports", None),
    (presets, "run_experiment", "presets.glue", None),
)


def install(tracer: Tracer) -> None:
    for module, attr, layer, counter in WRAPPED:
        tracer.wrap(module, attr, layer, counter)


# ---------------------------------------------------------------------------
# Per-layer metrics reported by a traced run
# ---------------------------------------------------------------------------

#: Layers with calls on every workload; their times are reported as metrics.
#: The others (metrics.evaluate, io.*, presets.glue) idle on some workloads,
#: where a time would read 0 on every run, so their times appear in the
#: printed layer table and the result file and only their counts here.
TIMED_EVERYWHERE = (
    "codes.codebook",
    "plan.build_plan",
    "scene.build",
    "sensor.synthesize",
    "sensor.add_noise",
    "sensor.apply_adc",
    "decode.per_bit_spectra",
    "decode.correlate",
)
SETUP_TIMED = ("codes.codebook", "plan.build_plan", "scene.build")


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in BENCHMARK.json order."""
    units = {
        "trace.run_s": "s",
        "trace.self_coverage_pct": "%",
        "trace.spans": "count",
        "trace.overhead_est_s": "s",
    }
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        if layer in TIMED_EVERYWHERE:
            units[f"{layer}.s"] = "s"
            units[f"{layer}.self_s"] = "s"
        if layer in SAMPLE_PATH:
            units[f"{layer}.msamples"] = "Msample"
            units[f"{layer}.gb_moved_computed"] = "GB"
        if layer in SAMPLE_PATH or layer == "codes.codebook":
            units[f"{layer}.rss_hwm_delta_mb"] = "MB"
        if layer in ("sensor.synthesize", "decode.per_bit_spectra", "decode.correlate"):
            units[f"{layer}.gmacs"] = "GMAC"
    units["decode.correlate.gb_moved_computed"] = "GB"
    for layer in SETUP_TIMED:
        units[f"setup.{layer}.self_s"] = "s"
    return units
