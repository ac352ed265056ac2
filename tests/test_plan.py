import dataclasses
import gc
import inspect
import json
import math
import os
import re
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from caossim import cli, decode, plan as planmod, presets, scene as sc, sensor
from caossim.errors import CaosError, ConfigError, NyquistError, TimingError
from caossim.plan import Mode, PixelGrid, build_plan, coding_element
from caossim.scene import DetectorModel, Scene


def small_plan(**kwargs):
    defaults = dict(mode=Mode.PASSIVE_FDMA_CDMA, bit_rate=1.0, sample_rate=128.0, key_seed=0)
    if "frequencies" not in kwargs and kwargs.get("mode") is not Mode.PLAIN_CDMA:
        defaults.update(channels=4, f1=4.0)  # the default carriers
    defaults.update(kwargs)
    grid = defaults.pop("grid", PixelGrid(4, 4))
    return build_plan(grid, **defaults)


def large_grid_plan():
    """256x256 pixels on 4 hopping octave carriers: 16384 sets, W = 20480, F = 32."""
    return build_plan(
        PixelGrid(256, 256),
        channels=4,
        f1=1.0,
        bit_rate=1.0,
        sample_rate=32.0,
        key_seed=9,
        hopping=True,
    )


@pytest.mark.parametrize(
    "q,p,expected_sets,expected_last",
    [(2035, 8, 255, 3), (1276, 4, 319, 4), (5, 1, 5, 1), (3, 8, 1, 3)],
)
def test_pixel_sets(q, p, expected_sets, expected_last):
    # build_plan's own layout: every set full but the last, which keeps the lowest slots.
    plan = build_plan(PixelGrid(q, 1), channels=p, f1=1.0, bit_rate=1.0, sample_rate=2.0 ** (p + 1))
    sizes = np.bincount(plan.set_index)
    assert plan.set_count == len(sizes) == expected_sets
    assert sizes[-1] == expected_last
    assert sizes.sum() == q
    assert np.all(sizes[:-1] == p)


def test_build_plan_experiment_one_parameters():
    grid = PixelGrid(44, 29)
    p = build_plan(grid, channels=4, f1=128.0, bit_rate=1.0, sample_rate=65536.0)
    assert p.frequencies.frequencies == (128.0, 256.0, 512.0, 1024.0)
    assert p.set_count == 319
    assert p.code_length == 320
    assert p.samples_per_bit == 65536
    assert p.frame_time == pytest.approx(320.0)


def test_build_plan_single_channel_comparator():
    grid = PixelGrid(44, 29)
    p = build_plan(grid, mode=Mode.FM_CDMA, f1=1024.0, bit_rate=1.0, sample_rate=65536.0)
    assert p.set_count == 1276
    assert p.code_length == 1280
    assert p.frame_time == pytest.approx(1280.0)


def test_build_plan_active_overlapped():
    grid = PixelGrid(32, 15)
    p = build_plan(
        grid,
        mode=Mode.ACTIVE_OVERLAPPED,
        frequencies=(25000.0, 29000.0, 35000.0),
        bit_rate=31.25,
        sample_rate=2_000_000.0,
    )
    assert p.set_count == 480
    assert p.code_length == 512
    assert p.samples_per_bit == 64000
    assert p.mode.waveform == "sine"
    assert [round(k) for k in p.frequencies.cycles_per_bit()] == [800, 928, 1120]


def test_each_mode_rides_the_waveform_of_its_hardware():
    # DMD mirrors toggle square carriers, modulated sources ride sines, and
    # plain CDMA sits static during a bit.
    assert {mode: mode.waveform for mode in Mode} == {
        Mode.PASSIVE_FDMA_CDMA: "square", Mode.FM_CDMA: "square", Mode.FM_TDMA: "square",
        Mode.PLAIN_CDMA: "none", Mode.ACTIVE_OVERLAPPED: "sine",
    }


@pytest.mark.parametrize(
    "mode, carriers",
    [
        (Mode.FM_TDMA, dict(frequencies=(4.0, 8.0, 16.0))),
        (Mode.FM_CDMA, dict(frequencies=(16384.0, 8192.0), sample_rate=65536.0)),
        (Mode.FM_CDMA, dict(f1=4.0, channels=4)),
    ],
)
def test_single_carrier_modes_refuse_other_carrier_counts(mode, carriers):
    with pytest.raises(ConfigError, match=f"{mode.value} rides one carrier"):
        small_plan(mode=mode, **carriers)


def test_build_plan_timing_error():
    with pytest.raises(TimingError):
        small_plan(f1=0.5, channels=1)
    with pytest.raises(TimingError):
        small_plan(sample_rate=128.5)
    # F = 1 has no DSP gain 10 log10(F / 2), and F = 2**32 would overflow int64 ticks.
    for kwargs in (dict(mode=Mode.PLAIN_CDMA, sample_rate=1.0), dict(sample_rate=2.0**32)):
        with pytest.raises(TimingError, match=re.escape("is not an integer from 2 to 2**32 - 1")):
            small_plan(**kwargs)


def magnitudes():
    """Positive reals from 1e-310 to 1e308: small whole numbers, powers of two and any float."""
    return st.one_of(
        st.integers(1, 64).map(float),
        st.integers(-1029, 1023).map(lambda e: 2.0**e),
        st.floats(1e-310, 1e308, allow_subnormal=True),
    )


@st.composite
def raw_timings(draw):
    """Raw (mode, sample_rate, bit_rate, frequencies), mostly ones build_plan refuses.

    Carrier counts fit the mode, so that the timing decides.
    """
    mode = draw(st.sampled_from(list(Mode)))
    bit_rate = draw(magnitudes())
    whole_bit = st.integers(0, 256).map(lambda f: f * bit_rate)  # F = f samples per bit
    sample_rate = draw(magnitudes() if draw(st.booleans()) else whole_bit)
    if mode is Mode.PLAIN_CDMA:
        return mode, sample_rate, bit_rate, None
    count = 1 if mode in (Mode.FM_CDMA, Mode.FM_TDMA) else draw(st.integers(1, 4))
    cycles = st.lists(st.integers(0, 64), min_size=count, max_size=count)
    frequencies = [k * bit_rate for k in draw(cycles)]
    if draw(st.booleans()):
        frequencies[draw(st.integers(0, count - 1))] = draw(magnitudes())
    return mode, sample_rate, bit_rate, frequencies


@settings(max_examples=300, deadline=None)
@given(raw_timings(), st.integers(0, 2**32 - 1))
@example((Mode.PLAIN_CDMA, 4.0, 4.0, None), 0)  # F = 1
@example((Mode.PASSIVE_FDMA_CDMA, 64.0, 1e-300, [1.0]), 0)  # F = 6.4e301
@example((Mode.PASSIVE_FDMA_CDMA, 1e308, 1e-10, [1e-10]), 0)  # F overflows
@example((Mode.PASSIVE_FDMA_CDMA, 64.0, 1e-307, [1e-307]), 0)  # F overflows
@example((Mode.PASSIVE_FDMA_CDMA, 0.1, 1e-10, [1e308]), 0)  # cycles overflow
@example((Mode.PASSIVE_FDMA_CDMA, 2.0**32, 1.0, [1.0]), 0)  # F = 2**32
def test_timing_predicate_is_total(timing, seed):
    # Raw timing is refused with a CaosError, or it builds a plan whose
    # carriers repeat every carrier period and which decodes a scene exactly.
    # Bits of 2**16 to 2**32 samples are skipped: an accepted one would take
    # (F, 2 carriers) floats in the harmonic check.
    mode, sample_rate, bit_rate, frequencies = timing
    assume(not 2**16 < sample_rate * (1.0 / bit_rate) < 2**32)
    try:
        plan = build_plan(PixelGrid(2, 2), mode=mode, sample_rate=sample_rate,
                          bit_rate=bit_rate, frequencies=frequencies)
    except CaosError:
        return
    periods = plan.carrier_matrix.reshape(plan.channel_count, -1, plan.carrier_period)
    assert (periods == periods[:, :1]).all()
    rng = np.random.default_rng(seed)
    if mode is Mode.ACTIVE_OVERLAPPED:
        truth = rng.uniform(0.05, 1.0, (plan.channel_count, 2, 2))
        scene = Scene(grid=plan.grid, per_source=truth)
    else:
        truth = rng.uniform(0.05, 1.0, (1, 2, 2))
        scene = Scene(grid=plan.grid, irradiance=truth[0])
    images = decode.image_list(decode.decode_capture(plan, scene, (DetectorModel(),)))
    assert len(images) == len(truth)
    for image, want in zip(images, truth):
        assert np.max(np.abs(image.raw - want)) <= 1e-9 * want.max()
    assert decode.decode_report(images, plan)["samples_per_bit"] == plan.samples_per_bit


def test_build_plan_nyquist_error():
    with pytest.raises(NyquistError):
        small_plan(channels=4, f1=8.0, sample_rate=64.0)


def test_coding_element_static_assignment():
    p = small_plan()
    # Raster order, no shuffle: second pixel of the top line is member 1 of
    # set 0, so it holds the set-0 code and channel 2.
    bits = p.code_bits(0)
    w_on = int(np.argmax(bits == 1)) + 1
    w_off = int(np.argmax(bits == 0)) + 1
    assert coding_element(p, (2, 1), w_on) == (1, 2)
    assert coding_element(p, (2, 1), w_off) == (0, None)


def test_coding_element_hopped_channels_form_permutation():
    # The pixels of a full set share its code, so during a bit where it is ON
    # they ride every carrier once, each where the bit's hop row sends its slot.
    p = small_plan(hopping=True, key_seed=11)
    positions = p.grid.positions()
    members = np.flatnonzero(p.set_index == 0)
    assert len(members) == p.channel_count
    for w in range(1, p.code_length + 1):
        elements = [coding_element(p, positions[i], w) for i in members]
        bit = p.code_bits(0)[w - 1]
        assert [code_bit for code_bit, _ in elements] == [bit] * len(members)
        if bit:
            channels = [channel for _, channel in elements]
            assert sorted(channels) == list(range(1, p.channel_count + 1))
            assert channels == (p.hop_schedule[w - 1, p.member_index[members]] + 1).tolist()


def test_hop_schedule_shared_across_sets():
    # One global permutation per bit: the decoder's member reconstruction is
    # the identity between any two sets.
    p = small_plan(grid=PixelGrid(8, 4), hopping=True, key_seed=3)
    assert p.hop_schedule.shape == (p.code_length, p.channel_count)
    for row in p.hop_schedule:
        inverse = np.argsort(row)
        for member in range(p.channel_count):
            assert inverse[row[member]] == member


def plan_command_facts(tmp_path, **keywords):
    """The validation.txt lines of `caossim plan --config`, the exp1-hdr config with these
    build_plan arguments set in its plan object."""
    config = presets.preset_config("exp1-hdr")
    config.plan.update(keywords)
    path, out = tmp_path / "config.json", tmp_path / "plan"
    path.write_text(config.to_json())
    assert cli.main(["plan", "--config", str(path), "--out", str(out)]) == cli.EXIT_OK
    return (out / "validation.txt").read_text().splitlines()


def test_validate_passes_and_reports_speedup(tmp_path, capsys):
    # 1276 pixels need W = 1280 on one carrier and 320 on four.
    facts = plan_command_facts(
        tmp_path, grid=PixelGrid(44, 29), channels=4, f1=128.0, bit_rate=1.0,
        sample_rate=65536.0,
    )
    assert facts == [
        "F (samples per bit): 65536",
        "carrier bins: 128, 256, 512, 1024",
        "g (F / carrier period): 128",
        "speedup vs single-channel plan: 4",
    ]
    assert capsys.readouterr().out.splitlines() == facts


def test_validate_worked_example_speedup_eight(tmp_path):
    # 2032 pixels: W = 2048 on one carrier, 256 on eight.
    facts = plan_command_facts(
        tmp_path, grid=PixelGrid(254, 8), channels=8, f1=16.0, bit_rate=1.0,
        sample_rate=8192.0,
    )
    assert facts[1:] == [
        "carrier bins: 16, 32, 64, 128, 256, 512, 1024, 2048",
        "g (F / carrier period): 16",
        "speedup vs single-channel plan: 8",
    ]


def test_validate_flags_fractional_cycles():
    with pytest.raises(TimingError, match=re.escape(
        "carrier 0.5 Hz gives 0.5 cycles per bit; needs a positive integer"
    )):
        small_plan(frequencies=(0.5, 1.0))


@pytest.mark.parametrize("waveform", ["square", "sine"])
def test_nyquist_is_one_strict_rule_for_every_waveform(waveform):
    # sample_rate must exceed twice the top carrier: an 8 Hz carrier is
    # refused at 16 Hz sampling (bin 8 of F = 16) and kept at 17 Hz.
    mode = {"square": Mode.PASSIVE_FDMA_CDMA, "sine": Mode.ACTIVE_OVERLAPPED}[waveform]
    with pytest.raises(NyquistError, match=f"too low for 8.0 Hz {waveform} carrier"):
        small_plan(mode=mode, channels=1, f1=8.0, sample_rate=16.0)
    p = small_plan(mode=mode, channels=1, f1=8.0, sample_rate=17.0)
    assert p.samples_per_bit == 17 and p.carrier_bins.tolist() == [8]


def test_square_harmonic_folded_past_nyquist_onto_a_carrier_is_refused():
    # At F = 20 the 5th harmonic of bin 3 (bin 15) folds back onto bin 5.
    grid = PixelGrid(4, 4)
    with pytest.raises(TimingError, match="bin 3 puts 0.22 of its own-bin magnitude on carrier bin 5"):
        small_plan(grid=grid, frequencies=(3.0, 5.0), sample_rate=20.0)
    # Bin 3's harmonics miss the even bins, so bin 4 passes. Forced onto bin 5
    # past build_plan, a noiseless decode is far off.
    p = small_plan(grid=grid, frequencies=(3.0, 4.0), sample_rate=20.0)
    freq = dataclasses.replace(p.frequencies, frequencies=(3.0, 5.0))
    broken = dataclasses.replace(p, frequencies=freq)
    truth = np.random.default_rng(2).uniform(0.1, 1.0, (4, 4))
    image = decode.decode_frame(sensor.synthesize(broken, sc.Scene(grid, truth)), broken)
    assert np.max(np.abs(image.raw - truth) / truth) > 0.1  # 17.6 % on one pixel


def hop_rows_are_permutations(plan):
    """Whether every bit's hop row sends the P slots to the P carriers, one each."""
    carriers = list(range(plan.channel_count))
    return all(sorted(row) == carriers for row in plan.hop_schedule.tolist())


def test_validate_checks_the_hop_rows_of_a_hopping_plan():
    p = small_plan(hopping=True, key_seed=11)
    assert hop_rows_are_permutations(p)
    hops = p.hop_schedule.copy()
    hops[5] = hops[5, 0]  # bit 6 sends every slot to one carrier
    assert not hop_rows_are_permutations(dataclasses.replace(p, hop_schedule=hops))


def test_unhopped_schedule_is_a_read_only_identity_without_memory():
    p = small_plan()
    assert p.hop_schedule.shape == (p.code_length, p.channel_count)
    assert np.array_equal(p.hop_schedule, np.tile(np.arange(p.channel_count), (p.code_length, 1)))
    assert p.hop_schedule.strides == (0, 8) and not p.hop_schedule.flags.writeable
    assert not small_plan(hopping=True, key_seed=1).hop_schedule.flags.writeable


def test_carrier_refusals_spare_plans_that_decode_exactly():
    # test_cli.py refuses plan files that break the carrier rules. The active
    # mode's sines have no harmonics, so bins 1 and 3 that square carriers
    # could not share pass, and plain-cdma keeps its one static carrier.
    sines = small_plan(mode=Mode.ACTIVE_OVERLAPPED, frequencies=(1.0, 3.0), sample_rate=16.0)
    static = small_plan(mode=Mode.PLAIN_CDMA)
    truth = np.random.default_rng(3).uniform(0.1, 1.0, (2, 4, 4))
    cases = ((sines, sc.Scene(sines.grid, per_source=truth), truth),
             (static, sc.Scene(static.grid, truth[0]), truth[:1]))
    for p, scene, maps in cases:
        images = decode.image_list(decode.decode_frame(sensor.synthesize(p, scene), p))
        assert len(images) == len(maps)
        for image, want in zip(images, maps):
            assert np.max(np.abs(image.raw - want) / want) < 1e-9


@pytest.mark.parametrize(
    "inputs, message",
    [
        (dict(channels=4, frequencies=(2.0, 4.0, 8.0)), "channels = 4 but the carriers are"),
        (dict(f1=5.0, frequencies=(2.0, 4.0)), "f1 = 5.0 would be ignored next to frequencies"),
        (dict(mode=Mode.ACTIVE_OVERLAPPED, channels=2, frequencies=(3.0, 5.0, 7.0)),
         "channels = 2 but the carriers are"),
        (dict(mode=Mode.PLAIN_CDMA, channels=4, f1=2.0), "f1 = 2.0 would be ignored next to"),
        (dict(mode=Mode.PLAIN_CDMA, channels=4), "channels = 4 but the carriers are [0.0]"),
        (dict(mode=Mode.PLAIN_CDMA, frequencies=(2.0,)),
         "plain-cdma rides one static carrier, got frequencies [2.0]"),
        (dict(channels=0), "channels must be >= 1, got 0"),
        # A keyed layer with nothing to permute.
        (dict(mode=Mode.FM_CDMA, channels=1, hopping=True),
         "hopping = True needs two or more carriers, fm-cdma has 1"),
        (dict(mode=Mode.FM_TDMA, channels=1, hopping=True),
         "hopping = True needs two or more carriers, fm-tdma has 1"),
        (dict(mode=Mode.PLAIN_CDMA, hopping=True),
         "hopping = True needs two or more carriers, plain-cdma has 1"),
        (dict(channels=1, hopping=True, key_seed=7),
         "hopping = True needs two or more carriers, passive-fdma-cdma has 1"),
        (dict(mode=Mode.ACTIVE_OVERLAPPED, frequencies=(3.0,), hopping=True),
         "hopping = True needs two or more carriers, active-overlapped has 1"),
        # A frame_index keys the code shuffle, which only a nonzero key_seed
        # switches on, and only over two or more code sets outside fm-tdma.
        (dict(mode=Mode.FM_TDMA, channels=1, key_seed=7, frame_index=1),
         "frame_index = 1 keys only the code shuffle, and this plan has none"),
        (dict(frame_index=1), "frame_index = 1 keys only the code shuffle"),
        (dict(mode=Mode.FM_TDMA, channels=1, key_seed=7, frame_index=3),
         "frame_index = 3 keys only the code shuffle"),
        (dict(grid=PixelGrid(2, 1), key_seed=7, frame_index=3),
         "frame_index = 3 keys only the code shuffle, and this plan has none"
         " (key_seed 0, fm-tdma or a single code set)"),
    ],
    ids=["channels-and-frequencies", "f1-and-frequencies", "active-channels", "plain-ladder",
         "plain-channels", "plain-frequencies", "zero-channels", "fm-cdma-hopping",
         "fm-tdma-hopping", "plain-cdma-hopping", "passive-one-carrier-hopping",
         "active-one-carrier-hopping", "fm-tdma-reallocated", "frame-index-unkeyed",
         "fm-tdma-frame-index", "one-set-frame-index"],
)
def test_build_plan_refuses_inputs_it_would_ignore(inputs, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        small_plan(**inputs)


@pytest.mark.parametrize("f1, channels", [(2.0, 1024), (4.0, 1100), (1e-300, 2048)])
def test_octave_ladder_past_the_largest_float_is_a_config_error(f1, channels):
    with pytest.raises(ConfigError, match=f"octave ladder of channels = {channels} from f1 = {f1}"):
        small_plan(f1=f1, channels=channels)
    # 1.0 * 2**1023 is a float: that ladder is built, and refused for its timing.
    with pytest.raises(NyquistError, match="8.98846567431158e[+]307 Hz"):
        small_plan(f1=1.0, channels=1024)


@pytest.mark.parametrize("channels", [2, 1026])
@pytest.mark.parametrize("f1", [0.0, -1.0, math.nan, math.inf])
def test_f1_off_the_positive_finite_floats_is_a_config_error(f1, channels):
    # Refused by name before the ladder is built. Unchecked, f1 = 0 with 1026
    # channels read as an overflowing ladder, and f1 <= 0 with 2 channels
    # built a ladder that only the timing check refused.
    with pytest.raises(ConfigError, match=re.escape(f"f1 must be finite and > 0, got {f1}")):
        small_plan(f1=f1, channels=channels)


def test_keyed_shuffles_default_off_where_they_permute_nothing():
    # Four pixels in one code set: the key moves the pixels, and no code.
    one_set = small_plan(grid=PixelGrid(4, 1), key_seed=7)
    assert one_set.set_count == 1 and one_set.code_row.tolist() == [0]
    assert one_set.member_index.tolist() == [0, 2, 1, 3]  # the unkeyed layout is [0, 1, 2, 3]
    with pytest.raises(ConfigError, match="frame_index = 3 keys only the code shuffle"):
        planmod.reallocate(one_set, 3)
    one_pixel = small_plan(mode=Mode.FM_CDMA, channels=1, grid=PixelGrid(1, 1), key_seed=7)
    with pytest.raises(ConfigError, match="frame_index = 1 keys only the code shuffle"):
        planmod.reallocate(one_pixel, 1)


def test_fm_tdma_has_no_code_shuffle_to_reallocate():
    p = small_plan(mode=Mode.FM_TDMA, channels=1, key_seed=7)
    assert p.code_row.tolist() == list(range(p.set_count))
    with pytest.raises(ConfigError, match="frame_index = 3 keys only the code shuffle"):
        planmod.reallocate(p, 3)


def test_unkeyed_plan_has_no_code_shuffle_to_reallocate():
    # A key_seed 0 plan keeps pixel rank r at divmod(r, P) and set j on code j,
    # and no frame re-keys its codes.
    p = small_plan(key_seed=0)
    assert p.set_index.tolist() == [r // 4 for r in range(16)]
    assert p.member_index.tolist() == [r % 4 for r in range(16)]
    assert p.code_row.tolist() == [0, 1, 2, 3]
    with pytest.raises(ConfigError, match="frame_index = 1 keys only the code shuffle"):
        planmod.reallocate(p, 1)


def has_rank_order_layout(plan):
    """Whether the sorted (set, slot) pairs are rank r at divmod(r, slots) for every pixel rank.

    A set has one slot per carrier, or one where a pixel owns its set
    (active-overlapped, fm-tdma): every slot of a set is used once, and a
    partial last set keeps its lowest slots.
    """
    slots = 1 if plan.mode in (Mode.ACTIVE_OVERLAPPED, Mode.FM_TDMA) else plan.channel_count
    want = [divmod(rank, slots) for rank in range(plan.grid.pixel_count)]
    pairs = sorted(zip(plan.set_index.tolist(), plan.member_index.tolist()))
    return pairs == want and plan.set_count == want[-1][0] + 1


def _share_a_slot(p):
    """The second pixel moved onto the first pixel's (set, slot)."""
    sets, slots = p.set_index.copy(), p.member_index.copy()
    sets[1], slots[1] = sets[0], slots[0]
    return dataclasses.replace(p, set_index=sets, member_index=slots)


def _slot_past_the_set(p):
    """The first pixel moved to slot P of its set, past the last carrier."""
    slots = p.member_index.copy()
    slots[0] = p.channel_count
    return dataclasses.replace(p, member_index=slots)


def _one_set_more(p):
    return dataclasses.replace(p, set_count=p.set_count + 1)


@pytest.mark.parametrize(
    "breaks", [_share_a_slot, _slot_past_the_set, _one_set_more],
    ids=["shared-slot", "slot-past-the-set", "one-set-more"],
)
@pytest.mark.parametrize(
    "carriers",
    [
        dict(channels=4, f1=4.0, key_seed=3),
        dict(grid=PixelGrid(5, 1), channels=2, f1=2.0, sample_rate=16.0),  # a partial last set
        dict(mode=Mode.ACTIVE_OVERLAPPED, frequencies=(3.0, 5.0), key_seed=3),
        dict(mode=Mode.FM_TDMA, channels=1, f1=4.0),
        dict(mode=Mode.PLAIN_CDMA, key_seed=3),
    ],
    ids=["passive", "partial-set", "active", "fm-tdma", "plain"],
)
def test_slot_layout_row_checks_every_mode(carriers, breaks):
    # The layout check that random plans are held to rejects each broken layout.
    p = small_plan(**carriers)
    assert has_rank_order_layout(p)
    assert not has_rank_order_layout(breaks(p))


def test_frame_time_law_on_power_of_two_grid():
    grid = PixelGrid(254, 8)
    frames = {}
    for channels in (1, 2, 4, 8):
        p = build_plan(
            grid, channels=channels, f1=2.0 ** (9 - channels), bit_rate=1.0, sample_rate=8192.0
        )
        frames[channels] = p.frame_time * channels
    assert frames[1] == frames[2] == frames[4] == frames[8] == 2048.0


def test_plan_determinism_and_key_sensitivity():
    a = small_plan(grid=PixelGrid(16, 16), key_seed=42)
    b = small_plan(grid=PixelGrid(16, 16), key_seed=42)
    assert np.array_equal(a.set_index, b.set_index)
    assert np.array_equal(a.member_index, b.member_index)

    rng = np.random.default_rng(0)
    differing = 0
    for _ in range(100):
        s1, s2 = rng.integers(1, 2**63, size=2)
        p1 = small_plan(grid=PixelGrid(16, 16), key_seed=int(s1))
        p2 = small_plan(grid=PixelGrid(16, 16), key_seed=int(s2))
        same = np.array_equal(p1.set_index, p2.set_index) and np.array_equal(
            p1.member_index, p2.member_index
        )
        differing += 0 if same else 1
    assert differing >= 99


def test_partial_last_set_uses_lowest_channels():
    p = build_plan(
        PixelGrid(5, 1), channels=2, f1=2.0, bit_rate=1.0, sample_rate=16.0
    )
    last = p.member_index[p.set_index == p.set_count - 1]
    assert sorted(last.tolist()) == [0]


def test_plan_file_roundtrip_byte_identical(tmp_path):
    p = small_plan(grid=PixelGrid(8, 8), key_seed=99, hopping=True)
    path1 = tmp_path / "a.json"
    path2 = tmp_path / "b.json"
    planmod.save_plan(p, path1)
    loaded = planmod.load_plan(path1)
    planmod.save_plan(loaded, path2)
    assert path1.read_bytes() == path2.read_bytes()
    assert np.array_equal(loaded.set_index, p.set_index)
    assert np.array_equal(loaded.member_index, p.member_index)
    assert np.array_equal(loaded.hop_schedule, p.hop_schedule)


@st.composite
def plan_keywords(draw):
    """build_plan's arguments for a random valid plan over every mode, grid and key included.

    frame_index is above 0 only where the plan has a code shuffle to re-key.
    """
    mode = draw(st.sampled_from(list(Mode)))
    channels = draw(st.integers(1, 4))
    carriers = channels if mode in (Mode.PASSIVE_FDMA_CDMA, Mode.ACTIVE_OVERLAPPED) else 1
    slots = carriers if mode is Mode.PASSIVE_FDMA_CDMA else 1
    if draw(st.booleans()):
        # A set count whose shortest code has a Paley-seeded order: 9-11 sets
        # give W = 12, 17-19 give 20, 33-39 give 40 and 81-95 give 96.
        low, high = draw(st.sampled_from(((9, 11), (17, 19), (33, 39), (81, 95))))
        sets = draw(st.integers(low, high))
        q = draw(st.integers(slots * (sets - 1) + 1, slots * sets))
        rows = draw(st.sampled_from([r for r in range(1, 9) if q % r == 0]))
        grid = PixelGrid(q // rows, rows)
    else:
        columns, rows = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        cells = st.tuples(st.integers(1, columns), st.integers(1, rows))
        active = draw(st.none() | st.lists(cells, min_size=1, unique=True).map(tuple))
        grid = PixelGrid(columns, rows, active)
    # Sine carriers on bins 3g, 5g, 7g and 9g of F = 64g, so a bit spans g = gcd(F, bins) periods.
    g = draw(st.integers(1, 8)) if mode is Mode.ACTIVE_OVERLAPPED else 1
    timing = {
        Mode.PASSIVE_FDMA_CDMA: dict(channels=channels, f1=2.0, sample_rate=128.0),
        Mode.FM_CDMA: dict(f1=4.0, sample_rate=64.0),
        Mode.FM_TDMA: dict(f1=4.0, sample_rate=64.0),
        Mode.PLAIN_CDMA: dict(sample_rate=64.0),
        Mode.ACTIVE_OVERLAPPED: dict(
            frequencies=tuple(g * k for k in (3.0, 5.0, 7.0, 9.0)[:channels]), sample_rate=64.0 * g
        ),
    }[mode]
    # Only keyed layers with something to permute: hopping over two or more
    # carriers, and a frame index (so reallocate) where a key shuffles two or
    # more code sets outside fm-tdma.
    key_seed = draw(st.integers(0, 2**63 - 1))
    sets = -(-grid.pixel_count // slots)
    code_shuffle = key_seed != 0 and mode is not Mode.FM_TDMA and sets > 1
    return dict(
        grid=grid,
        mode=mode,
        bit_rate=1.0,
        key_seed=key_seed,
        hopping=carriers > 1 and draw(st.booleans()),
        frame_index=draw(st.integers(0, 5)) if code_shuffle else 0,
        **timing,
    )


@st.composite
def random_plans(draw):
    """A random valid plan over every mode, some re-keyed for a later frame by reallocate."""
    keywords = draw(plan_keywords())
    frame_index = keywords.pop("frame_index")
    plan = build_plan(**keywords)
    return planmod.reallocate(plan, frame_index) if frame_index else plan


def assert_same_plan(got, want):
    """Every CodingPlan field equal, arrays in dtype and values, the code book in its codes."""
    for field in dataclasses.fields(planmod.CodingPlan):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b), field.name
        if field.name == "codebook" and b is not None:
            assert a.length == b.length
            a, b = a.codes, b.codes
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


@settings(max_examples=200, deadline=None)
@given(random_plans())
def test_plan_file_roundtrip_is_exact(plan):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")
        planmod.save_plan(plan, first)
        loaded = planmod.load_plan(first)
        assert_same_plan(loaded, plan)
        planmod.save_plan(loaded, second)
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()


def test_plan_keywords_parse_every_build_plan_argument():
    # One table, in build_plan's order, for plan files and experiment configs alike.
    assert list(planmod.PLAN_KEYWORDS) == list(inspect.signature(build_plan).parameters)


def plan_object(keywords):
    """The JSON plan object of build_plan arguments: the grid as a plan file writes
    it and the mode by its value."""
    grid = keywords["grid"]
    doc = {"columns": grid.columns, "rows": grid.rows}
    if grid.active_pixels is not None:
        doc["active_pixels"] = [list(cell) for cell in grid.active_pixels]
    return json.loads(json.dumps({**keywords, "grid": doc, "mode": Mode(keywords["mode"]).value}))


@settings(max_examples=100, deadline=None)
@given(plan_keywords())
def test_config_plan_object_builds_the_plan_of_its_keywords(keywords):
    # Every build_plan argument but key_seed, the run's own, sits in the plan object.
    key_seed = keywords.pop("key_seed")
    doc = {
        "format": "caossim-experiment", "version": 2, "name": "random", "key_seed": key_seed,
        "plan": plan_object(keywords), "scene": {"preset": "uniform"},
    }
    config = presets.ExperimentConfig.from_json(json.dumps(doc))
    assert set(config.plan) == set(doc["plan"])  # kept as given, defaults left out
    want = planmod.plan_to_dict(build_plan(**keywords, key_seed=key_seed))
    assert planmod.plan_to_dict(config.build_plan()) == want
    assert presets.ExperimentConfig.from_json(config.to_json()) == config


@pytest.mark.parametrize("bit_rate", [49.0, 93.0, 1999.0, 31.25])
def test_plan_keeps_the_bit_rate_it_was_given(tmp_path, bit_rate):
    # 1 / (1 / r) is not r for the three integer rates here.
    plan = build_plan(
        PixelGrid(3, 2), channels=2, f1=2 * bit_rate, bit_rate=bit_rate,
        sample_rate=64 * bit_rate, key_seed=7,
    )
    path = tmp_path / "plan.json"
    planmod.save_plan(plan, path)
    assert json.loads(path.read_text())["bit_rate"] == bit_rate
    loaded = planmod.load_plan(path)
    for got in (plan, loaded, planmod.rebuild(loaded), planmod.reallocate(loaded, 2)):
        assert got.bit_rate == bit_rate
        assert got.frequencies.bit_duration == 1.0 / bit_rate


@settings(max_examples=200, deadline=None)
@given(random_plans(), st.integers(0, 2**32 - 1))
def test_estimates_invert_the_forward_map(plan, seed):
    # (Q,) values, or (Q, P) per-source values in the active overlapped mode.
    shape = (plan.grid.pixel_count,)
    if plan.mode is Mode.ACTIVE_OVERLAPPED:
        shape += (plan.channel_count,)
    x = np.random.default_rng(seed).uniform(0.01, 1.0, shape)
    got = plan.estimates(plan.hop(plan.on_sums(x)))
    assert got.shape == x.shape
    assert np.max(np.abs(got - x)) <= 1e-12 * np.max(np.abs(x))


@settings(max_examples=200, deadline=None)
@given(random_plans())
def test_every_plan_has_the_rank_order_layout_and_permuted_hop_rows(plan):
    assert has_rank_order_layout(plan)
    assert hop_rows_are_permutations(plan)


@settings(max_examples=100, deadline=None)
@given(random_plans())
def test_every_code_is_on_in_bit_0(plan):
    # Column 0 of H is all +1, so a complement-coded PD2 is dark in bit 0,
    # which the decoder reads as 0.
    if plan.mode is not Mode.FM_TDMA:
        assert all(plan.code_bits(j)[0] == 1 for j in range(plan.set_count))


@settings(max_examples=30, deadline=None)
@given(random_plans(), st.integers(0, 2**32 - 1))
def test_coding_element_agrees_with_the_codec(plan, seed):
    # Each pixel's value, added onto the carrier coding_element names for each
    # bit (in the active overlapped mode, each source's value onto its slot's
    # carrier), gives the codec's carrier sums. Integer values keep them exact.
    shape = (plan.grid.pixel_count,)
    if plan.mode is Mode.ACTIVE_OVERLAPPED:
        shape += (plan.channel_count,)
    values = np.random.default_rng(seed).integers(1, 1000, shape).astype(np.float64)
    got = np.zeros((plan.code_length, plan.channel_count))
    for pixel, value in zip(plan.grid.positions(), values):
        for w in range(1, plan.code_length + 1):
            code_bit, channel = coding_element(plan, pixel, w)
            assert (channel is None) == (code_bit == 0)
            if code_bit:
                got[w - 1, np.subtract(channel, 1)] += value
    assert np.array_equal(got, plan.hop(plan.on_sums(values)))


def test_image_and_pixel_values_are_inverse_on_the_active_pixels():
    p = small_plan(grid=PixelGrid(4, 3, ((2, 1), (4, 3), (1, 2))))
    image = p.image(np.array([5.0, 6.0, 7.0]))
    assert image[0, 1] == 5.0 and image[2, 3] == 6.0 and image[1, 0] == 7.0
    assert np.count_nonzero(image) == 3
    assert p.pixel_values(image).tolist() == [5.0, 6.0, 7.0]


@settings(max_examples=50, deadline=None)
@given(random_plans(), st.data())
def test_code_bits_equal_the_code_matrix_rows(plan, data):
    set_idx = data.draw(st.integers(0, plan.set_count - 1))
    if plan.codebook is None:  # FM-TDMA: set i owns slot i
        want = np.eye(plan.code_length, dtype=np.uint8)[set_idx]
    else:
        want = plan.codebook.codes[plan.code_row[set_idx]]
    got = plan.code_bits(set_idx)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_plan_file_rejects_unknown_fields(tmp_path):
    p = small_plan()
    data = planmod.plan_to_dict(p)
    data["surprise"] = 1
    with pytest.raises(ConfigError):
        planmod.plan_from_dict(data)


def test_reallocate_changes_codes_only():
    p = small_plan(grid=PixelGrid(8, 8), key_seed=5)
    nxt = planmod.reallocate(p, frame_index=1)
    assert np.array_equal(nxt.set_index, p.set_index)
    assert np.array_equal(nxt.member_index, p.member_index)
    assert not np.array_equal(nxt.code_row, p.code_row)


def test_coding_element_active_mode_lists_all_channels():
    p = build_plan(
        PixelGrid(2, 2),
        mode=Mode.ACTIVE_OVERLAPPED,
        frequencies=(3.0, 5.0, 7.0),
        bit_rate=1.0,
        sample_rate=64.0,
    )
    bits = p.code_bits(0)
    w_on = int(np.argmax(bits == 1)) + 1
    bit, channels = coding_element(p, (1, 1), w_on)
    assert bit == 1
    assert channels == (1, 2, 3)


def test_coding_element_slot_mode():
    p = build_plan(
        PixelGrid(3, 1), mode=Mode.FM_TDMA, f1=4.0, bit_rate=1.0, sample_rate=64.0
    )
    assert coding_element(p, (2, 1), 2) == (1, 1)  # its own slot, single carrier
    assert coding_element(p, (2, 1), 1) == (0, None)  # parked during others


def test_assignment_csv(tmp_path):
    p = small_plan(grid=PixelGrid(4, 2))
    path = tmp_path / "assignment.csv"
    planmod.write_assignment_csv(p, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "m,n,set_index,member_index,code_row"
    assert len(lines) == 1 + 8


def test_coding_element_on_a_large_grid_builds_no_code_matrix():
    p = large_grid_plan()
    assert p.code_length == 20480
    positions = p.grid.positions()
    for pixel, bit in (((1, 1), 1), ((256, 256), 20480), ((17, 200), 777), ((200, 17), 20001)):
        idx = positions.index(pixel)
        want = int(p.code_bits(int(p.set_index[idx]))[bit - 1])
        code_bit, channel = coding_element(p, pixel, bit)
        assert code_bit == want
        carrier = int(p.hop_schedule[bit - 1, p.member_index[idx]]) + 1
        assert channel == (carrier if want else None)
    with pytest.raises(ValueError, match="not in the plan grid"):
        coding_element(p, (257, 1), 1)
    assert "codes" not in p.codebook.__dict__


def test_coding_element_on_an_active_pixel_list():
    active = ((3, 1), (1, 2), (2, 2))
    p = small_plan(grid=PixelGrid(3, 2, active_pixels=active), key_seed=4)
    for idx, pixel in enumerate(active):
        for bit in range(1, p.code_length + 1):
            want = int(p.code_bits(int(p.set_index[idx]))[bit - 1])
            code_bit, channel = coding_element(p, pixel, bit)
            assert code_bit == want
            assert (channel is None) == (want == 0)
    with pytest.raises(ValueError, match="not in the plan grid"):
        coding_element(p, (1, 1), 1)


#: The carrier and pixel constants a plan builds once, on first read.
PLAN_CONSTANTS = (
    "pixel_index", "period_carriers", "carrier_matrix", "carrier_bins", "period_basis",
    "carrier_bin_gains",
)

CONSTANT_PLANS = {
    "square": lambda: small_plan(key_seed=3, hopping=True),
    "sine": lambda: small_plan(mode=Mode.ACTIVE_OVERLAPPED, frequencies=(3.0, 5.0), key_seed=3),
    "none": lambda: small_plan(mode=Mode.PLAIN_CDMA, key_seed=3),
    "active-pixels": lambda: small_plan(
        grid=PixelGrid(4, 3, ((2, 1), (4, 3), (1, 2))), channels=2, key_seed=3
    ),
}


@pytest.mark.parametrize("kind", CONSTANT_PLANS)
@pytest.mark.parametrize("name", PLAN_CONSTANTS)
def test_plan_constants_are_built_once_and_read_only(kind, name):
    plan = CONSTANT_PLANS[kind]()
    value = getattr(plan, name)
    assert getattr(plan, name) is value
    assert not value.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        value[...] = 0
    for other in (
        planmod.reallocate(plan, 1),
        planmod.rebuild(plan),
        dataclasses.replace(plan),
    ):
        rebuilt = getattr(other, name)
        assert rebuilt is not value
        assert rebuilt.dtype == value.dtype and np.array_equal(rebuilt, value)


def assert_period_carriers_give_the_whole_bit_bitwise(plan):
    # One carrier period tiled is the whole-bit build, and its fold is the
    # whole bit's (p, g, L) fold, byte for byte.
    f_count, period = plan.samples_per_bit, plan.carrier_period
    rows = (plan.carrier_bins, f_count, plan.mode.waveform, plan.carrier_phases)
    whole = planmod._carrier_rows(*rows, f_count)
    assert plan.period_carriers.tobytes() == planmod._carrier_rows(*rows, period).tobytes()
    assert plan.carrier_matrix.shape == whole.shape
    assert plan.carrier_matrix.tobytes() == whole.tobytes()
    parts = whole.reshape(plan.channel_count, -1, period).sum(axis=1) @ plan.period_basis
    p = plan.channel_count
    gains = np.hypot(np.diagonal(parts[:, :p]), np.diagonal(parts[:, p:]))
    assert plan.carrier_bin_gains.tobytes() == gains.tobytes()


@settings(max_examples=200, deadline=None)
@given(random_plans())
def test_period_carriers_tile_and_fold_as_the_whole_bit_bitwise(plan):
    assert_period_carriers_give_the_whole_bit_bitwise(plan)


@pytest.mark.parametrize("full_scale", [False, True])
@pytest.mark.parametrize("name", presets.PRESET_NAMES)
def test_preset_period_carriers_tile_and_fold_as_the_whole_bit_bitwise(name, full_scale):
    # The presets' sine carriers span g = 2 (desk) and 32 (full scale) periods a bit.
    assert_period_carriers_give_the_whole_bit_bitwise(
        presets.preset_config(name, full_scale=full_scale).build_plan()
    )


def test_pixel_index_lists_positions_as_zero_based_rows_and_columns():
    for plan in (small_plan(grid=PixelGrid(5, 3)), CONSTANT_PLANS["active-pixels"]()):
        want = [(n - 1, m - 1) for m, n in plan.grid.positions()]
        assert plan.pixel_index.dtype == np.int64
        assert plan.pixel_index.tolist() == [list(p) for p in want]


@pytest.mark.parametrize("kind", CONSTANT_PLANS)
def test_plan_constants_are_released_with_their_plan(kind):
    # A cache outside the plan (say, an lru_cache keyed by it) would keep it alive.
    plan = CONSTANT_PLANS[kind]()
    grid = plan.grid
    if plan.mode is Mode.ACTIVE_OVERLAPPED:
        maps = np.ones((plan.channel_count, grid.rows, grid.columns))
        scene = sc.Scene(grid=grid, per_source=maps)
    else:
        scene = sc.Scene(grid=grid, irradiance=np.ones((grid.rows, grid.columns)))
    decode.decode_frame(sensor.capture_dual(plan, scene), plan)
    for name in PLAN_CONSTANTS:
        getattr(plan, name)
    ref = weakref.ref(plan)
    del plan
    gc.collect()
    assert ref() is None
