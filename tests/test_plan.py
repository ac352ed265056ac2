import dataclasses
import gc
import os
import re
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caossim import codes, decode, plan as planmod, scene as sc, sensor
from caossim.errors import ConfigError, NyquistError, TimingError
from caossim.plan import Mode, PixelGrid, build_plan, coding_element


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
    assert p.frequencies.waveform == "sine"
    assert [round(k) for k in p.frequencies.cycles_per_bit()] == [800, 928, 1120]


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


def test_validate_passes_and_reports_speedup():
    grid = PixelGrid(44, 29)
    p = build_plan(grid, channels=4, f1=128.0, bit_rate=1.0, sample_rate=65536.0)
    report = planmod.validate_plan(p)
    assert report.passed, report.failures()
    assert report.speedup_vs_single_channel == pytest.approx(4.0)


def test_validate_worked_example_speedup_eight():
    grid = PixelGrid(254, 8)  # 2032 pixels
    p = build_plan(grid, channels=8, f1=16.0, bit_rate=1.0, sample_rate=8192.0)
    assert p.code_length == 256
    report = planmod.validate_plan(p)
    assert report.speedup_vs_single_channel == pytest.approx(8.0)


def test_validate_flags_fractional_cycles():
    p = small_plan()
    broken = planmod.replace(p, frequencies=planmod.replace(p.frequencies, frequencies=(0.5, 1.0)))
    report = planmod.validate_plan(broken)
    assert not report.passed
    assert "carrier-cycles-integer" in report.failures()


@pytest.mark.parametrize("waveform", ["square", "sine"])
def test_nyquist_is_one_strict_rule_for_every_waveform(waveform):
    # sample_rate must exceed twice the top carrier: an 8 Hz carrier is
    # refused at 16 Hz sampling (bin 8 of F = 16) and kept at 17 Hz, and
    # validate_plan agrees with build_plan.
    with pytest.raises(NyquistError, match=f"too low for 8.0 Hz {waveform} carrier"):
        small_plan(channels=1, f1=8.0, sample_rate=16.0, waveform=waveform)
    p = small_plan(channels=1, f1=8.0, sample_rate=17.0, waveform=waveform)
    assert planmod.validate_plan(p).passed
    assert planmod.validate_plan(planmod.replace(p, sample_rate=16.0)).failures() == ["nyquist"]


def test_square_harmonic_folded_past_nyquist_onto_a_carrier_is_refused():
    # At F = 20 the 5th harmonic of bin 3 (bin 15) folds back onto bin 5.
    grid = PixelGrid(4, 4)
    with pytest.raises(TimingError, match="bin 3 puts 0.22 of its own-bin magnitude on carrier bin 5"):
        small_plan(grid=grid, frequencies=(3.0, 5.0), sample_rate=20.0)
    # Bin 3's harmonics miss the even bins, so bin 4 passes. Forced onto bin 5,
    # validate_plan fails that one row and a noiseless decode is far off.
    p = small_plan(grid=grid, frequencies=(3.0, 4.0), sample_rate=20.0)
    assert planmod.validate_plan(p).passed
    broken = planmod.replace(p, frequencies=planmod.replace(p.frequencies, frequencies=(3.0, 5.0)))
    assert planmod.validate_plan(broken).failures() == ["odd-harmonics-clear"]
    truth = np.random.default_rng(2).uniform(0.1, 1.0, (4, 4))
    image = decode.decode_frame(sensor.synthesize(broken, sc.Scene(grid, truth)), broken)
    assert np.max(np.abs(image.raw - truth) / truth) > 0.1  # 17.6 % on one pixel


def test_validate_checks_the_hop_rows_of_a_hopping_plan():
    p = small_plan(hopping=True, key_seed=11)
    report = planmod.validate_plan(p)
    assert report.passed, report.failures()
    assert "hop-rows-are-permutations" in [name for name, _, _ in report.entries]
    hops = p.hop_schedule.copy()
    hops[5] = hops[5, 0]  # bit 6 sends every slot to one carrier
    report = planmod.validate_plan(dataclasses.replace(p, hop_schedule=hops))
    assert report.failures() == ["hop-rows-are-permutations"]
    unhopped = planmod.validate_plan(small_plan())
    assert "hop-rows-are-permutations" not in [name for name, _, _ in unhopped.entries]


def test_unhopped_schedule_is_a_read_only_identity_without_memory():
    p = small_plan()
    assert p.hop_schedule.shape == (p.code_length, p.channel_count)
    assert np.array_equal(p.hop_schedule, np.tile(np.arange(p.channel_count), (p.code_length, 1)))
    assert p.hop_schedule.strides == (0, 8) and not p.hop_schedule.flags.writeable
    assert not small_plan(hopping=True, key_seed=1).hop_schedule.flags.writeable


def test_carrier_refusals_spare_plans_that_decode_exactly():
    # test_cli.py refuses plan files that break the carrier rules. Sines have
    # no harmonics, and plain-cdma keeps its one static carrier.
    sines = small_plan(frequencies=(1.0, 3.0), sample_rate=16.0, waveform="sine")
    assert planmod.validate_plan(sines).passed
    static = small_plan(mode=Mode.PLAIN_CDMA, waveform="none")
    assert static.frequencies.waveform == "none" and planmod.validate_plan(static).passed


@pytest.mark.parametrize(
    "inputs, message",
    [
        (dict(channels=4, frequencies=(2.0, 4.0, 8.0)), "channels = 4 but the carriers are"),
        (dict(f1=5.0, frequencies=(2.0, 4.0)), "f1 = 5.0 would be ignored next to frequencies"),
        (dict(mode=Mode.ACTIVE_OVERLAPPED, channels=2, frequencies=(3.0, 5.0, 7.0)),
         "channels = 2 but the carriers are"),
        (dict(mode=Mode.PLAIN_CDMA, channels=4, f1=2.0), "f1 = 2.0 would be ignored next to"),
        (dict(mode=Mode.PLAIN_CDMA, channels=4), "channels = 4 but the carriers are [0.0]"),
        (dict(mode=Mode.PLAIN_CDMA, waveform="sine"), "waveform must be 'none' in plain-cdma"),
        (dict(mode=Mode.PLAIN_CDMA, waveform="square"), "waveform must be 'none' in plain-cdma"),
        (dict(mode=Mode.PLAIN_CDMA, frequencies=(2.0,)),
         "plain-cdma rides one static carrier, got frequencies [2.0]"),
        (dict(mode=Mode.FM_TDMA, channels=1, min_code_length=64),
         "fm-tdma has no codes, got min_code_length 64"),
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
        (dict(mode=Mode.FM_TDMA, channels=1, shuffle_codes=True),
         "shuffle_codes = True in fm-tdma, which has no codes to shuffle"),
        (dict(mode=Mode.FM_TDMA, channels=1, key_seed=7, shuffle_codes=True, frame_index=1),
         "shuffle_codes = True in fm-tdma"),
        (dict(key_seed=7, shuffle_codes=False, frame_index=2),
         "frame_index = 2 keys only the code shuffle, and shuffle_codes is off"),
        (dict(frame_index=1), "frame_index = 1 keys only the code shuffle"),
        (dict(mode=Mode.FM_TDMA, channels=1, key_seed=7, frame_index=3),
         "frame_index = 3 keys only the code shuffle"),
    ],
    ids=["channels-and-frequencies", "f1-and-frequencies", "active-channels", "plain-ladder",
         "plain-channels", "plain-sine", "plain-square", "plain-frequencies", "fm-tdma-code-length",
         "zero-channels", "fm-cdma-hopping", "fm-tdma-hopping", "plain-cdma-hopping",
         "passive-one-carrier-hopping", "active-one-carrier-hopping", "fm-tdma-shuffle-codes",
         "fm-tdma-reallocated", "frame-index-shuffle-off", "frame-index-unkeyed",
         "fm-tdma-frame-index"],
)
def test_build_plan_refuses_inputs_it_would_ignore(inputs, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        small_plan(**inputs)


def test_fm_tdma_has_no_code_shuffle_to_reallocate():
    p = small_plan(mode=Mode.FM_TDMA, channels=1, key_seed=7)
    assert p.shuffle_pixels and not p.shuffle_codes
    with pytest.raises(ConfigError, match="shuffle_codes = True in fm-tdma"):
        planmod.reallocate(p, 3)


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
    # One validate_plan row: the sorted (set, slot) pairs are the rank-order layout.
    p = small_plan(**carriers)
    report = planmod.validate_plan(p)
    assert report.passed, report.failures()
    rows = [name for name, _, _ in report.entries]
    assert rows.count("slot-layout") == 1 and "set-sizes" not in rows
    assert planmod.validate_plan(breaks(p)).failures() == ["slot-layout"]


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
def random_plans(draw):
    """A random valid plan over every mode, some re-keyed for a later frame by reallocate."""
    mode = draw(st.sampled_from(list(Mode)))
    columns, rows = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    cells = st.tuples(st.integers(1, columns), st.integers(1, rows))
    active = draw(st.none() | st.lists(cells, min_size=1, unique=True).map(tuple))
    grid = PixelGrid(columns, rows, active)
    channels = draw(st.integers(1, 4))
    timing = {
        Mode.PASSIVE_FDMA_CDMA: dict(channels=channels, f1=2.0, sample_rate=128.0),
        Mode.FM_CDMA: dict(f1=4.0, sample_rate=64.0),
        Mode.FM_TDMA: dict(f1=4.0, sample_rate=64.0),
        Mode.PLAIN_CDMA: dict(sample_rate=64.0),
        Mode.ACTIVE_OVERLAPPED: dict(frequencies=(3.0, 5.0, 7.0, 9.0)[:channels], sample_rate=64.0),
    }[mode]
    # Only keyed layers with something to permute: hopping over two or more
    # carriers, and no code shuffle (so no reallocate) in fm-tdma.
    tdma = mode is Mode.FM_TDMA
    carriers = channels if mode in (Mode.PASSIVE_FDMA_CDMA, Mode.ACTIVE_OVERLAPPED) else 1
    plan = build_plan(
        grid,
        mode=mode,
        bit_rate=1.0,
        key_seed=draw(st.integers(0, 2**63 - 1)),
        hopping=carriers > 1 and draw(st.booleans()),
        min_code_length=None if tdma else draw(
            st.sampled_from((None, 8, 12, 20, 32, 40, 64, 96))
        ),
        shuffle_pixels=draw(st.none() | st.booleans()),
        shuffle_codes=draw(st.sampled_from((None, False) if tdma else (None, False, True))),
        **timing,
    )
    frame_index = 0 if tdma else draw(st.integers(0, 5))
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
    report = planmod.validate_plan(p)
    assert report.passed, report.failures()


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


def test_code_identity_is_checked_above_512_sets(monkeypatch):
    p = build_plan(PixelGrid(30, 20), channels=1, f1=2.0, bit_rate=1.0, sample_rate=64.0)
    assert p.set_count == 600 and p.code_length == 640  # seed 20
    report = planmod.validate_plan(p)
    assert report.passed, report.failures()
    assert "code-correlation-identity" in [name for name, _, _ in report.entries]

    paley_seed = codes._paley_seed

    def one_sign_flipped(q):
        seed = paley_seed(q)
        seed[3, 5] *= -1
        return seed

    monkeypatch.setattr(codes, "_paley_seed", one_sign_flipped)
    report = planmod.validate_plan(p)
    assert report.failures() == ["code-correlation-identity"]
    detail = dict((name, detail) for name, _, detail in report.entries)["code-correlation-identity"]
    assert "seed FAIL" in detail and "Freivalds probes FAIL" in detail


#: The carrier and pixel constants a plan builds once, on first read.
PLAN_CONSTANTS = (
    "pixel_index", "carrier_matrix", "carrier_bins", "period_basis", "carrier_bin_gains"
)

CONSTANT_PLANS = {
    "square": lambda: small_plan(key_seed=3, hopping=True),
    "sine": lambda: small_plan(mode=Mode.ACTIVE_OVERLAPPED, frequencies=(3.0, 5.0), key_seed=3),
    "none": lambda: small_plan(mode=Mode.PLAIN_CDMA),
    "active-pixels": lambda: small_plan(grid=PixelGrid(4, 3, ((2, 1), (4, 3), (1, 2)))),
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
