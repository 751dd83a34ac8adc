"""CSV loading, chronological splits, windowing, synthetic generators,
and the binary checkpoint format."""

import csv
import dataclasses
import io
import json
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from dctnet.data_io import (SPLIT_PRESETS, SYNTH_KINDS, DataSettings,
                            NormStats, SeriesTable, SynthParams, atomic_write,
                            checkpoint_load, checkpoint_save, compute_stats,
                            load_csv, make_windows, run_record, run_settings,
                            save_csv, split_chronological, synth_series,
                            WindowedDataset)
from dctnet.errors import CheckpointError, ConfigError, DataError
from dctnet.fft import dft
from dctnet.model import ModelConfig, forward, init_params
from dctnet.spectral_correction import CorrectionConfig

from helpers import (BAD_METADATA, LACKS_STATS, MISTYPED_SHAPES, RECORD_KEY,
                     repeat_tensor, retyped_shape, rewrite_header,
                     tiny_configs)


class TestLoadCsv:
    def test_header_and_timestamp_detected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("date,hufl,mull\n"
                     "2016-07-01 00:00:00,5.827,2.009\n"
                     "2016-07-01 01:00:00,5.693,2.076\n")
        table = load_csv(p)
        assert table.channel_names == ["hufl", "mull"]
        np.testing.assert_allclose(table.values,
                                   [[5.827, 2.009], [5.693, 2.076]])

    def test_bare_numeric_file(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        table = load_csv(p)
        assert table.channel_names == ["ch0", "ch1"]
        assert table.rows == 2 and table.channels == 2

    @pytest.mark.parametrize("body, names", [
        ("1.0,2.0\n3.0,4.0\n", ["ch0", "ch1"]),
        ("a,b\n1.0,2.0\n3.0,4.0\n", ["a", "b"]),
    ], ids=["headerless", "header"])
    def test_byte_order_mark_is_not_a_cell(self, tmp_path, body, names):
        p = tmp_path / "bom.csv"
        p.write_bytes(b"\xef\xbb\xbf" + body.encode())
        table = load_csv(p)
        assert table.channel_names == names
        np.testing.assert_array_equal(table.values, [[1.0, 2.0], [3.0, 4.0]])

    def test_bad_cell_named_by_position(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,c\n1,2,3\n4,5,oops\n")
        with pytest.raises(DataError) as err:
            load_csv(p)
        assert "row 3" in str(err.value)
        assert "column 3" in str(err.value)

    def test_nan_cell_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("1,2\n3,nan\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(p)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("1,2,3\n4,5\n")
        with pytest.raises(DataError, match="ragged"):
            load_csv(p)

    def test_ragged_row_reported_before_bad_cell(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("a,b\n1,x\n2,3,4\n")
        with pytest.raises(DataError, match="ragged row 3: 3 cells"):
            load_csv(p)

    @pytest.mark.parametrize("body, message", [
        ("a,b\n\n\n1,2\n3,x\n", "'x' at row 5, column 2"),
        ("a,b\n\n1,2\n\n3\n", "ragged row 5: 1 cells"),
        ("1,2\n\n3,inf\n", "'inf' at row 3, column 2"),
        ('a,"b\nc"\n1,x\n', "'x' at row 3, column 2"),
    ], ids=["bad_cell", "ragged", "headerless", "quoted_newline"])
    def test_errors_name_file_line(self, tmp_path, body, message):
        p = tmp_path / "lines.csv"
        p.write_text(body)
        with pytest.raises(DataError, match=message):
            load_csv(p)

    def test_cell_is_what_float_accepts(self, tmp_path):
        p = tmp_path / "ws.csv"
        p.write_text("a,b\n 1.5 ,1_000\n-0.0,\t2e3\n")
        table = load_csv(p)
        np.testing.assert_array_equal(table.values, [[1.5, 1000.0],
                                                     [-0.0, 2000.0]])
        assert np.signbit(table.values[1, 0])

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "g.csv"
        p.write_text("")
        with pytest.raises(DataError):
            load_csv(p)

    @pytest.mark.parametrize("body", [
        b"d\xe9,b\n1,2\n3,4\n",
        b'a,b\n"' + b"1" * 131073 + b'",2\n',
    ], ids=["latin1_header", "field_over_csv_limit"])
    def test_unreadable_bytes_name_the_file(self, tmp_path, body):
        p = tmp_path / "bad.csv"
        p.write_bytes(body)
        with pytest.raises(DataError, match="bad.csv"):
            load_csv(p)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError, match="h.csv"):
            load_csv(tmp_path / "h.csv")

    def test_round_trip(self, tmp_path):
        table = synth_series("sine", 50, 3, seed=1)
        p = tmp_path / "rt.csv"
        save_csv(table, p)
        again = load_csv(p)
        np.testing.assert_array_equal(again.values, table.values)
        assert again.channel_names == table.channel_names


def _not_a_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


_NAMES = st.text(st.characters(blacklist_categories=("Cs", "Cc"))
                 | st.sampled_from(',"\n'), max_size=6).filter(
    lambda name: name == name.strip() and _not_a_number(name)
    and not name.startswith("\ufeff"))
_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7e308, -1.7e308, 1.7976931348623157e308]))


class TestCsvRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(values=arrays(np.float64, st.tuples(st.integers(1, 6),
                                               st.integers(1, 4)),
                         elements=_CELLS),
           data=st.data())
    def test_finite_table_round_trips_bitwise(self, tmp_path_factory, values,
                                              data):
        names = data.draw(st.lists(_NAMES, min_size=values.shape[1],
                                   max_size=values.shape[1]))
        p = tmp_path_factory.getbasetemp() / "rt.csv"
        save_csv(SeriesTable(values, names), p)
        reference = io.StringIO()
        writer = csv.writer(reference)
        writer.writerow(names)
        for row in values:
            writer.writerow([repr(float(v)) for v in row])
        assert p.read_bytes() == reference.getvalue().encode("utf-8")
        again = load_csv(p)
        assert again.values.tobytes() == values.tobytes()
        assert again.channel_names == names


_CSV_TEXT = st.text(alphabet='0123456789.,-+e\n\r" ;aE\xe9\x00', max_size=300)


class TestLoadCsvFuzz:
    @settings(max_examples=200)
    @given(body=st.one_of(
        st.binary(max_size=300),
        st.tuples(_CSV_TEXT, st.sampled_from(["utf-8", "latin-1"])).map(
            lambda te: te[0].encode(te[1]))))
    def test_arbitrary_bytes_raise_only_data_error(self, tmp_path_factory,
                                                   body):
        p = tmp_path_factory.getbasetemp() / "fuzz.csv"
        p.write_bytes(body)
        try:
            table = load_csv(p)
        except DataError:
            return
        assert table.rows >= 1 and table.channels >= 1
        assert np.all(np.isfinite(table.values))


class TestSplits:
    def test_even_hundred_622(self):
        table = SeriesTable(np.arange(100, dtype=float)[:, None], ["ch0"])
        tr, va, te = split_chronological(table, SPLIT_PRESETS["ett"])
        assert (tr.rows, va.rows, te.rows) == (60, 20, 20)

    def test_remainder_goes_to_test(self):
        table = SeriesTable(np.arange(10, dtype=float)[:, None], ["ch0"])
        tr, va, te = split_chronological(table, (6, 2, 2))
        assert (tr.rows, va.rows, te.rows) == (6, 2, 2)

    def test_standard_preset(self):
        table = SeriesTable(np.arange(100, dtype=float)[:, None], ["ch0"])
        tr, va, te = split_chronological(table, SPLIT_PRESETS["standard"])
        assert (tr.rows, va.rows, te.rows) == (70, 10, 20)

    def test_concatenation_reproduces_input(self):
        table = synth_series("sine_trend", 137, 2, seed=3)
        tr, va, te = split_chronological(table, (6, 2, 2))
        stacked = np.concatenate([tr.values, va.values, te.values])
        np.testing.assert_array_equal(stacked, table.values)

    def test_short_split_names_offender(self):
        table = SeriesTable(np.arange(30, dtype=float)[:, None], ["ch0"])
        with pytest.raises(DataError, match="val"):
            split_chronological(table, (6, 2, 2), min_rows=10)

    def test_bad_ratios_rejected(self):
        table = SeriesTable(np.arange(30, dtype=float)[:, None], ["ch0"])
        with pytest.raises(ConfigError):
            split_chronological(table, (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("ratios", [
        (float("nan"), 1.0, 1.0), (1.0, float("inf"), 1.0), ("6", 2, 2),
        (True, 1, 1),
    ])
    def test_nonfinite_or_mistyped_ratios_rejected(self, ratios):
        table = SeriesTable(np.zeros((100, 1)), ["a"])
        with pytest.raises(ConfigError):
            split_chronological(table, ratios)


class TestStats:
    def test_values(self):
        vals = np.array([[1.0, 10.0], [3.0, 10.0]])
        stats = compute_stats(SeriesTable(vals, ["a", "b"]))
        np.testing.assert_allclose(stats.mean, [2.0, 10.0])
        np.testing.assert_allclose(stats.std, [1.0, 1.0])  # zero std -> 1

    def test_apply_invert_inverse(self):
        table = synth_series("sine", 40, 2, seed=4)
        stats = compute_stats(table)
        z = stats.apply(table.values)
        np.testing.assert_allclose(stats.invert(z), table.values, atol=1e-12)
        assert abs(z.mean()) < 1e-12

    @settings(max_examples=100)
    @given(rows=st.integers(1, 50), channels=st.integers(1, 4),
           log_scale=st.floats(-5, 5), seed=st.integers(0, 2**16))
    def test_scaling_leaves_statistics_bitwise(self, rows, channels,
                                               log_scale, seed):
        rng = np.random.default_rng(seed)
        values = (rng.standard_normal((rows, channels)) + rng.uniform(-3, 3))
        values *= 10.0 ** log_scale
        stats = compute_stats(SeriesTable(values, [f"c{j}" for j in
                                                   range(channels)]))
        std = values.std(axis=0)        # the unscaled formulas
        assert stats.mean.tobytes() == values.mean(axis=0).tobytes()
        assert stats.std.tobytes() == np.where(std == 0.0, 1.0, std).tobytes()

    @settings(max_examples=100)
    @given(rows=st.integers(1, 50), channels=st.integers(1, 4),
           log_scale=st.floats(-5, 5), seed=st.integers(0, 2**16))
    def test_scaling_leaves_apply_and_invert_bitwise(self, rows, channels,
                                                     log_scale, seed):
        rng = np.random.default_rng(seed)
        values = (rng.standard_normal((rows, channels)) + rng.uniform(-3, 3))
        values *= 10.0 ** log_scale
        stats = compute_stats(SeriesTable(values, [f"c{j}" for j in
                                                   range(channels)]))
        z = (values - stats.mean) / stats.std       # the unscaled formulas
        assert stats.apply(values).tobytes() == z.tobytes()
        assert stats.invert(z).tobytes() == \
            (z * stats.std + stats.mean).tobytes()

    def test_values_far_from_the_mean_standardise(self):
        # (x - mean) overflows float64; (x - mean) / std is about 427
        t = np.arange(80.0)
        train = SeriesTable((-1.5e308 + 1e306 * np.sin(t / 5))[:, None], ["a"])
        test = SeriesTable((1.5e308 + 1e306 * np.sin(t / 5))[:, None], ["a"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = compute_stats(train)
            z = stats.apply(test.values)
            back = stats.invert(z)
            ds = make_windows(test, 24, 8, stats, split_tag="test")
        assert np.all((400 < z) & (z < 450))
        np.testing.assert_allclose(back, test.values, rtol=1e-12)
        assert ds.inputs[0].tobytes() == z[:24].tobytes()

    def test_no_lookahead(self):
        table = synth_series("sine", 100, 1, seed=5)
        tr, _, _ = split_chronological(table, (6, 2, 2))
        base = compute_stats(tr)
        tampered = table.values.copy()
        tampered[60:] += 1000.0
        tr2, _, _ = split_chronological(
            SeriesTable(tampered, table.channel_names), (6, 2, 2))
        after = compute_stats(tr2)
        np.testing.assert_array_equal(base.mean, after.mean)
        np.testing.assert_array_equal(base.std, after.std)


class TestWindows:
    def test_window_count_formula(self):
        table = synth_series("sine", 200, 1, seed=0)
        stats = compute_stats(table)
        ds = make_windows(table, 96, 96, stats, split_tag="train")
        assert len(ds) == 9  # (200 - 96 - 96) // 1 + 1

    def test_exact_fit_single_window(self):
        table = synth_series("sine", 192, 1, seed=0)
        stats = compute_stats(table)
        ds = make_windows(table, 96, 96, stats, split_tag="test")
        assert len(ds) == 1

    def test_one_row_short_raises(self):
        table = synth_series("sine", 191, 1, seed=0)
        stats = compute_stats(table)
        with pytest.raises(DataError):
            make_windows(table, 96, 96, stats, split_tag="test")

    def test_stride_thins_windows(self):
        table = synth_series("sine", 200, 1, seed=0)
        stats = compute_stats(table)
        ds = make_windows(table, 96, 96, stats, stride=4, split_tag="train")
        assert len(ds) == 3  # floor(8/4) + 1

    @pytest.mark.parametrize("arg, value", [
        ("stride", 2.0), ("stride", True), ("stride", 0),
        ("seq_len", 8.0), ("seq_len", 0), ("pred_len", "4"), ("pred_len", -1),
    ])
    def test_bad_integer_argument_named(self, arg, value):
        table = synth_series("sine", 30, 1, seed=0)
        kwargs = dict(dict(seq_len=8, pred_len=4, stride=1), **{arg: value})
        with pytest.raises(ConfigError, match=arg):
            make_windows(table, stats=compute_stats(table), **kwargs)

    def test_windows_are_standardized_and_chronological(self):
        table = synth_series("sine_trend", 60, 2, seed=6)
        stats = compute_stats(table)
        ds = make_windows(table, 10, 5, stats, split_tag="train")
        z = stats.apply(table.values)
        np.testing.assert_allclose(ds.inputs[0], z[0:10])
        np.testing.assert_allclose(ds.targets[0], z[10:15])
        np.testing.assert_allclose(ds.inputs[3], z[3:13])
        assert ds.inputs.shape == (46, 10, 2)
        assert ds.targets.shape == (46, 5, 2)

    def test_target_follows_input(self):
        table = synth_series("sine", 30, 1, seed=7)
        stats = compute_stats(table)
        ds = make_windows(table, 8, 4, stats, split_tag="val")
        z = stats.apply(table.values)
        for i in range(len(ds)):
            np.testing.assert_allclose(ds.targets[i], z[i + 8:i + 12])

    @settings(max_examples=100)
    @given(seq_len=st.integers(1, 12), pred_len=st.integers(1, 12),
           extra=st.integers(0, 30), stride=st.integers(1, 8),
           channels=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_matches_stacked_slices(self, seq_len, pred_len, extra, stride,
                                    channels, seed):
        rows = seq_len + pred_len + extra
        table = SeriesTable(np.random.default_rng(seed).standard_normal(
            (rows, channels)), [f"c{j}" for j in range(channels)])
        stats = compute_stats(table)
        ds = make_windows(table, seq_len, pred_len, stats, stride=stride)
        z = stats.apply(table.values)
        starts = range(0, rows - seq_len - pred_len + 1, stride)
        for got, want in ((ds.inputs, [z[i:i + seq_len] for i in starts]),
                          (ds.targets, [z[i + seq_len:i + seq_len + pred_len]
                                        for i in starts])):
            want = np.stack(want)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous

    @pytest.mark.parametrize("mean, std", [
        ([0.0, 0.0], [1.0, 1e-310]),        # subnormal spread
        ([0.0, np.inf], [1.0, np.inf]),     # statistics that overflowed
    ], ids=["subnormal_std", "overflowed_stats"])
    def test_nonfinite_standardised_values_name_channel(self, mean, std):
        table = synth_series("sine", 30, 2, seed=8)
        stats = NormStats(np.array(mean), np.array(std))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DataError, match="val split: channel 'ch1' "
                                                "does not standardise"):
                make_windows(table, 8, 4, stats, split_tag="val")

    def test_huge_values_standardise_without_warnings(self):
        # finite data whose unscaled mean and spread overflow float64
        t = np.arange(400.0)
        table = SeriesTable(np.column_stack(
            [np.full(400, 1.7e308), 1.5e308 * np.sin(t / 5)]), ["huge", "wave"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = compute_stats(table)
            assert stats.mean[0] == pytest.approx(1.7e308, rel=1e-12)
            assert stats.std[1] == pytest.approx(1.5e308 / 2**0.5, rel=1e-2)
            ds = make_windows(table, 24, 8, stats, split_tag="train")
        assert np.all(np.isfinite(ds.inputs))
        assert np.all(np.isfinite(ds.targets))

    # unchecked, fit would index past 5 targets of 6 inputs, and evaluate
    # would broadcast the others or raise numpy's own error
    @pytest.mark.parametrize("inputs, targets", [
        ((6, 8, 2), (5, 4, 2)), ((6, 8, 2), (6, 4, 1)), ((6, 8, 2), (6, 4)),
        ((6, 8), (6, 4, 2)), ((6, 8, 2, 1), (6, 4, 2, 1)),
    ], ids=["fewer_targets", "channels", "targets_2d", "inputs_2d", "4d"])
    def test_mismatched_windows_name_the_split(self, inputs, targets):
        stats = NormStats(np.zeros(2), np.ones(2))
        with pytest.raises(DataError, match=(
                rf"^val windows: inputs \({inputs[0]}, .* and targets "
                rf"\({targets[0]}, .* are not \[W, L, C\] and \[W, T, C\]$")):
            WindowedDataset(np.zeros(inputs), np.zeros(targets), "val", stats)


class TestSynth:
    def test_sine_known_points(self):
        table = synth_series("sine", 30, 1, seed=0)
        # period 24, amplitude 1, channel 0 has zero phase
        assert table.values[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert table.values[6, 0] == pytest.approx(1.0, abs=1e-12)
        assert table.values[12, 0] == pytest.approx(0.0, abs=1e-12)
        assert table.values[18, 0] == pytest.approx(-1.0, abs=1e-12)

    def test_channels_out_of_phase(self):
        table = synth_series("sine", 48, 3, seed=0)
        assert not np.allclose(table.values[:, 0], table.values[:, 1])
        assert not np.allclose(table.values[:, 1], table.values[:, 2])

    def test_level_shift_jumps_by_magnitude(self):
        params = SynthParams(shift_row=100, magnitude=4.0, noise=0.0)
        table = synth_series("level_shift", 200, 1, seed=0, params=params)
        before = table.values[:100, 0]
        after = table.values[100:, 0]
        assert after.mean() - before.mean() == pytest.approx(4.0, abs=0.05)

    def test_freq_shift_moves_spectral_peak(self):
        params = SynthParams(period=24.0, period2=12.0, shift_row=480,
                             noise=0.0)
        table = synth_series("freq_shift", 960, 1, seed=0, params=params)
        first = np.abs(dft(table.values[:480, 0]))
        second = np.abs(dft(table.values[480:, 0]))
        # 480 samples: period 24 -> bin 20, period 12 -> bin 40
        assert np.argmax(first[1:240]) + 1 == 20
        assert np.argmax(second[1:240]) + 1 == 40

    def test_sine_trend_drifts(self):
        params = SynthParams(slope=0.01, noise=0.0)
        table = synth_series("sine_trend", 240, 1, seed=0, params=params)
        # averaging over whole periods cancels the sine, leaving the ramp
        first = table.values[:24, 0].mean()
        last = table.values[-24:, 0].mean()
        assert last - first == pytest.approx(0.01 * 216, abs=1e-9)

    def test_noise_reproducible_by_seed(self):
        a = synth_series("sine", 50, 2, seed=9,
                         params=SynthParams(noise=0.3))
        b = synth_series("sine", 50, 2, seed=9,
                         params=SynthParams(noise=0.3))
        c = synth_series("sine", 50, 2, seed=10,
                         params=SynthParams(noise=0.3))
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            synth_series("sawtooth", 50, 1, seed=0)

    @pytest.mark.parametrize("arg, value", [
        ("rows", 10.5), ("rows", True), ("rows", 0), ("channels", 2.0),
        ("channels", 0), ("seed", 1.5),
    ])
    def test_bad_integer_argument_named(self, arg, value):
        kwargs = dict(dict(rows=10, channels=1, seed=0), **{arg: value})
        with pytest.raises(ConfigError, match=arg):
            synth_series("sine", **kwargs)

    @pytest.mark.parametrize("field,value", [
        ("period", 0.0), ("period", -24.0), ("period2", 0.0),
        ("amplitude", float("inf")), ("noise", float("nan")), ("noise", -0.1),
        ("slope", float("nan")), ("magnitude", "4"), ("shift_row", 10.5),
    ])
    def test_bad_params_rejected(self, field, value):
        with pytest.raises(ConfigError):
            SynthParams(**{field: value})

    def test_overflow_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(ConfigError):
            synth_series("sine_trend", 64, 1, seed=0,
                         params=SynthParams(slope=1e308))

    def test_all_kinds_produce_finite_values(self):
        for kind in SYNTH_KINDS:
            table = synth_series(kind, 64, 2, seed=1,
                                 params=SynthParams(noise=0.1, shift_row=32))
            assert np.all(np.isfinite(table.values)), kind
            assert table.rows == 64 and table.channels == 2


def micro_config(**overrides):
    base = dict(channels=2, seq_len=8, pred_len=4, patch_len=4, stride=4,
                latent_dim=8, heads=2, seed=21)
    base.update(overrides)
    return ModelConfig(**base)


def _drop(key):
    def edit(header):
        del header[key]
        return header
    return edit


def _set_config(key, value):
    def edit(header):
        header["config"][key] = value
        return header
    return edit


def _unknown_correction_field(header):
    header["config"]["correction"]["gamma"] = 1.0
    return header


def _set_correction(key, value):
    def edit(header):
        header["config"]["correction"][key] = value
        return header
    return edit


def _bad_tensor_entry(header):
    header["tensors"][0] = 5
    return header


def _set_metadata(value):
    def edit(header):
        header["metadata"] = value
        return header
    return edit


class TestCheckpoint:
    def test_round_trip_lossless(self, tmp_path):
        cfg = micro_config()
        params = init_params(cfg)
        path = tmp_path / "m.dct"
        meta = {"dataset": "unit", "horizon": 4,
                "norm_mean": [0.0, 1.0], "norm_std": [1.0, 2.0]}
        checkpoint_save(params, cfg, path, metadata=meta)
        loaded, cfg2, meta2 = checkpoint_load(path)
        assert cfg2 == cfg
        assert meta2 == meta
        for (ka, ta), (kb, tb) in zip(params.named_parameters().items(),
                                      loaded.named_parameters().items()):
            assert ka == kb
            assert ta.data.tobytes() == tb.data.tobytes()

    @pytest.mark.parametrize("field, as_numpy", [
        ("seq_len", np.int64), ("seed", np.int64), ("dropout", np.float32),
        ("eps", np.float32), ("window_stride", np.int64),
    ])
    def test_numpy_scalar_settings_saved_as_python_numbers(
            self, tmp_path, field, as_numpy):
        # 2**-27 and 0.25 are float32 values that float64 holds exactly
        plain = dict(seq_len=8, seed=3, dropout=0.25, eps=2.0 ** -27,
                     window_stride=2)

        def save(values, name):
            cfg = micro_config(seq_len=values["seq_len"], seed=values["seed"],
                               dropout=values["dropout"],
                               correction=CorrectionConfig(eps=values["eps"]))
            path = tmp_path / name
            checkpoint_save(init_params(cfg), cfg, path, metadata=run_record(
                NormStats(mean=np.zeros(2), std=np.ones(2)),
                DataSettings(window_stride=values["window_stride"])))
            return path

        want = save(plain, "plain.dct")
        got = save(dict(plain, **{field: as_numpy(plain[field])}), "numpy.dct")
        assert got.read_bytes() == want.read_bytes()
        assert checkpoint_load(got)[1:] == checkpoint_load(want)[1:]

    def test_forward_identical_after_round_trip(self, tmp_path):
        cfg = micro_config()
        params = init_params(cfg)
        path = tmp_path / "m.dct"
        checkpoint_save(params, cfg, path)
        loaded, cfg2, _ = checkpoint_load(path)
        x = np.random.default_rng(2).standard_normal((2, 8, 2))
        a = forward(x, params, cfg).values.data
        b = forward(x, loaded, cfg2).values.data
        np.testing.assert_array_equal(a, b)

    def test_save_is_byte_deterministic(self, tmp_path):
        cfg = micro_config()
        params = init_params(cfg)
        p1, p2 = tmp_path / "a.dct", tmp_path / "b.dct"
        checkpoint_save(params, cfg, p1, metadata={"k": 1})
        checkpoint_save(params, cfg, p2, metadata={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_save_keeps_old_file(self, tmp_path):
        cfg = micro_config()
        params = init_params(cfg)
        path = tmp_path / "m.dct"
        checkpoint_save(params, cfg, path)
        old = path.read_bytes()
        # the last tensor cannot be converted, so the header and every
        # earlier tensor are already written when the save fails
        bias = params.head_bias
        bias.data = np.full(bias.data.shape, "x", dtype=object)
        with pytest.raises(ValueError):
            checkpoint_save(params, cfg, path)
        assert path.read_bytes() == old
        assert list(tmp_path.iterdir()) == [path]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="missing.dct"):
            checkpoint_load(tmp_path / "missing.dct")

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "x.dct"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            checkpoint_load(p)

    def test_unsupported_version(self, tmp_path):
        cfg = micro_config()
        p = tmp_path / "x.dct"
        checkpoint_save(init_params(cfg), cfg, p)
        raw = bytearray(p.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            checkpoint_load(p)

    def test_truncated_tensor_section(self, tmp_path):
        cfg = micro_config()
        p = tmp_path / "x.dct"
        checkpoint_save(init_params(cfg), cfg, p)
        raw = p.read_bytes()
        p.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError, match="truncated"):
            checkpoint_load(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        cfg = micro_config()
        p = tmp_path / "x.dct"
        checkpoint_save(init_params(cfg), cfg, p)
        p.write_bytes(p.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointError, match="trailing"):
            checkpoint_load(p)

    def test_tampered_shape_table_names_tensor(self, tmp_path):
        cfg = micro_config()
        p = tmp_path / "x.dct"
        checkpoint_save(init_params(cfg), cfg, p)

        def edit(header):
            for row in header["tensors"]:
                if row["name"] == "revin.gamma":
                    row["shape"] = [5]
            return header

        rewrite_header(p, edit)
        with pytest.raises(CheckpointError) as err:
            checkpoint_load(p)
        assert "revin.gamma" in str(err.value)
        assert "(5,)" in str(err.value)

    # True == 1, so a bool extent passes as 1 where a tensor has one
    @pytest.mark.parametrize("name, edit", [
        *MISTYPED_SHAPES.values(),
        ("revin.gamma", retyped_shape("revin.gamma", bool)),
    ], ids=[*MISTYPED_SHAPES, "revin.gamma_bool"])
    def test_mistyped_shape_names_tensor(self, tmp_path, name, edit):
        cfg = micro_config(channels=1)
        p = tmp_path / "x.dct"
        checkpoint_save(init_params(cfg), cfg, p)
        rewrite_header(p, edit)
        with pytest.raises(CheckpointError, match=(
                rf"parameter '{name}' has shape \[.*\], not a list of "
                rf"non-negative integers")):
            checkpoint_load(p)

    def test_missing_parameter_named(self, tmp_path):
        cfg = micro_config()
        p = tmp_path / "x.dct"
        checkpoint_save(init_params(cfg), cfg, p)

        def edit(header):
            header["tensors"] = [row for row in header["tensors"]
                                 if row["name"] != "head.bias"]
            return header

        rewrite_header(p, edit)
        with pytest.raises(CheckpointError, match="head.bias"):
            checkpoint_load(p)

    def test_repeated_parameter_named(self, tmp_path):
        # the stored names used to be merged, so the later entry won
        cfg = micro_config()
        p = tmp_path / "x.dct"
        checkpoint_save(init_params(cfg), cfg, p)
        repeat_tensor(p, "revin.gamma", 7.0)
        with pytest.raises(CheckpointError,
                           match="lists parameter 'revin.gamma' twice"):
            checkpoint_load(p)

    @pytest.mark.parametrize("edit", [
        _drop("config"), _drop("tensors"), _unknown_correction_field,
        _set_config("dropout", "0.1"), _set_config("channels", -1),
        _bad_tensor_entry, lambda header: [header], _set_metadata([1.0]),
        _set_config("correction", "x"), _set_config("fusion_mode", "additive"),
        _set_correction("reduction_scope", "global_scalar"),
    ], ids=["no_config", "no_tensors", "unknown_correction_field",
            "string_dropout", "negative_channels", "bad_tensor_entry",
            "header_not_object", "metadata_not_object",
            "correction_not_object", "retired_fusion_mode",
            "retired_reduction_scope"])
    def test_malformed_header_is_checkpoint_error(self, tmp_path, edit):
        cfg = micro_config()
        p = tmp_path / "x.dct"
        checkpoint_save(init_params(cfg), cfg, p)
        rewrite_header(p, edit)
        with pytest.raises(CheckpointError, match="malformed checkpoint header"):
            checkpoint_load(p)

    def test_retired_keys_refused_by_name(self, tmp_path):
        # even at the one value the model used to accept
        cfg = micro_config()
        for key, edit in (
                ("fusion_mode",
                 _set_config("fusion_mode", "residual_substitution")),
                ("reduction_scope",
                 _set_correction("reduction_scope", "per_batch_channel"))):
            p = tmp_path / f"{key}.dct"
            checkpoint_save(init_params(cfg), cfg, p)
            rewrite_header(p, edit)
            with pytest.raises(CheckpointError, match=key):
                checkpoint_load(p)

    def test_corrupt_header_json(self, tmp_path):
        cfg = micro_config()
        p = tmp_path / "x.dct"
        checkpoint_save(init_params(cfg), cfg, p)
        raw = bytearray(p.read_bytes())
        raw[20] = 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="header"):
            checkpoint_load(p)

    def test_int_past_parse_digit_limit(self, tmp_path):
        cfg = micro_config()
        p = tmp_path / "x.dct"
        checkpoint_save(init_params(cfg), cfg, p, metadata={"n": 7})
        raw = p.read_bytes()
        n = struct.unpack("<Q", raw[8:16])[0]
        blob = raw[16:16 + n].replace(b'"n":7', b'"n":' + b"1" * 5000)
        p.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob
                      + raw[16 + n:])
        with pytest.raises(CheckpointError, match="corrupt checkpoint header"):
            checkpoint_load(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_tensor_named(self, tmp_path, bad):
        cfg = micro_config()
        p = tmp_path / "x.dct"
        checkpoint_save(init_params(cfg), cfg, p)
        raw = bytearray(p.read_bytes())
        n = struct.unpack("<Q", raw[8:16])[0]
        first = json.loads(raw[16:16 + n])["tensors"][0]["name"]
        raw[16 + n:16 + n + 8] = struct.pack("<d", bad)
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"'{first}'.*NaN/Inf"):
            checkpoint_load(p)

    @pytest.mark.parametrize("gain", [0.0, -1e-13])
    def test_uninvertible_revin_gain_named(self, tmp_path, gain):
        # revin_denormalize divides by the gain; a checkpoint whose gain
        # cannot be inverted is refused on load, not at the first forecast
        cfg = micro_config()
        params = init_params(cfg)
        params.revin.gamma.data[1] = gain
        p = tmp_path / "x.dct"
        checkpoint_save(params, cfg, p)
        with pytest.raises(CheckpointError, match="'revin.gamma' entry 1 "):
            checkpoint_load(p)
        params.revin.gamma.data[1] = 1e-12
        checkpoint_save(params, cfg, p)
        assert checkpoint_load(p)[0].revin.gamma.data[1] == 1e-12


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """Bytes of a small saved checkpoint and the end of its JSON header."""
    cfg = micro_config(channels=1, latent_dim=2, heads=1)
    p = tmp_path_factory.mktemp("ckpt") / "m.dct"
    checkpoint_save(init_params(cfg), cfg, p, metadata={"norm_std": [1.0]})
    raw = p.read_bytes()
    return raw, 16 + struct.unpack("<Q", raw[8:16])[0]


class TestGoldenCheckpoint:
    """``data/micro_depth2.dct`` is ``checkpoint_save(init_params(cfg), cfg,
    path, metadata=GOLDEN_META)`` for ``GOLDEN_CFG``, written before
    ``init_params`` became the one parameter declaration.  Names, order,
    shapes, init streams and the file format must all still produce it."""

    PATH = Path(__file__).parent / "data" / "micro_depth2.dct"
    CFG = micro_config(depth=2, seed=3)
    META = {"note": "golden"}

    def test_init_reproduces_bytes(self, tmp_path):
        out = tmp_path / "m.dct"
        checkpoint_save(init_params(self.CFG), self.CFG, out,
                        metadata=self.META)
        assert out.read_bytes() == self.PATH.read_bytes()

    def test_loads_back(self):
        params, cfg, meta = checkpoint_load(self.PATH)
        assert cfg == self.CFG and meta == self.META
        fresh = init_params(self.CFG).named_parameters()
        loaded = params.named_parameters()
        assert list(loaded) == list(fresh)
        for name, t in loaded.items():
            assert t.data.tobytes() == fresh[name].data.tobytes(), name


class TestRunRecord:
    """The metadata a run stores beside its weights, checked on load."""

    CFG = micro_config()

    def _saved(self, tmp_path, metadata):
        path = tmp_path / "m.dct"
        checkpoint_save(init_params(self.CFG), self.CFG, path,
                        metadata=metadata)
        return path

    @staticmethod
    def _record():
        stats = NormStats(mean=np.array([0.5, -1.0]),
                          std=np.array([2.0, 0.25]))
        return run_record(stats, DataSettings(preset="standard",
                                              window_stride=3),
                          dataset="unit", best_epoch=0)

    def test_round_trip(self, tmp_path):
        record = self._record()
        meta = checkpoint_load(self._saved(tmp_path, record))[2]
        assert meta == record
        stats, split = run_settings(meta, self.CFG.channels)
        assert stats.mean.tolist() == [0.5, -1.0]
        assert stats.std.tolist() == [2.0, 0.25]
        assert split.split_ratios == (7.0, 1.0, 2.0)
        assert split.window_stride == 3

    @pytest.mark.parametrize("name", list(BAD_METADATA))
    def test_bad_record_refused_on_load(self, tmp_path, name):
        path = self._saved(tmp_path, self._record())
        rewrite_header(path, BAD_METADATA[name])
        with pytest.raises(CheckpointError) as err:
            checkpoint_load(path)
        assert "metadata" in str(err.value)
        assert RECORD_KEY[name.split("_")[0]] in str(err.value)

    @pytest.mark.parametrize("name", list(LACKS_STATS))
    def test_missing_statistics_load_but_read_as_none(self, tmp_path, name):
        path = self._saved(tmp_path, self._record())
        rewrite_header(path, LACKS_STATS[name])
        _params, cfg, meta = checkpoint_load(path)
        assert run_settings(meta, cfg.channels)[0] is None

    @pytest.mark.parametrize("metadata", [
        TestGoldenCheckpoint.META,
        {"seed": 7, "norm_mean": [0.5, 0.5]},
        {"norm_mean": [0.25, -2.0], "norm_std": [1.5, 3.0]},
    ], ids=["golden", "mean_only", "forecast_benchmark_setup"])
    def test_partial_records_load_unchanged(self, tmp_path, metadata):
        assert checkpoint_load(self._saved(tmp_path, metadata))[2] == metadata


class TestCheckpointFuzz:
    @settings(max_examples=40, deadline=None)
    @given(cfg=tiny_configs(), seed=st.integers(0, 2**16))
    def test_save_load_save_identical_bytes(self, tmp_path_factory, cfg,
                                            seed):
        base = tmp_path_factory.getbasetemp()
        first, second = base / "first.dct", base / "second.dct"
        meta = {"seed": seed, "norm_mean": [0.5] * cfg.channels}
        cfg = dataclasses.replace(cfg, seed=seed)
        checkpoint_save(init_params(cfg), cfg, first, metadata=meta)
        params, cfg2, meta2 = checkpoint_load(first)
        checkpoint_save(params, cfg2, second, metadata=meta2)
        assert second.read_bytes() == first.read_bytes()

    def test_every_truncation_is_checkpoint_error(self, tiny_checkpoint,
                                                  tmp_path):
        raw, _ = tiny_checkpoint
        p = tmp_path / "t.dct"
        for cut in range(len(raw)):
            p.write_bytes(raw[:cut])
            with pytest.raises(CheckpointError):
                checkpoint_load(p)

    @settings(max_examples=300)
    @given(edits=st.lists(st.tuples(st.integers(min_value=0),
                                    st.integers(0, 255)),
                          min_size=1, max_size=4))
    def test_mutated_header_raises_only_checkpoint_error(
            self, tiny_checkpoint, tmp_path_factory, edits):
        raw, header_end = tiny_checkpoint
        mutated = bytearray(raw)
        for offset, value in edits:
            mutated[offset % header_end] = value
        p = tmp_path_factory.getbasetemp() / "mutated.dct"
        p.write_bytes(bytes(mutated))
        try:
            checkpoint_load(p)
        except CheckpointError:
            pass


class TestAtomicWrite:
    def test_replaces_on_success(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("old")
        with atomic_write(path, encoding="utf-8") as fh:
            fh.write("new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]

    def test_failure_halfway_keeps_old_file(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_write(path, encoding="utf-8") as fh:
                fh.write("partial")
                fh.flush()
                raise RuntimeError("disk full")
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path]
