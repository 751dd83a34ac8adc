"""End-to-end command line runs, in process via main(argv)."""

import contextlib
import io
import json
import shutil
import struct
import warnings

import numpy as np
import pytest

import dctnet.cli as cli_module
import dctnet.model as model_module
from dctnet.cli import _emit_json, main
from dctnet.data_io import SeriesTable, checkpoint_load, checkpoint_save, \
    load_csv, save_csv

from helpers import BAD_METADATA, LACKS_STATS, MISTYPED_SHAPES, \
    repeat_tensor, rewrite_header

CFG_JSON = {
    "model": {"latent_dim": 16, "heads": 2, "patch_len": 8, "stride": 4},
    "train": {"epochs": 3},
}


def run(argv):
    """Invoke the CLI, returning (exit_code, stdout_text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(CFG_JSON))
    code, _ = run(["synth", "--kind", "sine", "--rows", "400",
                   "--channels", "2", "--seed", "3",
                   "--out", str(root / "data.csv")])
    assert code == 0
    return root


TRAIN_FLAGS = ["--seq-len", "48", "--horizon", "12", "--epochs", "1",
               "--window-stride", "4", "--seed", "5"]


@pytest.fixture(scope="module")
def trained(workdir):
    out = workdir / "run1"
    code, stdout = run(["train", "--config", str(workdir / "cfg.json"),
                        "--data", str(workdir / "data.csv"),
                        "--out", str(out)] + TRAIN_FLAGS)
    assert code == 0
    return {"out": out, "payload": json.loads(stdout), "root": workdir}


class TestSynth:
    def test_writes_loadable_csv(self, workdir):
        text = (workdir / "data.csv").read_text()
        assert text.splitlines()[0] == "ch0,ch1"
        assert len(text.splitlines()) == 401

    def test_unknown_kind_is_usage_error(self, workdir, capsys):
        with pytest.raises(SystemExit) as err:
            main(["synth", "--kind", "sawtooth", "--rows", "10",
                  "--out", str(workdir / "x.csv")])
        assert err.value.code == 2


class TestTrain:
    def test_artifacts_written(self, trained):
        assert (trained["out"] / "checkpoint.dct").exists()
        assert (trained["out"] / "train_report.json").exists()

    def test_stdout_is_pure_json(self, trained):
        payload = trained["payload"]
        assert payload["epochs_run"] == 1   # flag beats epochs=3 in the file
        assert payload["seed"] == 5
        assert payload["dataset"] == "data"
        assert np.isfinite(payload["test_mse"])
        assert np.isfinite(payload["test_mae"])
        assert "wall_clock_seconds" not in payload

    def test_config_flags_reached_model(self, trained):
        cfg = trained["payload"]["config"]
        assert cfg["latent_dim"] == 16 and cfg["heads"] == 2
        assert cfg["seq_len"] == 48 and cfg["pred_len"] == 12
        assert cfg["channels"] == 2

    def test_logs_go_to_stderr_not_stdout(self, workdir, capsys):
        out = workdir / "run_logcheck"
        code, stdout = run(["train", "--config", str(workdir / "cfg.json"),
                            "--data", str(workdir / "data.csv"),
                            "--out", str(out)] + TRAIN_FLAGS)
        assert code == 0
        json.loads(stdout)          # must parse with nothing extra around it
        captured = capsys.readouterr()
        assert "epoch" in captured.err

    def test_repeat_run_byte_identical(self, workdir, trained):
        first = workdir / "saved"
        first.mkdir(exist_ok=True)
        shutil.copy(trained["out"] / "checkpoint.dct", first / "checkpoint.dct")
        shutil.copy(trained["out"] / "train_report.json",
                    first / "train_report.json")
        code, _ = run(["train", "--config", str(workdir / "cfg.json"),
                       "--data", str(workdir / "data.csv"),
                       "--out", str(trained["out"])] + TRAIN_FLAGS)
        assert code == 0
        assert (trained["out"] / "checkpoint.dct").read_bytes() == \
            (first / "checkpoint.dct").read_bytes()
        assert (trained["out"] / "train_report.json").read_bytes() == \
            (first / "train_report.json").read_bytes()

    def test_divergence_exit_1_names_step(self, workdir, capsys):
        with np.errstate(all="ignore"):
            code, stdout = run(["train", "--data", str(workdir / "data.csv"),
                                "--out", str(workdir / "diverged"),
                                "--lr", "1e300", "--quiet"] + TRAIN_FLAGS)
        assert code == 1
        assert stdout == ""
        err = capsys.readouterr().err
        assert "training failed: epoch 0, step 1:" in err
        assert not (workdir / "diverged" / "checkpoint.dct").exists()

    def test_missing_data_file_exit_2(self, workdir, capsys):
        code, _ = run(["train", "--data", str(workdir / "nope.csv"),
                       "--out", str(workdir / "xx")])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_horizon_longer_than_split_exit_2(self, workdir, capsys):
        code, _ = run(["train", "--data", str(workdir / "data.csv"),
                       "--out", str(workdir / "xx"),
                       "--seq-len", "48", "--horizon", "500",
                       "--epochs", "1"])
        assert code == 2
        assert "rows" in capsys.readouterr().err


class TestBadCheckpointMetadata:
    @pytest.mark.parametrize("command", ["eval", "forecast"])
    @pytest.mark.parametrize("edit", [*BAD_METADATA.values(),
                                      *LACKS_STATS.values()],
                             ids=[*BAD_METADATA, *LACKS_STATS])
    def test_exit_2(self, trained, tmp_path, capsys, command, edit):
        ckpt = tmp_path / "checkpoint.dct"
        shutil.copy(trained["out"] / "checkpoint.dct", ckpt)
        rewrite_header(ckpt, edit)
        code, stdout = run([command, "--checkpoint", str(ckpt),
                            "--data", str(trained["root"] / "data.csv")])
        assert code == 2
        assert stdout == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "metadata" in err


class TestMistypedCheckpointShape:
    @pytest.mark.parametrize("command", ["eval", "forecast"])
    @pytest.mark.parametrize("name, edit", MISTYPED_SHAPES.values(),
                             ids=list(MISTYPED_SHAPES))
    def test_exit_2(self, trained, tmp_path, capsys, command, name, edit):
        ckpt = tmp_path / "checkpoint.dct"
        shutil.copy(trained["out"] / "checkpoint.dct", ckpt)
        rewrite_header(ckpt, edit)
        code, stdout = run([command, "--checkpoint", str(ckpt),
                            "--data", str(trained["root"] / "data.csv")])
        assert (code, stdout) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith(f"error: checkpoint parameter '{name}' has "
                              f"shape [")


class TestEval:
    def test_matches_train_test_score(self, trained):
        code, stdout = run(["eval",
                            "--checkpoint",
                            str(trained["out"] / "checkpoint.dct"),
                            "--data", str(trained["root"] / "data.csv"),
                            "--split", "test"])
        assert code == 0
        payload = json.loads(stdout)
        assert payload["split"] == "test"
        assert payload["mse"] == pytest.approx(
            trained["payload"]["test_mse"], rel=1e-12)
        assert payload["num_windows"] > 0
        assert np.isfinite(payload["alpha_mean"])

    def test_val_split_labelled(self, trained):
        code, stdout = run(["eval",
                            "--checkpoint",
                            str(trained["out"] / "checkpoint.dct"),
                            "--data", str(trained["root"] / "data.csv"),
                            "--split", "val"])
        assert code == 0
        assert json.loads(stdout)["split"] == "val"

    def test_nonfinite_checkpoint_tensor_exit_2(self, trained, tmp_path,
                                                capsys):
        ckpt = tmp_path / "checkpoint.dct"
        raw = bytearray((trained["out"] / "checkpoint.dct").read_bytes())
        start = 16 + struct.unpack("<Q", raw[8:16])[0]
        raw[start:start + 8] = struct.pack("<d", np.nan)
        ckpt.write_bytes(bytes(raw))
        code, stdout = run(["eval", "--checkpoint", str(ckpt),
                            "--data", str(trained["root"] / "data.csv")])
        assert code == 2
        assert stdout == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "NaN/Inf" in err

    def test_repeated_checkpoint_tensor_exit_2(self, trained, tmp_path,
                                               capsys):
        ckpt = tmp_path / "checkpoint.dct"
        shutil.copy(trained["out"] / "checkpoint.dct", ckpt)
        repeat_tensor(ckpt, "revin.gamma", 7.0)
        code, stdout = run(["eval", "--checkpoint", str(ckpt),
                            "--data", str(trained["root"] / "data.csv")])
        assert (code, stdout) == (2, "")
        assert capsys.readouterr().err.startswith(
            "error: checkpoint lists parameter 'revin.gamma' twice")

    @pytest.mark.parametrize("command", ["eval", "forecast"])
    def test_zero_revin_gain_exit_2(self, trained, tmp_path, capsys,
                                    command):
        params, cfg, meta = checkpoint_load(
            trained["out"] / "checkpoint.dct")
        params.revin.gamma.data[0] = 0.0
        ckpt = tmp_path / "checkpoint.dct"
        checkpoint_save(params, cfg, ckpt, metadata=meta)
        code, stdout = run([command, "--checkpoint", str(ckpt),
                            "--data", str(trained["root"] / "data.csv")])
        assert code == 2
        assert stdout == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "revin.gamma" in err

    def test_channel_mismatch_names_both_counts(self, trained, workdir,
                                                capsys):
        code, _ = run(["synth", "--kind", "sine", "--rows", "400",
                       "--channels", "1", "--seed", "0",
                       "--out", str(workdir / "narrow.csv")])
        assert code == 0
        code, _ = run(["eval",
                       "--checkpoint",
                       str(trained["out"] / "checkpoint.dct"),
                       "--data", str(workdir / "narrow.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "1" in err and "2" in err


class TestOverflow:
    """Finite data or weights whose forecast or score overflows float64:
    a data error (exit 2) naming the split or the forecast origin."""

    @staticmethod
    def _run(argv, capsys):
        with np.errstate(all="ignore"):
            code, stdout = run(argv + ["--quiet"])
        return code, stdout, capsys.readouterr().err

    @staticmethod
    def _run_unguarded(argv, capsys):
        """``run`` with numpy's warnings at their defaults: none may be
        raised, and stderr holds one ``error:`` line."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stdout = run(argv + ["--quiet"])
        err = capsys.readouterr().err
        assert caught == []
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        return code, stdout, err

    @staticmethod
    def _edited_data(trained, tmp_path, edit):
        table = load_csv(trained["root"] / "data.csv")
        edit(table.values)
        save_csv(table, tmp_path / "edited.csv")
        return str(tmp_path / "edited.csv")

    def test_train_test_split_forecast(self, trained, tmp_path, capsys):
        data = self._edited_data(
            trained, tmp_path, lambda v: v.__setitem__((slice(-60, None), 0),
                                                       1e300))
        code, stdout, err = self._run(
            ["train", "--data", data, "--out", str(tmp_path / "run")]
            + TRAIN_FLAGS, capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: test split, windows ")
        assert "forecast contains NaN/Inf" in err

    @pytest.mark.parametrize("command, where", [
        ("eval", "error: test split, windows "),
        ("forecast", "error: forecast from row 388: "),
    ], ids=["eval", "forecast"])
    def test_constant_huge_channel(self, trained, tmp_path, capsys, command,
                                   where):
        data = self._edited_data(
            trained, tmp_path, lambda v: v.__setitem__((slice(None), 1),
                                                       1e200))
        code, stdout, err = self._run(
            [command, "--checkpoint", str(trained["out"] / "checkpoint.dct"),
             "--data", data], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith(where)

    @pytest.mark.parametrize("command", ["eval", "forecast"])
    def test_no_numpy_warning_reaches_stderr(self, trained, tmp_path, capsys,
                                             command):
        data = self._edited_data(
            trained, tmp_path, lambda v: v.__setitem__((slice(None), 1),
                                                       1e200))
        code, stdout, err = self._run_unguarded(
            [command, "--checkpoint", str(trained["out"] / "checkpoint.dct"),
             "--data", data], capsys)
        assert (code, stdout) == (2, "")
        assert "Warning" not in err

    def test_huge_train_values_train_and_evaluate(self, tmp_path, capsys):
        # finite values whose unscaled mean and spread overflow float64
        t = np.arange(400.0)
        values = np.column_stack([np.full(400, 1.7e308),
                                  1.5e308 * np.sin(t / 5.0)])
        save_csv(SeriesTable(values, ["huge", "wave"]), tmp_path / "huge.csv")
        data = ["--data", str(tmp_path / "huge.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _ = run(["train", "--out", str(tmp_path / "run"),
                           "--epochs", "1", "--seq-len", "24", "--horizon",
                           "8", "--quiet"] + data)
            assert code == 0
            code, stdout = run(["eval", "--checkpoint",
                                str(tmp_path / "run" / "checkpoint.dct"),
                                "--quiet"] + data)
        assert code == 0 and np.isfinite(json.loads(stdout)["mse"])
        assert capsys.readouterr().err == ""

    def test_test_split_across_float64_from_train(self, tmp_path, capsys):
        # train near -1.5e308, test near +1.5e308: x - mean overflows, the
        # standardised test values (about 427) do not
        t = np.arange(400.0)
        values = np.where(t < 320, -1.5e308, 1.5e308) + 1e306 * np.sin(t / 5)
        save_csv(SeriesTable(values[:, None], ["far"]), tmp_path / "far.csv")
        data = ["--data", str(tmp_path / "far.csv")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run(["train", "--out", str(tmp_path / "run"),
                           "--epochs", "1", "--seq-len", "24", "--horizon",
                           "8", "--quiet"] + data)
            assert code == 0
            code, stdout = run(["eval", "--checkpoint",
                                str(tmp_path / "run" / "checkpoint.dct"),
                                "--quiet"] + data)
        assert code == 0 and np.isfinite(json.loads(stdout)["mse"])
        assert caught == []
        assert "Warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("command, where", [
        ("eval", "error: test split: channel 'ch0' does not standardise"),
        ("forecast", "error: forecast from row 388: input window contains"),
    ], ids=["eval", "forecast"])
    def test_subnormal_stored_std(self, trained, tmp_path, capsys, command,
                                  where):
        params, cfg, meta = checkpoint_load(trained["out"] / "checkpoint.dct")
        ckpt = tmp_path / "checkpoint.dct"
        checkpoint_save(params, cfg, ckpt,
                        metadata=dict(meta, norm_std=[1e-310, 1.0]))
        code, stdout, err = self._run_unguarded(
            [command, "--checkpoint", str(ckpt),
             "--data", str(trained["root"] / "data.csv")], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith(where)

    def test_eval_score_names_mse(self, trained, tmp_path, capsys):
        params, cfg, meta = checkpoint_load(trained["out"] / "checkpoint.dct")
        params.head_bias.data[:] = 1e300
        ckpt = tmp_path / "checkpoint.dct"
        checkpoint_save(params, cfg, ckpt, metadata=meta)
        code, stdout, err = self._run(
            ["eval", "--checkpoint", str(ckpt),
             "--data", str(trained["root"] / "data.csv")], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: test split: mse overflows")

    def test_forecast_raw_scale_names_origin(self, trained, tmp_path,
                                             capsys):
        # finite in the model's scale, past float64 once de-normalised
        params, cfg, meta = checkpoint_load(trained["out"] / "checkpoint.dct")
        params.head_bias.data[:] = 1e12
        ckpt = tmp_path / "checkpoint.dct"
        checkpoint_save(params, cfg, ckpt,
                        metadata=dict(meta, norm_std=[1e300, 1.0]))
        code, stdout, err = self._run(
            ["forecast", "--checkpoint", str(ckpt),
             "--data", str(trained["root"] / "data.csv")], capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("error: forecast from row 388: raw-scale")

    def test_json_output_is_strict(self):
        with pytest.raises(ValueError):
            _emit_json({"mse": float("inf")})


class TestForecast:
    def test_emits_truth_and_prediction_columns(self, trained):
        code, stdout = run(["forecast",
                            "--checkpoint",
                            str(trained["out"] / "checkpoint.dct"),
                            "--data", str(trained["root"] / "data.csv")])
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "step,truth_ch0,truth_ch1,pred_ch0,pred_ch1"
        assert len(lines) == 13        # header + horizon rows
        first = lines[1].split(",")
        assert first[0] == "0"
        assert all(np.isfinite(float(v)) for v in first[1:])

    def test_origin_at_end_omits_truth(self, trained):
        code, stdout = run(["forecast",
                            "--checkpoint",
                            str(trained["out"] / "checkpoint.dct"),
                            "--data", str(trained["root"] / "data.csv"),
                            "--origin", "400"])
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "step,pred_ch0,pred_ch1"
        assert len(lines) == 13

    def test_origin_before_first_window_exit_2(self, trained, capsys):
        code, _ = run(["forecast",
                       "--checkpoint",
                       str(trained["out"] / "checkpoint.dct"),
                       "--data", str(trained["root"] / "data.csv"),
                       "--origin", "10"])
        assert code == 2
        assert "origin" in capsys.readouterr().err

    def test_fewer_rows_than_seq_len_exit_2(self, trained, workdir, capsys):
        short = workdir / "short.csv"
        assert run(["synth", "--kind", "sine", "--rows", "30",
                    "--channels", "2", "--out", str(short)])[0] == 0
        capsys.readouterr()
        code, _ = run(["forecast",
                       "--checkpoint",
                       str(trained["out"] / "checkpoint.dct"),
                       "--data", str(short)])
        assert code == 2
        err = capsys.readouterr().err
        assert "data has 30 rows" in err
        assert "at least seq_len = 48" in err

    def test_out_file_written(self, trained, workdir):
        dest = workdir / "fc.csv"
        code, stdout = run(["forecast",
                            "--checkpoint",
                            str(trained["out"] / "checkpoint.dct"),
                            "--data", str(trained["root"] / "data.csv"),
                            "--out", str(dest)])
        assert code == 0
        assert stdout == ""
        assert dest.read_text().startswith("step,")


class TestAblate:
    def test_reports_full_and_variant(self, workdir):
        code, stdout = run(["ablate", "--config", str(workdir / "cfg.json"),
                            "--data", str(workdir / "data.csv"),
                            "--seq-len", "48", "--horizon", "12",
                            "--epochs", "1", "--window-stride", "8",
                            "--seed", "5", "--variants", "fsc"])
        assert code == 0
        payload = json.loads(stdout)
        names = [row["name"] for row in payload["variants"]]
        assert names == ["full", "w/o-FSC"]
        for row in payload["variants"]:
            assert np.isfinite(row["mse"]) and np.isfinite(row["mae"])
            assert "best_epoch" in row

    @pytest.mark.parametrize("model, variants, named", [
        ({"disable_dbct": True}, "dbct,fsc", "model.disable_dbct"),
        ({"disable_fsc": True}, "gpaf", "model.disable_fsc"),
        ({}, "fsc,gpaf, fsc", "'fsc' more than once"),
        ({}, ",", "no stage"),
    ], ids=["base_bypasses_dbct", "base_bypasses_fsc", "repeated", "empty"])
    def test_refused_before_training(self, workdir, tmp_path, capsys,
                                     monkeypatch, model, variants, named):
        # each used to train: rows under a wrong label, one row twice, or
        # no variant at all
        def never(*args, **kwargs):
            raise AssertionError("ablate trained a model")

        monkeypatch.setattr(cli_module, "_train_once", never)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"model": dict(CFG_JSON["model"], **model)}))
        code, stdout = run(["ablate", "--config", str(cfg_path),
                            "--data", str(workdir / "data.csv"),
                            "--seq-len", "48", "--horizon", "12",
                            "--epochs", "1", "--variants", variants])
        assert (code, stdout) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_unknown_variant_exit_2(self, workdir, capsys):
        code, _ = run(["ablate", "--data", str(workdir / "data.csv"),
                       "--seq-len", "48", "--horizon", "12",
                       "--epochs", "1", "--variants", "bogus"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err


NAN = float("nan")

# config file (or extra flags) -> the setting the error message must name
BAD_RUN_SETTINGS = {
    "seed_string": ({"seed": "abc"}, [], "seed"),
    "stride_string": ({"data": {"window_stride": "x"}}, [], "window_stride"),
    "stride_zero": ({"data": {"window_stride": 0}}, [], "window_stride"),
    "stride_flag_zero": ({}, ["--window-stride", "0"], "window_stride"),
    "ratios_string": ({"data": {"ratios": ["a", 1, 1]}}, [], "ratios"),
    "ratios_nan": ({"data": {"ratios": [NAN, 1, 1]}}, [], "ratios"),
    "ratios_zero": ({"data": {"ratios": [0, 1, 1]}}, [], "ratios"),
    "ratios_short": ({"data": {"ratios": [1, 1]}}, [], "ratios"),
    "preset_unknown": ({"data": {"preset": "nope"}}, [], "preset"),
    "clip_negative": ({"train": {"clip_norm": -1}}, [], "clip_norm"),
    "clip_zero": ({"train": {"clip_norm": 0}}, [], "clip_norm"),
    "clip_nan": ({"train": {"clip_norm": NAN}}, [], "clip_norm"),
    "lr_string": ({"train": {"lr": "x"}}, [], "lr"),
    "patience_string": ({"train": {"patience": "2"}}, [], "patience"),
    "lr_flag_nan": ({}, ["--lr", "nan"], "lr"),
    "lr_flag_inf": ({}, ["--lr", "inf"], "lr"),
    "revin_eps_nan": ({"model": {"revin_eps": NAN}}, [], "revin_eps"),
    "correction_eps_nan": ({"model": {"correction": {"eps": NAN}}}, [],
                           "eps"),
    "correction_unknown_key": ({"model": {"correction": {"gamma": 1.0}}}, [],
                               "gamma"),
    "retired_fusion_mode": (
        {"model": {"fusion_mode": "residual_substitution"}}, [], "fusion_mode"),
    "data_not_object": ({"data": [1]}, [], "section 'data'"),
    "model_not_object": ({"model": [1]}, [], "section 'model'"),
    "train_not_object": ({"train": "x"}, [], "section 'train'"),
    "data_unknown_key": ({"data": {"window_strid": 4}}, [], "window_strid"),
    "path_number": ({"data": {"path": 5}}, [], "data.path"),
    "preset_list": ({"data": {"preset": ["ett"]}}, [], "preset"),
    "model_seed": ({"model": {"seed": 3}}, [], "model.seed"),
    "train_seed": ({"seed": 1, "train": {"seed": 3}}, [], "train.seed"),
    "channels_string": ({"model": {"channels": "2"}}, [],
                        "must be an integer"),
}


class TestBadSettings:
    """Settings that used to crash raw, diverge or train silently wrong."""

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("case", list(BAD_RUN_SETTINGS.values()),
                             ids=list(BAD_RUN_SETTINGS))
    def test_run_exit_2(self, workdir, tmp_path, capsys, command, case):
        file_cfg, flags, named = case
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(file_cfg))
        code, stdout = run([command, "--config", str(cfg_path),
                            "--data", str(workdir / "data.csv"),
                            "--out", str(tmp_path / "out"),
                            "--seq-len", "48", "--horizon", "12",
                            "--epochs", "1", "--quiet"] + flags)
        assert code == 2
        assert stdout == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err

    def test_int_past_parse_digit_limit_exit_2(self, workdir, tmp_path,
                                               capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"seed": ' + "1" * 5000 + "}")
        code, stdout = run(["train", "--config", str(cfg_path),
                            "--data", str(workdir / "data.csv"),
                            "--out", str(tmp_path / "out"), "--quiet"])
        assert (code, stdout) == (2, "")
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--period", "0"],
        ["--kind", "freq_shift", "--period2", "0"],
        ["--amplitude", "inf"],
        ["--noise", "nan"],
        ["--kind", "sine_trend", "--slope", "1e308"],
    ], ids=["period_zero", "period2_zero", "amplitude_inf", "noise_nan",
            "slope_overflow"])
    def test_synth_exit_2(self, tmp_path, capsys, flags):
        out = tmp_path / "x.csv"
        with np.errstate(over="ignore"):
            code, _ = run(["synth", "--kind", "sine", "--rows", "300",
                           "--out", str(out)] + flags)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestPrecedence:
    """Where a run's split settings and data file come from, read back
    from the checkpoint it writes."""

    FILE = {"ratios": [5, 3, 2], "preset": "standard", "window_stride": 8}

    def _metadata(self, tmp_path, data_section, flags):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(dict(CFG_JSON, data=data_section)))
        code, _ = run(["train", "--config", str(cfg_path),
                       "--out", str(tmp_path / "out"), "--seq-len", "48",
                       "--horizon", "12", "--epochs", "1", "--quiet"] + flags)
        assert code == 0
        return checkpoint_load(tmp_path / "out" / "checkpoint.dct")[2]

    @pytest.mark.parametrize("flags, ratios, stride", [
        ([], [5.0, 3.0, 2.0], 8),
        (["--preset", "ett", "--window-stride", "3"], [6.0, 2.0, 2.0], 3),
    ], ids=["file_ratios_beat_file_preset", "flags_beat_file"])
    def test_split_settings(self, workdir, tmp_path, flags, ratios, stride):
        meta = self._metadata(
            tmp_path, dict(self.FILE, path=str(workdir / "data.csv")), flags)
        assert meta["split_ratios"] == ratios
        assert meta["window_stride"] == stride

    def test_data_flag_beats_file_path(self, workdir, tmp_path):
        meta = self._metadata(tmp_path, {"path": str(tmp_path / "none.csv")},
                              ["--data", str(workdir / "data.csv")])
        assert meta["dataset"] == "data"


class TestUsage:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0


@pytest.mark.skipif(model_module._openblas("set") is None,
                    reason="numpy does not bundle OpenBLAS here")
class TestBlasThreads:
    @pytest.fixture
    def blas(self, monkeypatch):
        """OpenBLAS's get and set, and the thread count each command saw;
        the count is put back after the test."""
        get, set_ = (model_module._openblas("get"),
                     model_module._openblas("set"))
        seen = []
        real = cli_module.synth_series

        def synth_series(*args, **kwargs):
            seen.append(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(cli_module, "synth_series", synth_series)
        before = get()
        set_(2)
        yield get, seen
        set_(before)

    @pytest.mark.parametrize("rows, code", [(50, 0), (0, 2)],
                             ids=["exit0", "exit2"])
    def test_command_runs_on_one_thread_and_restores_the_count(
            self, blas, monkeypatch, tmp_path, rows, code):
        get, seen = blas
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        before = get()
        assert run(["synth", "--kind", "sine", "--rows", str(rows),
                    "--quiet", "--out", str(tmp_path / "s.csv")])[0] == code
        assert seen == [1]
        assert get() == before

    def test_a_count_set_in_the_environment_wins(self, blas, monkeypatch,
                                                 tmp_path):
        get, seen = blas
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        before = get()
        assert run(["synth", "--kind", "sine", "--rows", "50", "--quiet",
                    "--out", str(tmp_path / "s.csv")])[0] == 0
        assert seen == [before] and get() == before
