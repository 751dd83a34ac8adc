"""End-to-end command line runs, in process via main(argv)."""

import contextlib
import io
import json
import shutil
import struct

import numpy as np
import pytest

from dctnet.cli import main

from helpers import rewrite_header

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

    def test_env_seed_respected_and_flag_wins(self, workdir, monkeypatch):
        monkeypatch.setenv("DCTNET_SEED", "77")
        base = ["train", "--config", str(workdir / "cfg.json"),
                "--data", str(workdir / "data.csv"),
                "--seq-len", "48", "--horizon", "12", "--epochs", "1",
                "--window-stride", "16"]
        code, stdout = run(base + ["--out", str(workdir / "env_run")])
        assert code == 0
        assert json.loads(stdout)["seed"] == 77
        code, stdout = run(base + ["--out", str(workdir / "env_run2"),
                                   "--seed", "5"])
        assert code == 0
        assert json.loads(stdout)["seed"] == 5


def _with_metadata(**fields):
    def edit(header):
        header["metadata"].update(fields)
        return header
    return edit


def _metadata_is(value):
    def edit(header):
        header["metadata"] = value
        return header
    return edit


BAD_METADATA = {
    "metadata_number": _metadata_is(7),
    "metadata_list": _metadata_is(["norm_mean", "norm_std"]),
    "mean_string": _with_metadata(norm_mean="0.0,0.0"),
    "mean_wrong_length": _with_metadata(norm_mean=[0.0, 0.0, 0.0]),
    "mean_nested": _with_metadata(norm_mean=[[0.0, 0.0]]),
    "mean_bool": _with_metadata(norm_mean=[True, 0.0]),
    "std_nan": _with_metadata(norm_std=[float("nan"), 1.0]),
    "std_infinite": _with_metadata(norm_std=[float("inf"), 1.0]),
    "std_zero": _with_metadata(norm_std=[0.0, 1.0]),
    "std_negative": _with_metadata(norm_std=[1.0, -2.0]),
    "std_missing": lambda h: {**h, "metadata": {
        k: v for k, v in h["metadata"].items() if k != "norm_std"}},
    "stride_string": _with_metadata(window_stride="x"),
    "stride_zero": _with_metadata(window_stride=0),
    "stride_float": _with_metadata(window_stride=1.5),
    "ratios_number": _with_metadata(split_ratios=5),
    "ratios_wrong_length": _with_metadata(split_ratios=[6.0, 2.0]),
    "ratios_nonpositive": _with_metadata(split_ratios=[6.0, 0.0, 2.0]),
}


class TestBadCheckpointMetadata:
    @pytest.mark.parametrize("command", ["eval", "forecast"])
    @pytest.mark.parametrize("edit", list(BAD_METADATA.values()),
                             ids=list(BAD_METADATA))
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
    "ratios_string": ({"data": {"ratios": ["a", 1, 1]}}, [], "ratios"),
    "ratios_nan": ({"data": {"ratios": [NAN, 1, 1]}}, [], "ratios"),
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

    @pytest.mark.parametrize("batch_size", ["0", "-1"])
    def test_eval_exit_2(self, trained, capsys, batch_size):
        code, stdout = run(["eval",
                            "--checkpoint",
                            str(trained["out"] / "checkpoint.dct"),
                            "--data", str(trained["root"] / "data.csv"),
                            "--batch-size", batch_size])
        assert code == 2
        assert stdout == ""
        assert "batch_size" in capsys.readouterr().err

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


class TestUsage:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0
