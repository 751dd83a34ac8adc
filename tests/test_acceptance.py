"""Acceptance gate: every shipping criterion, one printed verdict line each.

Run with plain pytest; the CRITERION lines are written past the capture so
they land in the console and in test_output.txt.
"""

import json
import os
import shutil
import time

import numpy as np
import pytest

from dctnet.cli import main as cli_main
from dctnet.data_io import (SPLIT_PRESETS, SeriesTable, SynthParams,
                            compute_stats, load_csv, make_windows,
                            split_chronological, synth_series)
from dctnet.fft import dft, idft
from dctnet.model import (ABLATION_STAGES, ModelConfig, ablation_variant,
                          forward, init_params)
from dctnet.numeric_engine import Tape, Tensor, autocorrelation, backward
from dctnet.revin import (RevINParams, revin_denormalize, revin_normalize)
from dctnet.spectral_correction import CorrectionConfig, apply_correction
from dctnet.trainer import TrainSettings, evaluate, fit, mse_loss

from helpers import naive_dft, stages_passing_input


def report(capsys, num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nCRITERION {num}: {verdict} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def micro_config(**overrides):
    base = dict(channels=2, seq_len=8, pred_len=4, patch_len=4, stride=4,
                latent_dim=8, heads=2, dropout=0.0, seed=17)
    base.update(overrides)
    return ModelConfig(**base)


class TestAcceptance:
    def test_criterion_01_gradient_check(self, capsys):
        t0 = time.monotonic()
        cfg = micro_config()
        params = init_params(cfg)
        rng = np.random.default_rng(42)
        x = rng.standard_normal((2, 8, 2))
        y = rng.standard_normal((2, 4, 2))
        registry = params.named_parameters()

        with Tape() as tape:
            loss = mse_loss(forward(Tensor(x), params, cfg).values, y)
            backward(loss, tape)
        analytic = {k: t.grad.copy() for k, t in registry.items()}

        def loss_value():
            return float(mse_loss(forward(x, params, cfg).values, y).data)

        h = 1e-4
        worst = 0.0
        checked = 0
        ok = True
        for name, t in registry.items():
            flat = t.data.reshape(-1)
            grad = analytic[name].reshape(-1)
            for i in range(flat.size):
                keep = flat[i]
                flat[i] = keep + h
                up = loss_value()
                flat[i] = keep - h
                down = loss_value()
                flat[i] = keep
                fd = (up - down) / (2 * h)
                err = abs(grad[i] - fd)
                bound = 1e-8 + 1e-3 * abs(fd)
                worst = max(worst, err / bound if bound else 0.0)
                if err > bound:
                    ok = False
                checked += 1
        elapsed = time.monotonic() - t0
        ok = ok and elapsed < 60.0
        report(capsys, 1, ok,
               f"{checked} parameter entries vs central differences, "
               f"worst err/bound {worst:.3e}, {elapsed:.1f}s (budget 60s)")

    def test_criterion_02_correction_oracles(self, capsys):
        impulse = np.array([1.0, 0.0, 0.0, 0.0]).reshape(1, 1, 4, 1)
        got = autocorrelation(impulse, False)[0].reshape(-1)
        spectrum = naive_dft(np.array([1.0, 0.0, 0.0, 0.0]))
        oracle = naive_dft(np.abs(spectrum) ** 2, sign=+1).real
        oracle = np.maximum(oracle, 0.0)
        impulse_ok = (np.max(np.abs(got - [0.5, 0, 0, 0])) < 1e-9
                      and np.max(np.abs(got - oracle)) < 1e-9)

        cfg = CorrectionConfig()
        rng = np.random.default_rng(7)
        homo_worst = 0.0
        for _ in range(100):
            h = Tensor(rng.standard_normal((2, 2, 8, 4)))
            x = Tensor(rng.standard_normal((2, 2, 8, 4)))
            c = float(rng.uniform(0.1, 10.0))
            left = apply_correction(Tensor(c * h.data), x, cfg)[1].data
            right = c * apply_correction(h, x, cfg)[1].data
            homo_worst = max(homo_worst, float(np.max(np.abs(left - right))))
        homo_ok = homo_worst < 1e-9

        x = Tensor(rng.standard_normal((2, 2, 8, 4)))
        zero = apply_correction(Tensor(np.zeros(x.shape)), x, cfg)[1].data
        self_alpha = apply_correction(x, x, cfg)[1].data
        edge_ok = (np.all(zero == 0.0)
                   and np.all(self_alpha <= 1.0)
                   and np.all(self_alpha >= 1.0 - 1e-6))
        ok = impulse_ok and homo_ok and edge_ok
        report(capsys, 2, ok,
               f"impulse autocorr exact vs closed form and naive-DFT oracle, "
               f"homogeneity worst {homo_worst:.2e} over 100 triples, "
               f"alpha(0,x)=0 and alpha(x,x) in [1-1e-6, 1]")

    def test_criterion_03_normalization_invertible(self, capsys):
        rng = np.random.default_rng(11)
        worst = 0.0
        instances = 0
        for batch in range(10):
            b, length, c = 100, 24, 3
            x = rng.normal(rng.uniform(-5, 5), rng.uniform(0.5, 3),
                           size=(b, length, c))
            x[:, :, 0] = rng.uniform(-2, 2, size=(b, 1)) \
                + 1e-8 * rng.standard_normal((b, length))
            gamma = rng.uniform(0.5, 2.0, size=c) * rng.choice([-1, 1], size=c)
            params = RevINParams(gamma=Tensor(gamma),
                                 beta=Tensor(rng.standard_normal(c)))
            xt = Tensor(x)
            normed, state = revin_normalize(xt, params)
            back = revin_denormalize(normed, params, state)
            worst = max(worst, float(np.max(np.abs(back.data - x))))
            instances += b
        ok = worst < 1e-9 and instances == 1000
        report(capsys, 3, ok,
               f"denormalize(normalize(x)) = x within {worst:.2e} over "
               f"{instances} instances including near-constant channels")

    def test_criterion_04_transform_unitary(self, capsys):
        rng = np.random.default_rng(13)
        worst_rt = 0.0
        worst_pv = 0.0
        for n in range(1, 65):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            spec = dft(x)
            rt = idft(spec)
            worst_rt = max(worst_rt, float(np.max(np.abs(rt - x))))
            pv = abs(np.sum(np.abs(x) ** 2) - np.sum(np.abs(spec) ** 2))
            worst_pv = max(worst_pv, float(pv))
        ok = worst_rt < 1e-9 and worst_pv < 1e-9
        report(capsys, 4, ok,
               f"lengths 1..64: round trip within {worst_rt:.2e}, "
               f"Parseval within {worst_pv:.2e}")

    def test_criterion_05_bypass_exactness(self, capsys):
        rng = np.random.default_rng(19)
        cfg = micro_config()

        def bits(fc):
            return [t.data.tobytes() for t in (fc.values, fc.alpha)]

        ok = True
        for _ in range(5):
            # parameters off the symmetric init point (norm gains 1, biases 0)
            params = init_params(cfg)
            for t in params.named_parameters().values():
                t.data += 0.1 * rng.standard_normal(t.shape)
            x = rng.standard_normal((2, 8, 2))
            for which in ABLATION_STAGES:
                # the switch calls no stage, and gives the full model's
                # forecast with that stage returning its input
                calls = []
                with stages_passing_input([which], calls):
                    off = forward(x, params, ablation_variant(cfg, which))
                with stages_passing_input([which]):
                    full = forward(x, params, cfg)
                ok = ok and calls == [] and bits(off) == bits(full)
                if which == "fsc":
                    ok = ok and np.all(off.alpha.data == 1.0)
        report(capsys, 5, ok,
               "disabled stages return their input bitwise and the bypassed "
               "correction pins alpha to exactly 1")

    def test_criterion_06_learns_clean_sine(self, capsys):
        t0 = time.monotonic()
        table = synth_series("sine", 2000, 1, seed=0)
        tr, va, te = split_chronological(table, SPLIT_PRESETS["ett"],
                                         min_rows=192)
        stats = compute_stats(tr)
        train_ds = make_windows(tr, 96, 96, stats, split_tag="train")
        val_ds = make_windows(va, 96, 96, stats, split_tag="val")
        test_ds = make_windows(te, 96, 96, stats, split_tag="test")

        persistence = float(np.mean(
            (test_ds.inputs[:, -1:, :] - test_ds.targets) ** 2))
        train_mean = float(np.mean(test_ds.targets ** 2))

        cfg = ModelConfig(channels=1)
        params, _ = fit(init_params(cfg), cfg, train_ds, val_ds,
                        TrainSettings(), log=lambda m: None)
        mse = evaluate(params, cfg, test_ds).mse
        elapsed = time.monotonic() - t0
        ok = (mse < 0.1 * persistence and mse < 0.5 * train_mean
              and elapsed < 600.0)
        report(capsys, 6, ok,
               f"test MSE {mse:.4f} vs 0.1x persistence "
               f"{0.1 * persistence:.4f} and 0.5x train-mean "
               f"{0.5 * train_mean:.4f}, {elapsed:.0f}s (budget 600s)")

    def test_criterion_07_shift_robustness(self, capsys):
        sp = SynthParams(period=24.0, period2=16.0, shift_row=1350,
                         noise=0.05)
        table = synth_series("freq_shift", 1500, 2, seed=100, params=sp)
        tr, va, te = split_chronological(table, SPLIT_PRESETS["ett"],
                                         min_rows=120)
        stats = compute_stats(tr)
        train_ds = make_windows(tr, 96, 24, stats, split_tag="train")
        val_ds = make_windows(va, 96, 24, stats, split_tag="val")
        test_ds = make_windows(te, 96, 24, stats, split_tag="test")
        # the regime change sits at row 1350, inside the 1200..1499 test span

        full_mses, bypass_mses = [], []
        for seed in range(5):
            for bucket, bypass in ((full_mses, False), (bypass_mses, True)):
                cfg = ModelConfig(channels=2, seq_len=96, pred_len=24,
                                  patch_len=16, stride=8, latent_dim=16,
                                  heads=2, seed=seed)
                if bypass:
                    cfg = ablation_variant(cfg, "fsc")
                settings = TrainSettings(lr=1e-3, epochs=20, batch_size=32,
                                         patience=5)
                params, _ = fit(init_params(cfg), cfg, train_ds, val_ds,
                                settings, log=lambda m: None)
                bucket.append(evaluate(params, cfg, test_ds).mse)

        median_full = float(np.median(full_mses))
        median_bypass = float(np.median(bypass_mses))
        ok = median_full <= 1.05 * median_bypass
        report(capsys, 7, ok,
               f"median test MSE over 5 seeds: full {median_full:.4f}, "
               f"correction bypassed {median_bypass:.4f}, ratio "
               f"{median_full / median_bypass:.4f} (limit 1.05)")

    def test_criterion_08_benchmark_ballpark(self, capsys):
        path = os.environ.get("DCTNET_ETTH1_CSV")
        if not path:
            with capsys.disabled():
                print("\nCRITERION 8: SKIP - set DCTNET_ETTH1_CSV to a local "
                      "ETTh1 csv to run the non-gating ballpark check")
            pytest.skip("DCTNET_ETTH1_CSV not set")
        t0 = time.monotonic()
        table = load_csv(path)
        tr, va, te = split_chronological(table, SPLIT_PRESETS["ett"],
                                         min_rows=192)
        stats = compute_stats(tr)
        train_ds = make_windows(tr, 96, 96, stats, split_tag="train")
        val_ds = make_windows(va, 96, 96, stats, split_tag="val")
        test_ds = make_windows(te, 96, 96, stats, split_tag="test")
        cfg = ModelConfig(channels=table.channels)
        params, _ = fit(init_params(cfg), cfg, train_ds, val_ds,
                        TrainSettings(), log=lambda m: None)
        mse = evaluate(params, cfg, test_ds).mse
        elapsed = time.monotonic() - t0
        ok = mse <= 0.55 and elapsed < 1800.0
        verdict = "PASS" if ok else "FAIL (non-gating)"
        with capsys.disabled():
            print(f"\nCRITERION 8: {verdict} - standardized test MSE "
                  f"{mse:.4f} (target 0.55), {elapsed:.0f}s (budget 1800s)")
        if not ok:
            pytest.xfail(f"ballpark check missed: mse {mse:.4f}")

    def test_criterion_09_training_is_deterministic(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(
            {"model": {"latent_dim": 16, "heads": 2, "patch_len": 8,
                       "stride": 4}}))
        data_path = tmp_path / "data.csv"
        code = cli_main(["synth", "--kind", "sine", "--rows", "300",
                         "--channels", "1", "--seed", "4",
                         "--out", str(data_path)])
        assert code == 0
        out = tmp_path / "run"
        argv = ["train", "--config", str(cfg_path), "--data", str(data_path),
                "--out", str(out), "--seq-len", "48", "--horizon", "12",
                "--epochs", "2", "--seed", "9", "--window-stride", "4",
                "--quiet"]
        assert cli_main(argv) == 0
        saved = tmp_path / "first"
        saved.mkdir()
        shutil.copy(out / "checkpoint.dct", saved / "checkpoint.dct")
        shutil.copy(out / "train_report.json", saved / "train_report.json")
        assert cli_main(argv) == 0
        same_ckpt = (out / "checkpoint.dct").read_bytes() == \
            (saved / "checkpoint.dct").read_bytes()
        same_report = (out / "train_report.json").read_bytes() == \
            (saved / "train_report.json").read_bytes()
        ok = same_ckpt and same_report
        report(capsys, 9, ok,
               "two identical-flag training runs wrote byte-identical "
               "checkpoint and report")

    def test_criterion_10_split_protocol(self, capsys):
        expected = {
            ("ett", 100): (60, 20, 20),
            ("ett", 1000): (600, 200, 200),
            ("ett", 17420): (10452, 3484, 3484),
            ("standard", 100): (70, 10, 20),
            ("standard", 1000): (700, 100, 200),
            ("standard", 17420): (12194, 1742, 3484),
        }
        ok = True
        for (preset, rows), want in expected.items():
            table = SeriesTable(np.arange(rows, dtype=float)[:, None], ["ch0"])
            tr, va, te = split_chronological(table, SPLIT_PRESETS[preset])
            got = (tr.rows, va.rows, te.rows)
            if got != want:
                ok = False

        table = synth_series("sine", 1000, 1, seed=1,
                             params=SynthParams(noise=0.2))
        tr, _, _ = split_chronological(table, SPLIT_PRESETS["ett"])
        base = compute_stats(tr)
        tampered = table.values.copy()
        tampered[600:] *= 50.0
        tr2, _, _ = split_chronological(
            SeriesTable(tampered, table.channel_names), SPLIT_PRESETS["ett"])
        shadow = compute_stats(tr2)
        no_lookahead = (np.array_equal(base.mean, shadow.mean)
                        and np.array_equal(base.std, shadow.std))
        ok = ok and no_lookahead
        report(capsys, 10, ok,
               "6:2:2 and 7:1:2 splits exact at lengths 100/1000/17420; "
               "standardization ignores validation and test rows")
