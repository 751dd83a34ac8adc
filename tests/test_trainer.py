"""Loss, Adam optimizer, gradient clipping, and the fit/evaluate loop."""

import dataclasses
import json
import re
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dctnet.model as model_module
from dctnet import trainer
from dctnet.numeric_engine import Tape, Tensor, backward
from dctnet.data_io import (NormStats, WindowedDataset, checkpoint_save,
                            compute_stats, make_windows, synth_series)
from dctnet.errors import ConfigError, ContractError, DataError, TrainingError
from dctnet.model import ModelConfig, forward, init_params
from dctnet.rng import make_rng
from dctnet.trainer import (OptimizerState, TrainSettings, adam_step,
                            clip_global_norm, evaluate, fit, flatten_grads,
                            mse_loss)

from helpers import ReferenceAdam, reference_clip, tiny_configs


def micro_config(**overrides):
    base = dict(channels=1, seq_len=8, pred_len=4, patch_len=4, stride=4,
                latent_dim=8, heads=2, dropout=0.0, seed=11)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_dataset(n_windows, seed=0, cfg=None):
    cfg = cfg or micro_config()
    rows = cfg.seq_len + cfg.pred_len + n_windows - 1
    table = synth_series("sine", rows, cfg.channels, seed)
    stats = compute_stats(table)
    return make_windows(table, cfg.seq_len, cfg.pred_len, stats,
                        split_tag="train")


def scaled(ds, factor):
    """``ds`` with its windows and statistics multiplied by ``factor``."""
    stats = NormStats(ds.stats.mean * factor, ds.stats.std * factor)
    return WindowedDataset(ds.inputs * factor, ds.targets * factor, ds.split,
                           stats)


def whole_batch_result(params, cfg, ds, batch_size):
    """``evaluate`` as one unblocked forward per batch: the reference its
    cache-sized blocks must match bit for bit."""
    sq_sum = abs_sum = alpha_sum = 0.0
    count = alpha_count = 0
    for start in range(0, len(ds), batch_size):
        values, alpha = model_module._forward_block(
            Tensor(ds.inputs[start:start + batch_size]), params, cfg)
        err = values.data - ds.targets[start:start + batch_size]
        sq_sum += float((err * err).sum())
        abs_sum += float(np.abs(err).sum())
        count += err.size
        alpha_sum += float(np.sum(alpha.data))
        alpha_count += alpha.data.size
    return trainer.EvalResult(sq_sum / count, abs_sum / count,
                              alpha_sum / alpha_count, len(ds))


class TestLosses:
    def test_perfect_prediction_is_zero(self):
        p = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        t = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert mse_loss(p, t).data == 0.0

    def test_unit_offset(self):
        p = Tensor(np.array([0.0, 0.0]))
        t = np.array([1.0, 1.0])
        assert mse_loss(p, t).data == 1.0

    def test_hand_case(self):
        p = Tensor(np.array([1.0, 3.0]))
        t = np.array([2.0, 5.0])
        # errors -1, -2 -> mse (1+4)/2
        assert mse_loss(p, t).data == pytest.approx(2.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            mse_loss(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_mse_gradient(self):
        with Tape() as tape:
            p = Tensor(np.array([1.0, 3.0]), requires_grad=True)
            loss = mse_loss(p, np.array([2.0, 5.0]))
            backward(loss, tape)
        # d/dp mean((p-t)^2) = 2(p-t)/n
        np.testing.assert_allclose(p.grad, [-1.0, -2.0])


class TestAdam:
    def test_first_step_frozen_value(self):
        # theta=0, g=1, lr=1e-3, defaults: theta' = -lr*g/(|g|+eps) after
        # bias correction, computed independently with plain floats
        params = {"w": Tensor(np.array([0.0]), requires_grad=True)}
        state = OptimizerState.for_params(params, lr=1e-3)
        adam_step(params, np.array([1.0]), state)
        assert state.t == 1
        assert params["w"].data[0] == pytest.approx(
            -0.0009999999900000001, abs=0, rel=1e-15)

    def test_two_steps_match_scalar_recurrence(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        theta, m, v = 0.5, 0.0, 0.0
        gs = [2.0, -1.5]
        for i, g in enumerate(gs, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            mh = m / (1 - b1 ** i)
            vh = v / (1 - b2 ** i)
            theta -= lr * mh / (np.sqrt(vh) + eps)

        params = {"w": Tensor(np.array([0.5]), requires_grad=True)}
        state = OptimizerState.for_params(params, lr=lr)
        for g in gs:
            adam_step(params, np.array([g]), state)
        assert params["w"].data[0] == pytest.approx(theta, rel=1e-14)

    def test_zero_gradient_keeps_value(self):
        params = {"w": Tensor(np.array([3.0]), requires_grad=True)}
        state = OptimizerState.for_params(params, lr=0.1)
        adam_step(params, np.array([0.0]), state)
        assert params["w"].data[0] == 3.0
        assert state.m[0] == 0.0 and state.v[0] == 0.0

    def test_zero_lr_keeps_value(self):
        params = {"w": Tensor(np.array([3.0]), requires_grad=True)}
        state = OptimizerState.for_params(params, lr=0.0)
        adam_step(params, np.array([7.0]), state)
        assert params["w"].data[0] == 3.0

    def test_missing_gradient_rejected(self):
        params = {"w": Tensor(np.array([0.0]), requires_grad=True),
                  "b": Tensor(np.array([0.0]), requires_grad=True)}
        with pytest.raises(ContractError, match="'b'"):
            flatten_grads(params, {"w": np.array([1.0])})

    @pytest.mark.parametrize("shape", [(1,), (2, 3), (3, 1), ()])
    def test_misshapen_gradient_rejected(self, shape):
        # a [1] gradient would broadcast over w, and a [2, 3] one would
        # shift every later parameter's slice of the flat vector
        params = {"w": Tensor(np.zeros(3), requires_grad=True),
                  "b": Tensor(np.zeros(2), requires_grad=True)}
        with pytest.raises(ContractError,
                           match=rf"'w' is {re.escape(str(shape))}, "
                                 r"the parameter is \(3,\)"):
            flatten_grads(params, {"w": np.ones(shape), "b": np.ones(2)})

    def test_flat_gradient_in_registry_order(self):
        params = {"w": Tensor(np.zeros((2, 2)), requires_grad=True),
                  "b": Tensor(np.zeros(1), requires_grad=True)}
        grads = {"b": np.array([9.0]),
                 "w": np.arange(4.0).reshape(2, 2).T.copy(order="F")}
        np.testing.assert_array_equal(flatten_grads(params, grads),
                                      [0.0, 2.0, 1.0, 3.0, 9.0])

    def test_wrong_length_vector_rejected(self):
        params = {"w": Tensor(np.zeros(3), requires_grad=True)}
        state = OptimizerState.for_params(params, lr=0.1)
        with pytest.raises(ContractError, match=r"\(4,\)"):
            adam_step(params, np.ones(4), state)
        assert state.t == 0

    def test_parameters_become_views_of_one_vector(self):
        params = {"w": Tensor(np.ones((2, 3)), requires_grad=True),
                  "b": Tensor(np.ones(2), requires_grad=True)}
        state = OptimizerState.for_params(params, lr=0.1)
        adam_step(params, np.ones(8), state)
        w, b = params["w"].data, params["b"].data
        assert w.shape == (2, 3) and b.shape == (2,)
        assert w.base is not None and w.base is b.base
        assert w.flags.c_contiguous and b.flags.c_contiguous
        # a parameter rebound meanwhile is what the next step reads
        params["b"].data = np.full(2, 5.0)
        state.lr = 0.0
        adam_step(params, np.zeros(8), state)
        np.testing.assert_array_equal(params["b"].data, 5.0)

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), -0.1, "0.1"])
    def test_bad_lr_rejected(self, lr):
        params = {"w": Tensor(np.array([0.0]), requires_grad=True)}
        with pytest.raises(ConfigError, match="learning rate"):
            OptimizerState.for_params(params, lr)


class TestClip:
    def test_scales_when_over_limit(self):
        grad = np.array([3.0, 4.0])
        norm = clip_global_norm(grad, [2], 1.0)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(grad, [0.6, 0.8])

    def test_untouched_under_limit(self):
        grad = np.array([0.3, 0.4])
        norm = clip_global_norm(grad, [2], 5.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_allclose(grad, [0.3, 0.4])

    def test_norm_spans_all_entries(self):
        grad = np.array([3.0, 4.0])
        norm = clip_global_norm(grad, [1, 1], 2.5)
        assert norm == pytest.approx(5.0)
        np.testing.assert_allclose(grad, [1.5, 2.0])

    def test_norm_of_squares_past_float64(self):
        # 9e400 + 1.6e401 overflows; the norm 5e200 does not
        grad = np.array([3e200, 4e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = clip_global_norm(grad, [1, 1], 2.5)
        assert norm == pytest.approx(5e200, rel=1e-15)
        np.testing.assert_allclose(grad, [1.5, 2.0], rtol=1e-15)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_nonfinite_entry_gives_nonfinite_norm(self, bad):
        grad = np.array([1e300, bad])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norm = clip_global_norm(grad, [2], 1.0)
        assert not np.isfinite(norm)

    def test_norm_past_float64_is_infinite(self):
        grad = np.full(4, 1.5e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert clip_global_norm(grad, [4], None) == np.inf
        np.testing.assert_array_equal(grad, 1.5e308)


_SHAPES = st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=3),
                   min_size=1, max_size=6)


class TestFlatMatchesPerTensor:
    @settings(max_examples=60, deadline=None)
    @given(shapes=_SHAPES, steps=st.integers(1, 4),
           log_scale=st.floats(-3.0, 3.0),
           clip=st.sampled_from([None, 0.25, 4.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_same_bits_as_reference(self, shapes, steps, log_scale, clip,
                                    seed):
        # clip is a multiple of the gradient's expected norm: 0.25 almost
        # always fires, 4.0 almost never
        rng = np.random.default_rng(seed)
        names = [f"p{i}" for i in range(len(shapes))]
        init = {k: rng.standard_normal(s) for k, s in zip(names, shapes)}
        flat = {k: Tensor(a.copy(), requires_grad=True)
                for k, a in init.items()}
        ref = {k: Tensor(a.copy(), requires_grad=True)
               for k, a in init.items()}
        sizes = [a.size for a in init.values()]
        scale = 10.0 ** log_scale
        max_norm = None if clip is None else clip * scale * sum(sizes) ** 0.5
        state = OptimizerState.for_params(flat, lr=1e-2)
        ref_state = ReferenceAdam.for_params(ref, lr=1e-2)
        for _ in range(steps):
            grads = {k: rng.standard_normal(s) * scale
                     for k, s in zip(names, shapes)}
            grad = flatten_grads(flat, grads)
            norm = clip_global_norm(grad, sizes, max_norm)
            adam_step(flat, grad, state)
            ref_grads = dict(grads)
            ref_norm = reference_clip(ref_grads, max_norm)
            ref_state.step(ref, ref_grads)
            assert np.float64(norm).tobytes() == np.float64(ref_norm).tobytes()
            for k in names:
                assert flat[k].data.shape == ref[k].data.shape
                assert flat[k].data.tobytes() == ref[k].data.tobytes()

    @pytest.mark.parametrize("clip_norm", [5.0, 0.01, None])
    def test_fit_ends_at_reference_bytes(self, monkeypatch, clip_norm):
        cfg = micro_config(channels=2, dropout=0.1, seed=4)
        train = tiny_dataset(10, seed=1, cfg=cfg)
        val = tiny_dataset(4, seed=2, cfg=cfg)
        settings = TrainSettings(lr=1e-2, epochs=3, batch_size=4,
                                 patience=10, clip_norm=clip_norm)
        plain, _ = fit(init_params(cfg), cfg, train, val, settings, log=None)

        params = init_params(cfg)
        registry = params.named_parameters()
        ref_state = ReferenceAdam.for_params(registry, settings.lr)
        step_grads, fired = {}, []

        def clip(grad, sizes, max_norm):
            step_grads.clear()
            step_grads.update({k: t.grad for k, t in registry.items()})
            norm = reference_clip(step_grads, max_norm)
            fired.append(max_norm is not None and norm > max_norm)
            return norm

        def adam(params, grad, state):
            ref_state.step(params, step_grads)

        monkeypatch.setattr(trainer, "clip_global_norm", clip)
        monkeypatch.setattr(trainer, "adam_step", adam)
        fit(params, cfg, train, val, settings, log=None)
        assert len(fired) == 9
        if clip_norm == 0.01:
            assert all(fired)
        for k, t in plain.named_parameters().items():
            assert t.data.tobytes() == registry[k].data.tobytes(), k


class TestSettings:
    @pytest.mark.parametrize("field,value", [
        ("lr", float("nan")), ("lr", float("inf")), ("lr", "x"),
        ("clip_norm", -1.0), ("clip_norm", 0.0), ("clip_norm", float("nan")),
        ("clip_norm", float("inf")), ("epochs", "2"), ("batch_size", 2.0),
        ("patience", True),
    ])
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            TrainSettings(**{field: value})

    def test_clipping_can_be_off(self):
        assert TrainSettings(clip_norm=None).clip_norm is None


class TestFit:
    def test_loss_decreases_on_small_problem(self):
        cfg = micro_config()
        train = tiny_dataset(12, seed=1, cfg=cfg)
        val = tiny_dataset(4, seed=2, cfg=cfg)
        settings = TrainSettings(lr=1e-3, epochs=4, batch_size=4,
                                 patience=10)
        params = init_params(cfg)
        _, report = fit(params, cfg, train, val, settings, log=lambda m: None)
        assert report.train_loss[-1] < report.train_loss[0]
        assert report.epochs_run == 4
        assert len(report.val_mse) == 4

    def test_patience_zero_runs_one_epoch(self):
        cfg = micro_config()
        train = tiny_dataset(6, cfg=cfg)
        settings = TrainSettings(lr=1e-4, epochs=10, batch_size=4,
                                 patience=0)
        _, report = fit(init_params(cfg), cfg, train, train, settings,
                        log=lambda m: None)
        assert report.epochs_run == 1

    @pytest.mark.parametrize("patience, last", [(0, 0), (2, 2)])
    def test_stop_line_states_stale_epochs_and_patience(self, patience,
                                                        last):
        # at lr 0 the parameters never move, so only epoch 0 improves
        cfg = micro_config()
        train = tiny_dataset(6, cfg=cfg)
        lines = []
        _, report = fit(init_params(cfg), cfg, train, train,
                        TrainSettings(lr=0.0, epochs=10, batch_size=4,
                                      patience=patience), log=lines.append)
        assert report.epochs_run == last + 1 and report.best_epoch == 0
        assert lines[-1] == (f"stopping after epoch {last}: {patience} "
                             f"epoch(s) without improvement, patience "
                             f"{patience}")

    def test_same_seed_same_history(self):
        cfg = micro_config(dropout=0.2, seed=7)
        train = tiny_dataset(10, cfg=cfg)
        val = tiny_dataset(3, seed=5, cfg=cfg)
        settings = TrainSettings(lr=1e-3, epochs=3, batch_size=4,
                                 patience=10)
        _, r1 = fit(init_params(cfg), cfg, train, val, settings,
                    log=lambda m: None)
        _, r2 = fit(init_params(cfg), cfg, train, val, settings,
                    log=lambda m: None)
        assert r1.train_loss == r2.train_loss
        assert r1.val_mse == r2.val_mse

    @settings(max_examples=30, deadline=None)
    @given(cfg=tiny_configs(), seed=st.integers(0, 2**16))
    def test_same_seed_same_checkpoint_bytes(self, cfg, seed):
        cfg = dataclasses.replace(cfg, seed=seed)
        train = tiny_dataset(6, seed=1, cfg=cfg)
        val = tiny_dataset(2, seed=2, cfg=cfg)
        train_settings = TrainSettings(lr=1e-2, epochs=2, batch_size=4,
                                       patience=2)
        with tempfile.TemporaryDirectory() as tmp:
            files = []
            for run in range(2):
                params, _ = fit(init_params(cfg), cfg, train, val,
                                train_settings, log=lambda m: None)
                path = Path(tmp) / f"run{run}.dct"
                checkpoint_save(params, cfg, path, metadata={"seed": seed})
                files.append(path.read_bytes())
        assert files[0] == files[1]

    @pytest.mark.parametrize("inputs, targets", [
        ((5, 8, 1), (5, 1, 1)), ((5, 8, 1), (5, 5, 1)), ((5, 9, 1), (5, 4, 1)),
    ], ids=["one_target_step", "long_targets", "long_inputs"])
    def test_windows_off_the_config_name_the_split(self, inputs, targets):
        # unchecked, [W, 1, C] targets would broadcast against the forecast
        # and evaluate would divide the error by the wrong count
        cfg = micro_config()
        rng = np.random.default_rng(0)
        ds = WindowedDataset(rng.standard_normal(inputs),
                             rng.standard_normal(targets), "test",
                             NormStats(np.zeros(1), np.ones(1)))
        message = (rf"^test windows are \({inputs[1]}, 1\) -> "
                   rf"\({targets[1]}, 1\), config needs \(8, 1\) -> "
                   rf"\(4, 1\)$")
        with pytest.raises(DataError, match=message):
            evaluate(init_params(cfg), cfg, ds)
        with pytest.raises(DataError, match=message):
            fit(init_params(cfg), cfg, tiny_dataset(4, cfg=cfg), ds,
                TrainSettings(epochs=1), log=None)

    def test_empty_train_set_rejected(self):
        cfg = micro_config()
        stats = NormStats(np.zeros(1), np.ones(1))
        empty = WindowedDataset(np.zeros((0, 8, 1)), np.zeros((0, 4, 1)),
                                "train", stats)
        with pytest.raises(DataError):
            fit(init_params(cfg), cfg, empty, empty,
                TrainSettings(epochs=1), log=lambda m: None)

    def test_nonfinite_loss_reported_with_position(self):
        cfg = micro_config()
        train = tiny_dataset(4, cfg=cfg)
        params = init_params(cfg)
        params.head_bias.data = np.full_like(params.head_bias.data, 1e200)
        settings = TrainSettings(lr=1e-4, epochs=2, batch_size=2,
                                 patience=5)
        with np.errstate(over="ignore"):
            with pytest.raises(TrainingError, match="epoch 0, step 0"):
                fit(params, cfg, train, train, settings, log=lambda m: None)

    def test_nonfinite_forecast_reported_with_position(self):
        cfg = micro_config()
        train = tiny_dataset(4, cfg=cfg)
        params = init_params(cfg)
        params.head_weight.data = np.full_like(params.head_weight.data,
                                               1e308)
        settings = TrainSettings(lr=1e-4, epochs=2, batch_size=2,
                                 patience=5)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingError,
                               match="epoch 0, step 0: forecast contains"):
                fit(params, cfg, train, train, settings, log=lambda m: None)

    def test_collapsed_revin_gain_reported_with_position(self):
        cfg = micro_config()
        train = tiny_dataset(4, cfg=cfg)
        params = init_params(cfg)
        params.revin.gamma.data[0] = 0.0
        settings = TrainSettings(lr=1e-4, epochs=2, batch_size=2,
                                 patience=5)
        with pytest.raises(TrainingError, match="epoch 0, step 0"):
            fit(params, cfg, train, train, settings, log=lambda m: None)

    def test_nonfinite_validation_forecast_names_epoch(self):
        cfg = micro_config()
        train = tiny_dataset(4, cfg=cfg)
        val = tiny_dataset(2, seed=1, cfg=cfg)
        val.inputs[:] = 1e307 * np.sign(val.inputs)
        settings = TrainSettings(lr=1e-4, epochs=2, batch_size=2,
                                 patience=5)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError, match="epoch 0, validation"):
                fit(init_params(cfg), cfg, train, val, settings,
                    log=lambda m: None)

    def test_nonfinite_validation_mse_names_epoch(self):
        cfg = micro_config()
        train = tiny_dataset(4, cfg=cfg)
        val = tiny_dataset(2, seed=1, cfg=cfg)
        val.targets[:] = 1e200          # finite forecasts, overflowing error
        settings = TrainSettings(lr=1e-4, epochs=2, batch_size=2,
                                 patience=5)
        with np.errstate(all="ignore"):
            with pytest.raises(TrainingError,
                               match="epoch 0, validation: .*mse overflows"):
                fit(init_params(cfg), cfg, train, val, settings,
                    log=lambda m: None)

    def test_nonfinite_gradient_norm_stops_before_adam(self, monkeypatch):
        cfg = micro_config()
        train = tiny_dataset(4, cfg=cfg)
        params = init_params(cfg)
        real_adam = trainer.adam_step
        stepped = {}

        def poisoned_backward(loss, tape):
            backward(loss, tape)
            if stepped:                      # every step after the first
                params.head_bias.grad[0] = np.nan

        def adam_step(registry, grads, state):
            real_adam(registry, grads, state)
            stepped.update({k: t.data.copy() for k, t in registry.items()})

        monkeypatch.setattr(trainer, "backward", poisoned_backward)
        monkeypatch.setattr(trainer, "adam_step", adam_step)
        settings = TrainSettings(lr=1e-4, epochs=2, batch_size=2,
                                 patience=5)
        with pytest.raises(TrainingError,
                           match="epoch 0, step 1: non-finite gradient norm"):
            fit(params, cfg, train, train, settings, log=lambda m: None)
        for k, t in params.named_parameters().items():
            np.testing.assert_array_equal(t.data, stepped[k])

    def test_trains_on_data_scaled_to_1e100(self):
        # the loss is on the data's scale, so the gradients' squares pass
        # float64's range; the clipped steps match the unit-scale run's
        cfg = micro_config(seed=3)
        settings = TrainSettings(lr=1e-3, epochs=2, batch_size=4,
                                 patience=5, clip_norm=1e-3)
        train = tiny_dataset(8, seed=1, cfg=cfg)
        val = tiny_dataset(4, seed=2, cfg=cfg)
        _, unit = fit(init_params(cfg), cfg, train, val, settings, log=None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, big = fit(init_params(cfg), cfg, scaled(train, 1e100),
                         scaled(val, 1e100), settings, log=None)
        assert big.epochs_run == 2
        np.testing.assert_allclose(np.array(big.train_loss) / 1e200,
                                   unit.train_loss, rtol=1e-4)

    def test_unclipped_overflowing_gradient_stops_before_adam(self,
                                                             monkeypatch):
        # with clipping off, windows scaled by 1e100 give gradients near
        # 1e200, whose squares would make Adam's second moment inf and
        # every update 0
        cfg = micro_config(seq_len=24, pred_len=8, latent_dim=8)
        settings = TrainSettings(lr=1e-3, epochs=2, batch_size=4,
                                 patience=5, clip_norm=None)
        params = init_params(cfg)
        start = {k: t.data.copy() for k, t in params.named_parameters().items()}
        calls = []
        real_adam = trainer.adam_step
        monkeypatch.setattr(trainer, "adam_step", lambda *args: (
            calls.append(args), real_adam(*args)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingError, match=r"epoch 0, step 0: "
                               r"gradient entries past 1.34e\+154 \(norm "
                               r".*\) overflow Adam's second moment"):
                fit(params, cfg,
                    scaled(tiny_dataset(8, seed=1, cfg=cfg), 1e100),
                    scaled(tiny_dataset(4, seed=2, cfg=cfg), 1e100),
                    settings, log=None)
        assert calls == []
        for k, t in params.named_parameters().items():
            np.testing.assert_array_equal(t.data, start[k])

    def test_overflow_check_makes_no_pass_on_ordinary_steps(self,
                                                            monkeypatch):
        # the largest entry is searched for only past the norm's bound
        cfg = micro_config()
        seen = []
        real_abs = np.abs
        monkeypatch.setattr(trainer.np, "abs", lambda a, *args, **kwargs: (
            seen.append(np.shape(a)), real_abs(a, *args, **kwargs))[1])
        fit(init_params(cfg), cfg, tiny_dataset(8, cfg=cfg),
            tiny_dataset(4, seed=1, cfg=cfg),
            TrainSettings(epochs=1, batch_size=4, clip_norm=None), log=None)
        n = sum(t.data.size for t in init_params(cfg).named_parameters()
                .values())
        assert (n,) not in seen

    def test_mismatched_windows_are_data_error(self):
        cfg = micro_config()
        wide = tiny_dataset(4, cfg=micro_config(channels=2))
        with pytest.raises(DataError, match="train windows"):
            fit(init_params(cfg), cfg, wide, wide, TrainSettings(epochs=1),
                log=lambda m: None)

    def test_best_epoch_weights_restored(self):
        cfg = micro_config()
        train = tiny_dataset(10, seed=3, cfg=cfg)
        val = tiny_dataset(4, seed=4, cfg=cfg)
        settings = TrainSettings(lr=1e-2, epochs=6, batch_size=4,
                                 patience=10)
        params, report = fit(init_params(cfg), cfg, train, val, settings,
                             log=lambda m: None)
        best = min(range(len(report.val_mse)), key=report.val_mse.__getitem__)
        assert report.best_epoch == best
        # returned weights reproduce the recorded best validation score
        result = evaluate(params, cfg, val)
        assert result.mse == pytest.approx(report.val_mse[best], rel=1e-12)

    def test_validation_does_not_touch_weights(self):
        cfg = micro_config()
        val = tiny_dataset(4, cfg=cfg)
        params = init_params(cfg)
        before = {k: v.data.copy()
                  for k, v in params.named_parameters().items()}
        evaluate(params, cfg, val)
        for k, v in params.named_parameters().items():
            np.testing.assert_array_equal(v.data, before[k])
            assert v.grad is None

    def test_report_json_fields(self):
        cfg = micro_config(seed=2)
        train = tiny_dataset(4, cfg=cfg)
        _, report = fit(init_params(cfg), cfg, train, train,
                        TrainSettings(epochs=1), log=lambda m: None)
        payload = json.loads(json.dumps(dataclasses.asdict(report),
                                        allow_nan=False))
        assert "wall_clock_seconds" not in payload
        assert payload["seed"] == 2
        assert payload["config"]["channels"] == 1


class TestEvaluate:
    def test_empty_dataset_rejected(self):
        cfg = micro_config()
        stats = NormStats(np.zeros(1), np.ones(1))
        empty = WindowedDataset(np.zeros((0, 8, 1)), np.zeros((0, 4, 1)),
                                "test", stats)
        with pytest.raises(DataError):
            evaluate(init_params(cfg), cfg, empty)

    def test_overflowing_forecast_names_split_and_windows(self):
        cfg = micro_config()
        params = init_params(cfg)
        params.head_weight.data[:] = 1e308
        # 1-window blocks, on the caller alone and beside a helper thread,
        # which must inherit the errstate; whole batches
        for block_bytes, helpers in ((1, 0), (1, 1), (2**62, 0)):
            with pytest.MonkeyPatch.context() as mp, \
                    np.errstate(all="ignore"):
                mp.setattr(model_module, "_BLOCK_BYTES", block_bytes)
                mp.setattr(model_module, "_helpers", lambda blocks: helpers)
                with pytest.raises(DataError, match="train split, windows "
                                   "0-1: forecast contains NaN/Inf$"):
                    evaluate(params, cfg, tiny_dataset(4, cfg=cfg),
                             batch_size=2)

    def test_overflowing_score_names_split_and_metric(self):
        cfg = micro_config()
        ds = tiny_dataset(3, cfg=cfg)
        ds.targets[:] = 1e200
        with np.errstate(all="ignore"):
            with pytest.raises(DataError, match="train split: mse overflows"):
                evaluate(init_params(cfg), cfg, ds)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        cfg = micro_config()
        with pytest.raises(ConfigError):
            evaluate(init_params(cfg), cfg, tiny_dataset(3, cfg=cfg),
                     batch_size=batch_size)

    def test_matches_manual_forward(self):
        cfg = micro_config()
        ds = tiny_dataset(5, seed=9, cfg=cfg)
        params = init_params(cfg)
        result = evaluate(params, cfg, ds)
        fc = forward(ds.inputs, params, cfg)
        err = fc.values.data - ds.targets
        assert result.mse == pytest.approx(float(np.mean(err ** 2)))
        assert result.mae == pytest.approx(float(np.mean(np.abs(err))))
        assert result.num_windows == 5
        assert np.isfinite(result.alpha_mean)

    @settings(max_examples=50, deadline=None)
    @given(cfg=tiny_configs(), batch_size=st.sampled_from([1, 2, 7, 64]),
           n_windows=st.integers(1, 20), seed=st.integers(0, 99))
    @example(cfg=ModelConfig(channels=1, seq_len=8, pred_len=1, patch_len=8,
                             stride=1, latent_dim=4, heads=2, depth=2,
                             dropout=0.0),
             batch_size=2, n_windows=2, seed=0)     # one token per window
    def test_block_size_leaves_result_bitwise(self, cfg, batch_size,
                                              n_windows, seed):
        ds = tiny_dataset(n_windows, seed=seed, cfg=cfg)
        params = init_params(cfg)
        want = whole_batch_result(params, cfg, ds, batch_size)
        for block_bytes in (1, 2**62):      # 1-window blocks, whole batches
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(model_module, "_BLOCK_BYTES", block_bytes)
                assert evaluate(params, cfg, ds, batch_size) == want

    @pytest.mark.parametrize("channels, batch_size, seed", [
        (7, 64, 0), (21, 5, 0)] + [(21, 64, seed) for seed in range(6)])
    def test_full_size_result_bitwise(self, channels, batch_size, seed):
        # 20 windows at C=21 outgrow numpy's 256 KiB threshold for reusing a
        # temporary's buffer, whose layout would change the order of the
        # sums; seeds 2, 4 and 5 show it in the mse's last bit
        cfg = ModelConfig(channels=channels)
        rng = np.random.default_rng(seed)
        ds = WindowedDataset(rng.standard_normal((20, 96, channels)),
                             rng.standard_normal((20, 96, channels)), "test",
                             NormStats(np.zeros(channels), np.ones(channels)))
        params = init_params(cfg)
        assert evaluate(params, cfg, ds, batch_size) == \
            whole_batch_result(params, cfg, ds, batch_size)

    @pytest.mark.parametrize("model, n_windows, batch_size, calls", [
        (dict(channels=21), 7, 64, [3, 3, 1]),
        (dict(channels=21), 7, 5, [3, 2, 2]),
        (dict(channels=7), 20, 64, [13, 7]),
        (dict(channels=2, pred_len=24, latent_dim=16, heads=2), 40, 32,
         [32, 8]),                                  # train_small's shape
    ])
    def test_forwards_cache_sized_blocks_in_order(self, monkeypatch, model,
                                                  n_windows, batch_size,
                                                  calls):
        cfg = ModelConfig(**model)
        ds = tiny_dataset(n_windows, cfg=cfg)
        seen = []
        block = model_module._forward_block

        def spy(x, params, cfg, training=False, rng=None):
            assert not training
            seen.append(x.data)
            return block(x, params, cfg, training, rng)

        monkeypatch.setattr(model_module, "_forward_block", spy)
        # the caller alone takes the blocks in window order
        monkeypatch.setattr(model_module, "_helpers", lambda blocks: 0)
        evaluate(init_params(cfg), cfg, ds, batch_size=batch_size)
        assert [len(x) for x in seen] == calls
        np.testing.assert_array_equal(np.concatenate(seen), ds.inputs)

    def test_batching_invariant(self):
        cfg = micro_config()
        ds = tiny_dataset(7, seed=10, cfg=cfg)
        params = init_params(cfg)
        a = evaluate(params, cfg, ds, batch_size=2)
        b = evaluate(params, cfg, ds, batch_size=64)
        assert a.mse == pytest.approx(b.mse, rel=1e-12)
        assert a.mae == pytest.approx(b.mae, rel=1e-12)

    @pytest.mark.parametrize("batch_size", [2.5, 2.0, True, 0])
    def test_bad_batch_size_rejected(self, batch_size):
        cfg = micro_config()
        with pytest.raises(ConfigError, match="batch_size"):
            evaluate(init_params(cfg), cfg, tiny_dataset(3, cfg=cfg),
                     batch_size=batch_size)


class TestSplitStep:
    def test_split_fit_bytes_do_not_depend_on_helpers(self):
        # train_c7's model at D=32: 32 windows hold 8 · 32 · C·N·D = 616 KiB
        cfg = ModelConfig(channels=7, pred_len=24, latent_dim=32, seed=3)
        assert model_module._block_rows(cfg) < 32
        train = tiny_dataset(40, cfg=cfg)
        val = tiny_dataset(8, seed=1, cfg=cfg)
        settings = TrainSettings(lr=1e-3, epochs=2, batch_size=32,
                                 patience=5)
        base_tape = trainer.Tape
        opened, parts, results = [], [], []

        class StepTape(base_tape):
            def __enter__(self):
                opened.append((threading.get_ident(), self))
                return super().__enter__()

        def train_part(params, cfg, x, y, rng, where):
            parts.append((len(x), where,
                          rng.bit_generator.state["state"]["state"]))
            return real_part(params, cfg, x, y, rng, where)

        def part(rows, epoch, step, *half):
            rng = make_rng(cfg.seed, "dropout", epoch, step, *half)
            return (rows, f"epoch {epoch}, step {step}",
                    rng.bit_generator.state["state"]["state"])

        # 32 windows split in halves, each with a dropout stream of its own;
        # the last 8 of an epoch run as one part, with the step's stream
        want = sorted(key for epoch in (0, 1) for key in (
            part(16, epoch, 0, 0), part(16, epoch, 0, 1), part(8, epoch, 1)))

        real_part = trainer._train_part
        for helpers in (0, 1):
            opened.clear()
            parts.clear()
            threads = threading.active_count()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(model_module, "_helpers",
                           lambda tasks, k=helpers: min(k, tasks - 1))
                mp.setattr(trainer, "Tape", StepTape)
                mp.setattr(trainer, "_train_part", train_part)
                params, report = fit(init_params(cfg), cfg, train, val,
                                     settings, log=None)
            assert threading.active_count() == threads
            # one step tape per step, entered on the calling thread; the
            # parts record on tapes of their own, and backward records none
            assert [ident for ident, _ in opened] == \
                [threading.get_ident()] * 4
            assert [len(tape) for _, tape in opened] == [0] * 4
            assert sorted(parts) == want
            results.append(([t.data.tobytes() for t in
                             params.named_parameters().values()],
                            report.train_loss, report.val_mse))
        assert results[0] == results[1]

    @pytest.mark.parametrize("channels", [2, 7, 21])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_forward_blocks_and_train_halves_follow_one_rule(
            self, monkeypatch, channels, rows):
        # a budget one byte short of rows + 1 windows' widest intermediate
        cfg = ModelConfig(channels=channels, pred_len=24, latent_dim=16,
                          heads=2)
        c, n, h = channels, cfg.num_patches, cfg.heads
        widest = 8 * max(c * n * cfg.latent_dim, h * n * c * c, h * c * n * n)
        monkeypatch.setattr(model_module, "_BLOCK_BYTES",
                            (rows + 1) * widest - 1)
        assert model_module._block_rows(cfg) == rows
        blocks, parts = [], []
        block, part = model_module._forward_block, trainer._train_part

        def block_spy(x, params, cfg, training=False, rng=None):
            if not training:
                blocks.append(len(x.data))
            return block(x, params, cfg, training, rng)

        def part_spy(params, cfg, x, *args):
            parts.append(len(x))
            return part(params, cfg, x, *args)

        monkeypatch.setattr(model_module, "_forward_block", block_spy)
        monkeypatch.setattr(trainer, "_train_part", part_spy)
        ds = tiny_dataset(rows + 1, cfg=cfg)
        params = init_params(cfg)
        for b, want_blocks, want_parts in (
                (rows, [rows], [rows]),
                (rows + 1, [rows, 1], [(rows + 2) // 2, (rows + 1) // 2])):
            blocks.clear()
            parts.clear()
            forward(ds.inputs[:b], params, cfg)
            trainer._train_step(params, cfg, ds.inputs[:b], ds.targets[:b],
                                0, 0)
            assert sorted(blocks) == sorted(want_blocks), b
            assert sorted(parts) == sorted(want_parts), b

    def test_unsplit_fit_matches_one_tape_reference(self):
        cfg = micro_config(channels=2, dropout=0.2, seed=6)
        train = tiny_dataset(10, seed=1, cfg=cfg)
        settings = TrainSettings(lr=1e-2, epochs=1, batch_size=4,
                                 clip_norm=0.5)
        assert model_module._block_rows(cfg) >= 4
        fitted, _ = fit(init_params(cfg), cfg, train, train, settings,
                        log=None)

        params = init_params(cfg)
        registry = params.named_parameters()
        sizes = [t.data.size for t in registry.values()]
        opt = OptimizerState.for_params(registry, settings.lr)
        order = make_rng(cfg.seed, "shuffle", 0).permutation(len(train))
        for step, start in enumerate(range(0, len(order), 4)):
            idx = order[start:start + 4]
            for t in registry.values():
                t.zero_grad()
            with Tape() as tape:
                fc = forward(train.inputs[idx], params, cfg, training=True,
                             rng=make_rng(cfg.seed, "dropout", 0, step))
                loss = mse_loss(fc.values, train.targets[idx])
            backward(loss, tape)
            grad = flatten_grads(registry, {k: t.grad
                                            for k, t in registry.items()})
            clip_global_norm(grad, sizes, settings.clip_norm)
            adam_step(registry, grad, opt)
        for k, t in fitted.named_parameters().items():
            assert t.data.tobytes() == registry[k].data.tobytes(), k

    # with dropout off, halves differ from the whole batch only in the order
    # of the loss's and the gradients' sums: 1e-12 of the gradient's norm
    @settings(max_examples=25, deadline=None)
    @given(batch=st.integers(2, 9), channels=st.integers(1, 4),
           seed=st.integers(0, 99))
    def test_split_gradient_matches_whole_batch(self, batch, channels, seed):
        cfg = micro_config(channels=channels, seed=seed)
        ds = tiny_dataset(batch, seed=seed, cfg=cfg)
        params = init_params(cfg)
        steps = {}
        for block_bytes in (1, 2**62):          # halves, the whole batch
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(model_module, "_BLOCK_BYTES", block_bytes)
                steps[block_bytes] = trainer._train_step(
                    params, cfg, ds.inputs, ds.targets, 0, 0)
        (halves, loss, grad), (whole, want_loss, want) = steps[1], steps[2**62]
        assert (len(halves), len(whole)) == (2, 1)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        assert np.linalg.norm(grad - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("helpers", [0, 1])
    @pytest.mark.parametrize("failing, message", [
        ({3, 2}, "rows 3"), ({2}, "rows 2")], ids=["both", "second"])
    def test_failing_part_raises_earliest_error(self, monkeypatch, helpers,
                                                failing, message):
        cfg = micro_config()
        train = tiny_dataset(5, cfg=cfg)
        params = init_params(cfg)
        before = [t.data.copy() for t in params.named_parameters().values()]
        real_forward = trainer.forward

        def forward_spy(x, *args, **kwargs):
            if len(x) == 3:
                time.sleep(0.05)    # the second half fails first on 2 threads
            if len(x) in failing:
                raise DataError(f"rows {len(x)}")
            return real_forward(x, *args, **kwargs)

        monkeypatch.setattr(model_module, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(model_module, "_helpers",
                            lambda tasks: min(helpers, tasks - 1))
        monkeypatch.setattr(trainer, "forward", forward_spy)
        threads = threading.active_count()
        with pytest.raises(TrainingError,
                           match=f"^epoch 0, step 0: {message}$"):
            fit(params, cfg, train, train,
                TrainSettings(epochs=1, batch_size=5), log=None)
        assert threading.active_count() == threads
        for t, was in zip(params.named_parameters().values(), before):
            assert t.data.tobytes() == was.tobytes()
