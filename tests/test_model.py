"""Model assembly: config validation, init, forward contract, ablations."""

import contextlib
import dataclasses
import os
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dctnet.model as model_module
from dctnet.numeric_engine import Tape, Tensor, backward
from dctnet.errors import ConfigError, ContractError, DataError
from dctnet.model import (ABLATION_STAGES, ModelConfig, ablation_variant,
                          forward, init_params)
from dctnet.trainer import mse_loss

from helpers import stages_passing_input, tiny_configs


def micro_config(**overrides):
    base = dict(channels=2, seq_len=8, pred_len=4, patch_len=4, stride=4,
                latent_dim=8, heads=2, seed=3)
    base.update(overrides)
    return ModelConfig(**base)


def shapes(cfg):
    return {k: t.shape for k, t in init_params(cfg).named_parameters().items()}


def size(cfg):
    return sum(t.data.size
               for t in init_params(cfg).named_parameters().values())


def tree_tensors(node):
    """Every Tensor reachable from a params dataclass, in field order; a
    leaf that is not a Tensor, such as a setting, fails the test."""
    if isinstance(node, Tensor):
        yield node
    elif isinstance(node, list):
        for item in node:
            yield from tree_tensors(item)
    elif dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            if f.name != "registry":
                yield from tree_tensors(getattr(node, f.name))
    else:
        raise AssertionError(f"{node!r} in a parameter tree is not a Tensor")


class TestConfig:
    def test_defaults(self):
        cfg = ModelConfig(channels=7)
        assert cfg.seq_len == 96 and cfg.pred_len == 96
        assert cfg.patch_len == 16 and cfg.stride == 8
        assert cfg.latent_dim == 64 and cfg.heads == 4
        assert cfg.dropout == 0.1 and cfg.depth == 1
        assert cfg.num_patches == 11

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            ModelConfig(channels=7, latent_dim=63)

    def test_patch_must_fit_window(self):
        with pytest.raises(ConfigError):
            ModelConfig(channels=1, seq_len=8, patch_len=16)

    @pytest.mark.parametrize("field,value", [
        ("channels", 0), ("seq_len", 0), ("pred_len", 0), ("heads", 0),
        ("depth", 0), ("dropout", 1.0), ("dropout", -0.1),
        ("revin_eps", 0.0), ("latent_dim", 1),
    ])
    def test_invalid_fields_rejected(self, field, value):
        # one head, so a latent_dim is never rejected for divisibility
        with pytest.raises(ConfigError, match=field):
            micro_config(**{"heads": 1, field: value})

    @pytest.mark.parametrize("field,value", [
        ("dropout", float("nan")), ("dropout", "0.1"),
        ("revin_eps", float("nan")), ("revin_eps", float("inf")),
        ("seed", "0"), ("seed", 1.5),
    ])
    def test_nonfinite_or_mistyped_fields_rejected(self, field, value):
        with pytest.raises(ConfigError):
            micro_config(**{field: value})

    def test_numbers_stored_as_python_numbers(self):
        cfg = micro_config(channels=np.int64(2), seed=np.int32(5), dropout=0,
                           revin_eps=np.float32(0.5))
        assert [type(getattr(cfg, k)) for k in
                ("channels", "seed", "dropout", "revin_eps")] == \
            [int, int, float, float]
        assert repr(cfg.to_dict()) == repr(micro_config(
            seed=5, dropout=0.0, revin_eps=0.5).to_dict())

    def test_dict_round_trip(self):
        cfg = micro_config(disable_fsc=True, dropout=0.2)
        again = ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_retired_keys_refused_by_name(self):
        # even at the one value the model used to accept
        d = micro_config().to_dict()
        for key, bad in (
                ("fusion_mode", dict(d, fusion_mode="residual_substitution")),
                ("reduction_scope",
                 dict(d, correction=dict(d["correction"],
                                         reduction_scope="per_batch_channel")))):
            with pytest.raises(ConfigError, match=key):
                ModelConfig.from_dict(bad)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig.from_dict({"channels": 1, "hidden_size": 8})


class TestInit:
    def test_same_seed_identical_bytes(self):
        cfg = micro_config()
        a = init_params(cfg)
        b = init_params(cfg)
        for (ka, ta), (kb, tb) in zip(a.named_parameters().items(),
                                      b.named_parameters().items()):
            assert ka == kb
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_different_seeds_differ(self):
        cfg = micro_config()
        a = init_params(dataclasses.replace(cfg, seed=1))
        b = init_params(dataclasses.replace(cfg, seed=2))
        assert a.embed.weight.data.tobytes() != b.embed.weight.data.tobytes()

    def test_shapes_match_declaration(self):
        # the checkpoint contract, spelled out apart from init_params
        c, p, d, n, t = 2, 4, 8, 2, 4
        attn = [(f"{kind}{x}", (d, d) if kind == "w" else (d,))
                for x in "qkvo" for kind in "wb"]
        norm = [("gain", (d,)), ("bias", (d,))]
        expected = [("revin.gamma", (c,)), ("revin.beta", (c,)),
                    ("embed.weight", (p, d)), ("embed.bias", (d,)),
                    ("embed.pos", (n, d))]
        for i in range(2):
            expected += [(f"blocks.{i}.temporal.{k}", v)
                         for k, v in [("w_time", (n, n))] + norm]
            for branch in ("channel", "global"):
                expected += [(f"blocks.{i}.{branch}.{k}", v)
                             for k, v in attn + norm]
        expected += [("head.weight", (n * d, t)), ("head.bias", (t,))]
        registry = init_params(micro_config(depth=2)).named_parameters()
        assert [(k, v.shape) for k, v in registry.items()] == expected
        assert all(v.requires_grad for v in registry.values())

    @settings(max_examples=40, deadline=None)
    @given(cfg=tiny_configs())
    def test_registry_is_the_tree(self, cfg):
        params = init_params(cfg)
        tree = list(tree_tensors(params))
        registry = params.named_parameters()
        assert len({id(t) for t in tree}) == len(tree) == len(registry)
        assert {id(t) for t in tree} == {id(t) for t in registry.values()}
        registry.clear()
        assert len(params.named_parameters()) == len(tree)

    def test_micro_parameter_count(self):
        # revin 4 + embed (32+8+16) + temporal (4+16) + channel (4*72+16)
        # + global 304 + head (64+4+8?)  ->  counted from declared shapes
        cfg = micro_config()
        n, d, p, t, c = 2, 8, 4, 4, 2
        expected = (2 * c) + (p * d + d + n * d) + (n * n + 2 * d) \
            + (4 * (d * d + d) + 2 * d) * 2 + (n * d * t + t)
        assert size(cfg) == expected == 756

    def test_default_parameter_count(self):
        cfg = ModelConfig(channels=7)
        n, d, p, t, c = 11, 64, 16, 96, 7
        expected = (2 * c) + (p * d + d + n * d) + (n * n + 2 * d) \
            + (4 * (d * d + d) + 2 * d) * 2 + (n * d * t + t)
        assert size(cfg) == expected == 103271

    def test_norms_start_at_identity(self):
        params = init_params(micro_config())
        np.testing.assert_array_equal(params.revin.gamma.data, 1.0)
        np.testing.assert_array_equal(params.revin.beta.data, 0.0)
        blk = params.blocks[0]
        np.testing.assert_array_equal(blk.temporal.gain.data, 1.0)
        np.testing.assert_array_equal(blk.channel.bias.data, 0.0)


class TestForward:
    def test_output_shape_default_config(self):
        cfg = ModelConfig(channels=7)
        params = init_params(cfg)
        x = np.random.default_rng(0).standard_normal((2, 96, 7))
        fc = forward(x, params, cfg)
        assert fc.values.shape == (2, 96, 7)

    def test_eval_mode_deterministic_bytes(self):
        cfg = micro_config()
        params = init_params(cfg)
        x = np.random.default_rng(1).standard_normal((3, 8, 2))
        a = forward(x, params, cfg).values.data.tobytes()
        b = forward(x, params, cfg).values.data.tobytes()
        assert a == b

    def test_all_ablations_zero_head_is_revin_affine(self):
        # with every stage bypassed and a zero head weight the forecast is
        # the head bias pushed through the inverse instance normalisation
        cfg = micro_config(disable_dbct=True, disable_gpaf=True,
                           disable_fsc=True)
        params = init_params(cfg)
        params.head_weight.data = np.zeros_like(params.head_weight.data)
        bias = np.array([0.5, -1.0, 2.0, 0.0])
        params.head_bias.data = bias.copy()
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 8, 2)) * 3 + 5
        fc = forward(x, params, cfg)
        mean = x.mean(axis=1, keepdims=True)
        std = np.sqrt(x.var(axis=1, keepdims=True) + cfg.revin_eps)
        expected = bias[None, :, None] * std + mean
        np.testing.assert_allclose(fc.values.data, expected, atol=1e-12)

    def test_constant_input_stays_finite(self):
        cfg = micro_config()
        params = init_params(cfg)
        fc = forward(np.full((2, 8, 2), 3.25), params, cfg)
        assert np.all(np.isfinite(fc.values.data))
        assert np.all(np.isfinite(fc.alpha.data))

    def test_nan_input_rejected(self):
        cfg = micro_config()
        params = init_params(cfg)
        x = np.zeros((1, 8, 2))
        x[0, 3, 1] = np.nan
        with pytest.raises(DataError):
            forward(x, params, cfg)

    def test_wrong_shape_rejected(self):
        cfg = micro_config()
        params = init_params(cfg)
        with pytest.raises(ContractError):
            forward(np.zeros((1, 9, 2)), params, cfg)
        with pytest.raises(ContractError):
            forward(np.zeros((1, 8, 3)), params, cfg)

    def test_empty_batch_rejected(self):
        # an empty batch has no statistics to standardise by
        cfg = micro_config()
        with pytest.raises(ContractError, match="B >= 1"):
            forward(np.zeros((0, 8, 2)), init_params(cfg), cfg)

    def test_depth_two_runs(self):
        cfg = micro_config(depth=2)
        params = init_params(cfg)
        names = list(params.named_parameters())
        assert len(names) == len(set(names))
        assert any(n.startswith("blocks.1.") for n in names)
        fc = forward(np.random.default_rng(3).standard_normal((1, 8, 2)),
                     params, cfg)
        assert fc.values.shape == (1, 4, 2)

    def test_training_dropout_changes_output(self):
        cfg = micro_config(dropout=0.3)
        params = init_params(cfg)
        x = np.random.default_rng(5).standard_normal((2, 8, 2))
        eval_out = forward(x, params, cfg, training=False).values.data
        train_out = forward(x, params, cfg, training=True,
                            rng=np.random.default_rng(9)).values.data
        assert not np.allclose(eval_out, train_out)

    def test_fuzz_ablation_combinations_finite(self):
        rng = np.random.default_rng(6)
        for trial in range(8):
            flags = {
                "disable_dbct": bool(trial & 1),
                "disable_gpaf": bool(trial & 2),
                "disable_fsc": bool(trial & 4),
            }
            cfg = micro_config(seed=trial, **flags)
            params = init_params(cfg)
            x = rng.standard_normal((2, 8, 2)) * rng.uniform(0.1, 10)
            fc = forward(x, params, cfg)
            assert np.all(np.isfinite(fc.values.data)), flags


def helpers(count):
    """Patch ``forward``'s helper-thread count to ``count``, whatever the
    machine and its BLAS."""
    return mock.patch.object(model_module, "_helpers", lambda blocks: count)


def blas_threads(count):
    """Patch the OpenBLAS thread count ``_helpers`` reads to ``count``;
    None is a numpy built on another BLAS."""
    return mock.patch.object(model_module, "_openblas", lambda verb: (
        None if count is None else lambda: count))


def forecast_bytes(fc):
    """Shape, memory layout and bytes of a forecast's values and alpha; an
    axis of extent 1 has no say in the layout."""
    return [(t.shape, [st for st, n in zip(t.data.strides, t.shape) if n > 1],
             t.data.tobytes()) for t in (fc.values, fc.alpha)]


class TestInferenceBlocks:
    @settings(max_examples=50, deadline=None)
    @given(cfg=tiny_configs(), batch=st.integers(1, 20),
           data_seed=st.integers(0, 2**32 - 1))
    @example(cfg=ModelConfig(channels=1, seq_len=4, pred_len=2, patch_len=4,
                             stride=1, latent_dim=4, heads=2),
             batch=3, data_seed=0)          # one token per window
    def test_block_budget_leaves_forecast_bitwise(self, cfg, batch,
                                                  data_seed):
        x = np.random.default_rng(data_seed).standard_normal(
            (batch, cfg.seq_len, cfg.channels))
        params = init_params(cfg)
        with mock.patch.object(model_module, "_BLOCK_BYTES", 2**62):
            want = forecast_bytes(forward(x, params, cfg))   # whole batches
        for count in (0, 1, 3):
            with mock.patch.object(model_module, "_BLOCK_BYTES", 1), \
                    helpers(count):                         # 1-window blocks
                assert forecast_bytes(forward(x, params, cfg)) == want, count

    @pytest.mark.parametrize("taped, training, calls", [
        (False, False, [3, 3, 1]), (True, False, [7]), (False, True, [7]),
    ], ids=["eval", "taped", "training"])
    def test_only_untaped_eval_forwards_split(self, taped, training, calls):
        # C=21 blocks hold 3 windows; the tape and the dropout draws span
        # the whole batch
        cfg = ModelConfig(channels=21)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((7, cfg.seq_len, cfg.channels))
        block = model_module._forward_block
        seen = []

        def spy(x, *args):
            seen.append(len(x.data))
            return block(x, *args)

        with mock.patch.object(model_module, "_forward_block", spy), \
                (Tape() if taped else contextlib.nullcontext()):
            fc = forward(x, init_params(cfg), cfg, training=training, rng=rng)
        assert sorted(seen) == sorted(calls)    # helpers finish in any order
        assert fc.values.shape == (7, cfg.pred_len, cfg.channels)

    def test_tape_on_another_thread_leaves_forward_untaped(self):
        # a tape records only the thread that entered it, so this forward
        # neither lands on it nor stops running in 3-window blocks
        cfg = ModelConfig(channels=21)
        params = init_params(cfg)
        x = np.random.default_rng(0).standard_normal((64, cfg.seq_len, 21))
        entered, release = threading.Event(), threading.Event()
        tapes = []

        def hold_a_tape():
            with Tape() as tape:
                tapes.append(tape)
                entered.set()
                release.wait(timeout=60)

        holder = threading.Thread(target=hold_a_tape)
        holder.start()
        block = model_module._forward_block
        seen = []

        def spy(x, *args):
            seen.append(len(x.data))
            return block(x, *args)

        try:
            assert entered.wait(timeout=60)
            with mock.patch.object(model_module, "_forward_block", spy):
                fc = forward(x, params, cfg)
        finally:
            release.set()
            holder.join(timeout=60)
        assert not holder.is_alive()
        assert len(tapes[0]) == 0
        assert not fc.values.requires_grad and not fc.alpha.requires_grad
        assert sorted(seen) == [1] + [3] * 21

    def test_untaped_forward_memory_is_bounded_by_the_block(self):
        # the whole batch's [256, 11, 4, 21, 21] attention probabilities
        # alone would take 38 MiB; on a one-thread BLAS and many cores, the
        # blocks run beside as many helpers as the library starts
        cfg = ModelConfig(channels=21)
        params = init_params(cfg)
        x = np.random.default_rng(0).standard_normal((256, 96, 21))
        for blas in (1, 2):
            with blas_threads(blas), \
                    mock.patch.object(os, "sched_getaffinity", create=True,
                                      return_value=set(range(64))):
                assert model_module._helpers(2**31) == (
                    model_module._MAX_HELPERS if blas == 1 else 0)
                tracemalloc.start()
                try:
                    forward(x, params, cfg)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert peak < 32 * 2**20, f"{blas}: {peak / 2**20:.1f} MiB"


class TestHelperThreads:
    """Blocks of an untaped forward on the caller and helper threads."""

    cfg = micro_config()

    def marked_windows(self, count):
        """``count`` windows whose first entry is the window's index."""
        x = np.random.default_rng(0).standard_normal(
            (count, self.cfg.seq_len, self.cfg.channels))
        x[:, 0, 0] = np.arange(count)
        return x

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_earliest_failing_block_is_raised(self, count):
        block = model_module._forward_block
        second_failed = threading.Event()

        def failing(x, *args):
            first = int(x.data[0, 0, 0])
            if first == 1:
                # with helpers, the 3rd block fails first; the serial loop
                # stops at the 2nd
                second_failed.wait(timeout=5 if count else 0)
                raise DataError("block 1")
            if first == 2:
                second_failed.set()
                raise DataError("block 2")
            return block(x, *args)

        threads = threading.active_count()
        x, params = self.marked_windows(6), init_params(self.cfg)
        with mock.patch.object(model_module, "_BLOCK_BYTES", 1), \
                helpers(count):
            with mock.patch.object(model_module, "_forward_block", failing), \
                    pytest.raises(DataError, match="^block 1$"):
                forward(x, params, self.cfg)
            assert second_failed.is_set() == (count > 0)
            assert threading.active_count() == threads
            forward(x, params, self.cfg)
            assert threading.active_count() == threads

    def test_more_helpers_than_cores_run_each_block_once(self):
        # a thread switch every microsecond, so a block taken twice or
        # skipped shows in the count or in the bits
        x, params = self.marked_windows(64), init_params(self.cfg)
        with mock.patch.object(model_module, "_BLOCK_BYTES", 2**62):
            want = forecast_bytes(forward(x, params, self.cfg))
        block = model_module._forward_block
        seen = []

        def spy(x, *args):
            seen.extend(x.data[:, 0, 0])
            return block(x, *args)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(model_module, "_BLOCK_BYTES", 1), \
                    mock.patch.object(model_module, "_forward_block", spy), \
                    helpers(8):
                got = forecast_bytes(forward(x, params, self.cfg))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(seen) == list(range(64))
        assert got == want

    def test_no_thread_to_spare_leaves_the_caller_alone(self):
        x, params = self.marked_windows(5), init_params(self.cfg)
        with mock.patch.object(model_module, "_BLOCK_BYTES", 2**62):
            want = forecast_bytes(forward(x, params, self.cfg))
        with mock.patch.object(model_module, "_BLOCK_BYTES", 1), \
                mock.patch.object(threading.Thread, "start",
                                  side_effect=RuntimeError("no thread")), \
                helpers(2):
            assert forecast_bytes(forward(x, params, self.cfg)) == want

    @pytest.mark.parametrize("blas, cores, blocks, count", [
        (1, 2, 10, 1), (1, 64, 10, 1), (1, 4, 2, 1), (1, 4, 1, 0),
        (1, 1, 10, 0), (2, 4, 10, 0), (None, 4, 10, 0)])
    def test_helpers_only_beside_a_one_thread_blas(self, blas, cores,
                                                   blocks, count):
        with blas_threads(blas), \
                mock.patch.object(os, "sched_getaffinity", create=True,
                                  return_value=set(range(cores))):
            assert model_module._helpers(blocks) == count

    def test_helpers_count_cpus_without_an_affinity_call(self, monkeypatch):
        monkeypatch.setattr(model_module, "_openblas",
                            lambda verb: lambda: 1)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert model_module._helpers(10) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert model_module._helpers(10) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert model_module._helpers(10) == 0

    @pytest.mark.skipif(model_module._openblas("get") is None,
                        reason="numpy does not bundle OpenBLAS here")
    @pytest.mark.parametrize("threads", [1, 2])
    def test_probe_reads_the_loaded_blas(self, threads):
        code = ("from dctnet import model; "
                "print(model._openblas('get')(), model._helpers(2**31))")
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=60).stdout.split()
        cores = (len(os.sched_getaffinity(0))
                 if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        # OpenBLAS runs no more threads than it sees cores
        reported = min(threads, cores)
        count = (min(model_module._MAX_HELPERS, cores - 1) if reported == 1
                 else 0)
        assert out == [str(reported), str(count)]


class TestAblationVariant:
    def test_sets_exactly_one_flag(self):
        cfg = micro_config()
        for which in ABLATION_STAGES:
            variant = ablation_variant(cfg, which)
            flags = [variant.disable_dbct, variant.disable_gpaf,
                     variant.disable_fsc]
            assert sum(flags) == 1
            assert getattr(variant, f"disable_{which}")

    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigError):
            ablation_variant(micro_config(), "head")

    @pytest.mark.parametrize("already", ABLATION_STAGES)
    def test_config_bypassing_a_stage_refused(self, already):
        # its "full" model would not be the full model
        cfg = micro_config(**{f"disable_{already}": True})
        for which in ABLATION_STAGES:
            with pytest.raises(ConfigError,
                               match=f"model.disable_{already} is already"):
                ablation_variant(cfg, which)

    def test_shapes_unchanged(self):
        cfg = micro_config()
        for which in ABLATION_STAGES:
            assert shapes(cfg) == shapes(ablation_variant(cfg, which))

    def test_variants_change_output(self):
        cfg = micro_config()
        params = init_params(cfg)
        x = np.random.default_rng(7).standard_normal((1, 8, 2))
        full = forward(x, params, cfg).values.data
        for which in ABLATION_STAGES:
            out = forward(x, params, ablation_variant(cfg, which)).values.data
            assert not np.allclose(full, out), which

    def test_fsc_bypass_forces_unit_alpha(self):
        cfg = ablation_variant(micro_config(), "fsc")
        params = init_params(cfg)
        fc = forward(np.random.default_rng(8).standard_normal((2, 8, 2)),
                     params, cfg)
        np.testing.assert_allclose(fc.alpha.data, 1.0)


class TestSettingsFromConfig:
    # the tree holds tensors only: heads and dropout are the config's that
    # forward is given, whichever config built the parameters
    @settings(max_examples=40, deadline=None)
    @given(cfg=tiny_configs(), field=st.sampled_from(["heads", "dropout"]),
           dropout=st.sampled_from([0.0, 0.1, 0.5]), swap=st.booleans(),
           batch=st.integers(1, 3), data_seed=st.integers(0, 2**32 - 1))
    def test_forward_reads_heads_and_dropout_from_cfg(self, cfg, field,
                                                      dropout, swap, batch,
                                                      data_seed):
        # 1 divides every latent_dim, so heads=1 is always valid
        other = dataclasses.replace(
            cfg, **{field: 1 if field == "heads" else dropout})
        built, run = (other, cfg) if swap else (cfg, other)
        x = np.random.default_rng(data_seed).standard_normal(
            (batch, run.seq_len, run.channels))
        foreign, own = init_params(built), init_params(run)

        def outputs(params, training):
            return forecast_bytes(forward(x, params, run, training=training,
                                          rng=np.random.default_rng(7)))

        for training in (False, True):
            assert outputs(foreign, training) == outputs(own, training)
        if run.dropout == 0.0:
            assert outputs(foreign, True) == outputs(foreign, False)


class TestBypassProperty:
    @pytest.mark.parametrize("training", [False, True],
                             ids=["eval", "train"])
    @settings(max_examples=40, deadline=None)
    @given(cfg=tiny_configs(),
           bypassed=st.sets(st.sampled_from(ABLATION_STAGES), min_size=1),
           batch=st.integers(1, 3), data_seed=st.integers(0, 2**32 - 1))
    def test_bypassed_stage_returns_its_input(self, training, cfg, bypassed,
                                              batch, data_seed):
        # a switched-off stage is never called, and the forecast is the
        # full model's with each such stage returning its input
        x = np.random.default_rng(data_seed).standard_normal(
            (batch, cfg.seq_len, cfg.channels))
        params = init_params(cfg)

        def run(run_cfg):
            return forecast_bytes(forward(x, params, run_cfg,
                                          training=training,
                                          rng=np.random.default_rng(7)))

        calls = []
        with stages_passing_input(bypassed, calls):
            switched = run(dataclasses.replace(
                cfg, **{f"disable_{s}": True for s in bypassed}))
        assert calls == []
        with stages_passing_input(bypassed):
            assert switched == run(cfg)


class TestTapeSize:
    # each attention call is one node; the count does not depend on shape
    @pytest.mark.parametrize("overrides, nodes", [
        ({}, 14), ({"dropout": 0.0}, 14), ({"depth": 2}, 21),
    ], ids=["depth1", "no_dropout", "depth2"])
    def test_train_step_records(self, overrides, nodes):
        cfg = micro_config(**overrides)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, cfg.seq_len, cfg.channels))
        y = rng.standard_normal((2, cfg.pred_len, cfg.channels))
        with Tape() as tape:
            fc = forward(x, init_params(cfg), cfg, training=True, rng=rng)
            mse_loss(fc.values, y)
        assert len(tape) == nodes


class TestModelGradient:
    @settings(max_examples=40, deadline=None)
    @given(cfg=tiny_configs(),
           which=st.sampled_from((None,) + ABLATION_STAGES),
           data_seed=st.integers(0, 2**32 - 1))
    def test_matches_central_differences(self, cfg, which, data_seed):
        if which is not None:
            cfg = ablation_variant(cfg, which)
        params = init_params(cfg)
        registry = params.named_parameters()
        rng = np.random.default_rng(data_seed)
        # move off the symmetric init point (norm gains 1, biases 0)
        for t in registry.values():
            t.data += 0.1 * rng.standard_normal(t.shape)
        x = rng.standard_normal((2, cfg.seq_len, cfg.channels))
        y = rng.standard_normal((2, cfg.pred_len, cfg.channels))

        def loss():
            # training mode; a fresh rng per call draws the same dropout masks
            fc = forward(x, params, cfg, training=True,
                         rng=np.random.default_rng(data_seed))
            return mse_loss(fc.values, y)

        with Tape() as tape:
            backward(loss(), tape)
        h = 1e-6
        for name, t in registry.items():
            flat = t.data.reshape(-1)
            # a bypassed stage's parameters get no gradient
            grad = np.zeros(flat.size) if t.grad is None else t.grad.reshape(-1)
            picks = rng.choice(flat.size, size=min(3, flat.size), replace=False)
            for i in picks:
                keep = flat[i]
                flat[i] = keep + h
                up = float(loss().data)
                flat[i] = keep - h
                down = float(loss().data)
                flat[i] = keep
                fd = (up - down) / (2 * h)
                # criterion 1's tolerance: the clamp on autocorrelations
                # puts kinks, and high curvature, near some random points
                assert abs(grad[i] - fd) <= 1e-7 + 1e-3 * abs(fd), (name, i)
