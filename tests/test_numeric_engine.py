"""Differentiation engine: primitive forwards, adjoints, and tape semantics."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dctnet import numeric_engine as engine, spectral_correction
from dctnet.model import ModelConfig, forward, init_params
from dctnet.numeric_engine import AttentionParams, Tape, Tensor, backward
from dctnet.errors import ConfigError, ContractError
from dctnet.trainer import mse_loss

from helpers import (assert_close_to_reference, assert_rows_stochastic,
                     check_gradients, check_gradients_jointly,
                     oracle_attention, reference_autocorrelation,
                     reference_autocorrelation_vjp, reference_layer_norm,
                     tiny_configs)


class TestTensorBasics:
    def test_wraps_as_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)
        assert not t.requires_grad

    def test_rejects_nonfinite(self):
        with pytest.raises(ContractError):
            Tensor([1.0, np.nan])
        with pytest.raises(ContractError):
            Tensor([np.inf])

    def test_grad_accumulates(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        t.accumulate_grad(np.array([1.0, 1.0]))
        t.accumulate_grad(np.array([0.5, 0.5]))
        np.testing.assert_allclose(t.grad, [1.5, 1.5])
        t.zero_grad()
        assert t.grad is None


class TestForwardValues:
    def test_arithmetic_chain(self):
        a = Tensor([2.0])
        b = Tensor([3.0])
        out = engine.sub(engine.mul(engine.add(a, b), a), engine.div(b, a))
        np.testing.assert_allclose(out.data, [8.5])

    def test_matmul_known(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        np.testing.assert_allclose(engine.matmul(a, b).data, [[11.0]])

    def test_matmul_shape_mismatch_names_both(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 2)))
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(4, 2\)"):
            engine.matmul(a, b)
        # the right operand is one shared [K, M] weight, never a batch
        batched = Tensor(np.zeros((2, 3, 5)))
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(2, 3, 5\)"):
            engine.matmul(a, batched)

    def test_gelu_fixed_points(self):
        x = Tensor([0.0, 1.0, -1.0, 0.5, 2.0])
        out = engine.gelu(x)
        np.testing.assert_allclose(
            out.data,
            [0.0, 0.8413447460685429, -0.15865525393145705,
             0.34573123063700655, 1.9544997361036416],
            atol=1e-15)

    def test_gelu_saturates(self):
        out = engine.gelu(Tensor([10.0]))
        assert abs(out.data[0] - 10.0) < 1e-9

    def test_layer_norm_known(self):
        g = Tensor(np.ones(3))
        b = Tensor(np.zeros(3))
        out = engine.layer_norm(Tensor([1.0, 2.0, 3.0]), g, b)
        # variance 2/3 plus the fixed eps 1e-5
        z = 1.0 / np.sqrt(2.0 / 3.0 + 1e-5)
        np.testing.assert_allclose(out.data, [-z, 0.0, z], rtol=1e-15)

    def test_layer_norm_standardises(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 5, 8)) * 4 + 7
        out = engine.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-4)

    def test_reductions(self):
        x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
        assert engine.reduce_sum(x).data == pytest.approx(15.0)
        # a given axis is kept with extent 1
        np.testing.assert_array_equal(engine.reduce_sum(x, axis=0).data,
                                      [[3.0, 5.0, 7.0]])
        np.testing.assert_array_equal(engine.reduce_mean(x, axis=1).data,
                                      [[1.0], [4.0]])
        assert engine.reduce_mean(x, axis=(0, 1)).data.shape == (1, 1)


class TestExtractPatches:
    def test_layout_and_values(self):
        # 1 series, 8 steps, 2 channels; P=4, S=2 -> N=3
        x = np.arange(16, dtype=float).reshape(1, 8, 2)
        out = engine.extract_patches(Tensor(x), 4, 2)
        assert out.shape == (1, 2, 3, 4)
        np.testing.assert_allclose(out.data[0, 0, 0], [0, 2, 4, 6])
        np.testing.assert_allclose(out.data[0, 1, 0], [1, 3, 5, 7])
        np.testing.assert_allclose(out.data[0, 0, 1], [4, 6, 8, 10])
        np.testing.assert_allclose(out.data[0, 0, 2], [8, 10, 12, 14])

    def test_tail_dropped(self):
        x = np.zeros((1, 10, 1))
        out = engine.extract_patches(Tensor(x), 4, 4)
        assert out.shape == (1, 1, 2, 4)

    def test_patch_longer_than_window_rejected(self):
        with pytest.raises(ConfigError):
            engine.extract_patches(Tensor(np.zeros((1, 3, 1))), 4, 1)

    def test_gradient_with_overlap(self):
        rng = np.random.default_rng(11)
        x0 = rng.standard_normal((2, 8, 2))
        w = rng.standard_normal((2, 2, 3, 4))

        def loss(t):
            p = engine.extract_patches(t, 4, 2)
            return engine.reduce_sum(engine.mul(p, Tensor(w)))

        check_gradients(loss, x0)


class TestBackwardSemantics:
    def test_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = engine.mul(x, 2.0)
            with pytest.raises(ContractError):
                backward(y, tape)

    def test_simple_chain(self):
        x = Tensor(3.0, requires_grad=True)
        with Tape() as tape:
            y = engine.add(engine.mul(x, x), engine.mul(2.0, x))  # 2x + 2 = 8
            backward(y, tape)
        assert x.grad == pytest.approx(8.0)

    def test_reuse_fanout(self):
        x = Tensor(2.0, requires_grad=True)
        with Tape() as tape:
            y = engine.mul(engine.mul(x, x), x)   # 3x^2 = 12
            backward(y, tape)
        assert x.grad == pytest.approx(12.0)

    def test_leaf_grads_accumulate_across_calls(self):
        x = Tensor(1.0, requires_grad=True)
        with Tape() as tape:
            y = engine.mul(x, 5.0)
            backward(y, tape)
            backward(y, tape)
        assert x.grad == pytest.approx(10.0)

    def test_no_tape_records_nothing(self):
        x = Tensor(1.0, requires_grad=True)
        y = engine.mul(x, 3.0)
        assert not y.requires_grad
        tape = Tape()
        assert len(tape) == 0

    def test_untracked_inputs_skip_nodes(self):
        a = Tensor(1.0)
        with Tape() as tape:
            _ = engine.mul(a, 2.0)
        assert len(tape) == 0

    def test_broadcast_bias_grad(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        with Tape() as tape:
            y = engine.reduce_sum(engine.add(x, b))
            backward(y, tape)
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])
        np.testing.assert_allclose(x.grad, np.ones((4, 3)))


    def test_dead_branch_skipped(self):
        # a node whose output never reaches the loss keeps grad None and
        # leaves the leaf grads as they are without it
        def run(side_branch):
            x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
            w = Tensor(np.array([1.5, 0.25, -2.0]), requires_grad=True)
            with Tape() as tape:
                h = engine.gelu(engine.mul(x, w))
                side = engine.mul(engine.gelu(h), w) if side_branch else None
                loss = engine.reduce_sum(engine.mul(h, h))
                backward(loss, tape)
            return x, w, h, side

        x, w, h, side = run(side_branch=True)
        x0, w0, _, _ = run(side_branch=False)
        assert side.requires_grad and side.grad is None
        assert h.grad is not None
        np.testing.assert_array_equal(x.grad, x0.grad)
        np.testing.assert_array_equal(w.grad, w0.grad)

    def test_fanout_inputs_own_their_grads(self):
        # add hands the same upstream grad to both inputs; a accumulates
        # again afterwards through the mul recorded before the add
        c = np.arange(6.0).reshape(2, 3)
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        with Tape() as tape:
            early = engine.mul(a, 3.0)
            s = engine.add(a, b)
            loss = engine.add(engine.reduce_sum(engine.mul(s, Tensor(c))),
                              engine.reduce_sum(early))
            backward(loss, tape)
        np.testing.assert_array_equal(b.grad, c)
        np.testing.assert_array_equal(a.grad, c + 3.0)

    def test_leaf_first_grad_through_views(self):
        # x's first grad is a view of y's (swapaxes) and of z's (reshape)
        c = np.arange(24.0).reshape(4, 3, 2)
        d = np.arange(24.0).reshape(24) * 0.5
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        with Tape() as tape:
            early = engine.mul(x, 2.0)
            y = engine.swapaxes(x, 0, 2)
            z = engine.reshape(x, (24,))
            loss = engine.add(
                engine.add(engine.reduce_sum(engine.mul(y, Tensor(c))),
                           engine.reduce_sum(engine.mul(z, Tensor(d)))),
                engine.reduce_sum(early))
            backward(loss, tape)
        np.testing.assert_array_equal(y.grad, c)
        np.testing.assert_array_equal(z.grad, d)
        np.testing.assert_array_equal(
            x.grad, np.swapaxes(c, 0, 2) + d.reshape(2, 3, 4) + 2.0)

    def test_upstream_grads_unchanged(self):
        rng = np.random.default_rng(12)
        c = rng.standard_normal((4, 3))
        c2 = rng.standard_normal((3, 4))
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        # bias also takes a second grad, added into the first write
        gain = Tensor(rng.standard_normal(4), requires_grad=True)
        bias = Tensor(rng.standard_normal(4), requires_grad=True)
        v = Tensor(rng.standard_normal((3, 4)))
        with Tape() as tape:
            early = engine.mul(x, w)
            early_bias = engine.mul(bias, 2.0)
            s = engine.sub(x, w)
            r = engine.swapaxes(s, 0, 1)
            n = engine.layer_norm(v, gain, bias)
            loss = engine.add(engine.reduce_sum(engine.mul(r, Tensor(c))),
                              engine.reduce_sum(early))
            loss = engine.add(loss, engine.add(
                engine.reduce_sum(engine.mul(n, Tensor(c2))),
                engine.reduce_sum(early_bias)))
            backward(loss, tape)
        np.testing.assert_array_equal(r.grad, c)
        np.testing.assert_array_equal(s.grad, c.T)
        np.testing.assert_array_equal(early.grad, np.ones((3, 4)))
        np.testing.assert_array_equal(n.grad, c2)
        np.testing.assert_allclose(bias.grad, c2.sum(axis=0) + 2.0,
                                   rtol=1e-15)
        np.testing.assert_allclose(x.grad, c.T + w.data, rtol=1e-15)
        np.testing.assert_allclose(w.grad, -c.T + x.data, rtol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(cfg=tiny_configs(), data_seed=st.integers(0, 2**32 - 1))
    def test_grads_share_no_memory(self, cfg, data_seed):
        # VJPs hand fresh arrays over without a copy; no grad, of a leaf or
        # of a tape output, may share memory with another grad or with the
        # data of a tape output
        params = init_params(cfg)
        rng = np.random.default_rng(data_seed)
        x = rng.standard_normal((2, cfg.seq_len, cfg.channels))
        y = rng.standard_normal((2, cfg.pred_len, cfg.channels))
        with Tape() as tape:
            fc = forward(x, params, cfg, training=True, rng=rng)
            backward(mse_loss(fc.values, y), tape)
        grads = [t.grad for t in params.named_parameters().values()]
        grads += [out.grad for out, _ in tape._nodes]
        grads = [g for g in grads if g is not None]
        outputs = [out.data for out, _ in tape._nodes]
        for i, g in enumerate(grads):
            for other in grads[i + 1:] + outputs:
                assert not np.shares_memory(g, other)


class TestPrimitiveGradients:
    """Finite-difference checks on every differentiable primitive."""

    def test_elementwise(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((3, 4))
        c = rng.standard_normal((3, 4))
        check_gradients(lambda t: engine.reduce_sum(engine.mul(t, Tensor(c))), x0)
        check_gradients(lambda t: engine.reduce_sum(engine.div(Tensor(c), engine.add(t, 5.0))), x0)
        check_gradients(lambda t: engine.reduce_sum(engine.sub(t, engine.mul(t, t))), x0)

    def test_sqrt(self):
        rng = np.random.default_rng(2)
        x0 = rng.random((5,)) + 0.5
        check_gradients(lambda t: engine.reduce_sum(engine.sqrt(t)), x0)

    def test_sqrt_grad_is_zero_at_zero(self):
        # unbounded at 0, so the adjoint takes 0 there; elsewhere it is
        # g * 0.5 / sqrt(x) to the bit
        x0 = np.array([0.0, 0.25, 2.0, 0.0, 1e-300])
        g = np.array([1.5, -2.0, 3.0, 0.0, 1.0])
        x = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            backward(engine.reduce_sum(engine.mul(engine.sqrt(x), g)), tape)
        nz = x0 != 0.0
        assert np.all(x.grad[~nz] == 0.0)
        assert x.grad[nz].tobytes() == (g[nz] * 0.5 / np.sqrt(x0[nz])).tobytes()

    def test_gelu(self):
        rng = np.random.default_rng(3)
        check_gradients(lambda t: engine.reduce_sum(engine.gelu(t)),
                        rng.standard_normal((4, 4)))

    def test_layer_norm(self):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((3, 6))
        c = rng.standard_normal((3, 6))
        g = Tensor(rng.standard_normal(6))
        b = Tensor(rng.standard_normal(6))
        check_gradients(
            lambda t: engine.reduce_sum(engine.mul(engine.layer_norm(t, g, b), Tensor(c))),
            x0, rtol=1e-4, atol=1e-6)

    def test_layer_norm_affine_params(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((3, 6)))
        c = rng.standard_normal((3, 6))
        g0 = rng.standard_normal(6)
        check_gradients(
            lambda t: engine.reduce_sum(
                engine.mul(engine.layer_norm(x, t, Tensor(np.zeros(6))), Tensor(c))),
            g0)

    def test_layer_norm_rank4_broadcast_affine(self):
        # a [D] gain and bias broadcast over every leading axis of a rank-4
        # input; any other affine shape is refused
        rng = np.random.default_rng(16)
        c = rng.standard_normal((2, 3, 4, 5))
        check_gradients_jointly(
            lambda x, g, b: engine.reduce_sum(engine.mul(
                engine.layer_norm(x, g, b), Tensor(c))),
            [rng.standard_normal((2, 3, 4, 5)) * 3 + 1,
             rng.standard_normal((5,)), rng.standard_normal((5,))],
            rtol=1e-4, atol=1e-6)
        x = Tensor(rng.standard_normal((2, 3, 4, 5)))
        for gain, bias in [((3, 1, 5), (5,)), ((5,), (1, 5)), ((1,), (1,))]:
            with pytest.raises(ContractError, match="gain and bias"):
                engine.layer_norm(x, Tensor(np.ones(gain)),
                                  Tensor(np.zeros(bias)))

    def test_layer_norm_residual(self):
        rng = np.random.default_rng(17)
        c = rng.standard_normal((2, 3, 5))
        check_gradients_jointly(
            lambda x, r, g, b: engine.reduce_sum(engine.mul(
                engine.layer_norm(x, g, b, residual=r), Tensor(c))),
            [rng.standard_normal((2, 3, 5)), rng.standard_normal((2, 3, 5)),
             rng.standard_normal(5), rng.standard_normal(5)],
            rtol=1e-4, atol=1e-6)

    def test_layer_norm_residual_alone_requires_grad(self):
        rng = np.random.default_rng(18)
        x = Tensor(rng.standard_normal((3, 6)))
        g = Tensor(rng.standard_normal(6))
        b = Tensor(rng.standard_normal(6))
        c = rng.standard_normal((3, 6))
        r0 = rng.standard_normal((3, 6))
        check_gradients(
            lambda r: engine.reduce_sum(engine.mul(
                engine.layer_norm(x, g, b, residual=r), Tensor(c))),
            r0, rtol=1e-4, atol=1e-6)
        # the fused sum is the two-node add + layer_norm to the bit
        np.testing.assert_array_equal(
            engine.layer_norm(x, g, b, residual=Tensor(r0)).data,
            engine.layer_norm(engine.add(x, Tensor(r0)), g, b).data)

    def test_layer_norm_residual_shares_one_grad(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        r = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 6)))
        with Tape() as tape:
            out = engine.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)),
                                    residual=r)
            assert len(tape) == 1
            backward(engine.reduce_sum(engine.mul(out, c)), tape)
        np.testing.assert_array_equal(x.grad, r.grad)
        assert not np.shares_memory(x.grad, r.grad)
        with pytest.raises(ContractError, match="residual"):
            engine.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)),
                              residual=Tensor(np.zeros((1, 6))))

    def test_layer_norm_records_one_node(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        with Tape() as tape:
            engine.layer_norm(x, Tensor(np.ones(3), requires_grad=True),
                              Tensor(np.zeros(3), requires_grad=True))
        assert len(tape) == 1

    def test_matmul(self):
        rng = np.random.default_rng(7)
        a0 = rng.standard_normal((3, 4))
        b = Tensor(rng.standard_normal((4, 2)))
        check_gradients(lambda t: engine.reduce_sum(engine.matmul(t, b)), a0)
        a = Tensor(a0)
        check_gradients(lambda t: engine.reduce_sum(engine.matmul(a, t)),
                        rng.standard_normal((4, 2)))

    def test_matmul_with_bias(self):
        rng = np.random.default_rng(20)
        a0 = rng.standard_normal((2, 3, 4))
        w0 = rng.standard_normal((4, 5))
        b0 = rng.standard_normal(5)
        c = rng.standard_normal((2, 3, 5))
        check_gradients_jointly(
            lambda a, w, b: engine.reduce_sum(engine.mul(
                engine.matmul(a, w, b), Tensor(c))), [a0, w0, b0])
        with Tape() as tape:
            out = engine.matmul(Tensor(a0, requires_grad=True), Tensor(w0),
                                Tensor(b0))
        assert len(tape) == 1
        np.testing.assert_array_equal(out.data, a0 @ w0 + b0)
        with pytest.raises(ContractError, match="bias"):
            engine.matmul(Tensor(a0), Tensor(w0), Tensor(np.zeros(4)))

    def test_patch_mix(self):
        # w_time applied over the patch axis of [B, C, N, D]
        rng = np.random.default_rng(21)
        x0 = rng.standard_normal((2, 3, 4, 5))
        w0 = rng.standard_normal((4, 4))
        c = rng.standard_normal((2, 3, 4, 5))
        np.testing.assert_allclose(
            engine.patch_mix(Tensor(x0), Tensor(w0)).data,
            np.einsum("bcmd,mn->bcnd", x0, w0), rtol=1e-13, atol=1e-13)
        check_gradients_jointly(
            lambda x, w: engine.reduce_sum(engine.mul(
                engine.patch_mix(x, w), Tensor(c))), [x0, w0])
        with pytest.raises(ContractError, match="patch_mix"):
            engine.patch_mix(Tensor(x0), Tensor(np.eye(5)))

    def test_mse_loss(self):
        rng = np.random.default_rng(22)
        p0 = rng.standard_normal((2, 4, 3))
        t0 = rng.standard_normal((2, 4, 3))
        check_gradients_jointly(mse_loss, [p0, t0])
        with Tape() as tape:
            loss = mse_loss(Tensor(p0, requires_grad=True), t0)
        assert len(tape) == 1
        assert float(loss.data) == pytest.approx(np.mean((p0 - t0) ** 2),
                                                 rel=1e-15)

    def test_matmul_batched_broadcast(self):
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal((2, 3, 4))
        w0 = rng.standard_normal((4, 5))
        w = Tensor(w0)
        check_gradients(lambda t: engine.reduce_sum(engine.matmul(t, w)), x0)
        x = Tensor(x0)
        check_gradients(lambda t: engine.reduce_sum(engine.matmul(x, t)), w0)

    def test_matmul_noncontiguous_rank4_shared_weight(self):
        # channel attention multiplies a swapaxes view [B, N, C, D] by [D, D]
        rng = np.random.default_rng(13)
        x0 = rng.standard_normal((2, 3, 4, 5))
        w0 = rng.standard_normal((5, 6))
        c = rng.standard_normal((2, 4, 3, 6))
        w = Tensor(w0, requires_grad=True)
        check_gradients(
            lambda t: engine.reduce_sum(engine.mul(
                engine.matmul(engine.swapaxes(t, 1, 2), w), Tensor(c))), x0)
        x = Tensor(x0, requires_grad=True)
        check_gradients(
            lambda t: engine.reduce_sum(engine.mul(
                engine.matmul(engine.swapaxes(x, 1, 2), t), Tensor(c))), w0)

    def test_reshape_swapaxes(self):
        rng = np.random.default_rng(9)
        x0 = rng.standard_normal((2, 3, 4))
        c = rng.standard_normal((4, 3, 2))
        check_gradients(
            lambda t: engine.reduce_sum(engine.mul(
                engine.swapaxes(t, 0, 2), Tensor(c))), x0)
        c2 = rng.standard_normal((6, 4))
        check_gradients(
            lambda t: engine.reduce_sum(engine.mul(
                engine.reshape(t, (6, 4)), Tensor(c2))), x0)

    def test_reduce_mean_axis(self):
        rng = np.random.default_rng(10)
        x0 = rng.standard_normal((3, 5))
        c = rng.standard_normal((3, 1))
        check_gradients(
            lambda t: engine.reduce_sum(engine.mul(
                engine.reduce_mean(t, axis=1), Tensor(c))), x0)


def oracle_power_autocorrelation(x: np.ndarray) -> np.ndarray:
    """max(0, N^(-1/2) * sum_n x[n] * x[(n+m) mod N]) along axis -2, by
    direct summation, no FFT."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-2]
    out = np.zeros_like(x)
    for m in range(n):
        for k in range(n):
            out[..., m, :] += x[..., k, :] * x[..., (k + m) % n, :]
    return np.maximum(out / np.sqrt(n), 0.0)


class TestSpectralPrimitives:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_circular_autocorr_matches_time_domain_sum(self, n):
        rng = np.random.default_rng(20 + n)
        x = rng.standard_normal((2, n, 3))
        out = engine.power_autocorrelation(Tensor(x))
        np.testing.assert_allclose(out.data, oracle_power_autocorrelation(x),
                                   rtol=1e-12, atol=1e-12)

    def test_circular_autocorr_middle_axis_value(self):
        # the patch axis of [B, C, N, D]
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 3, 7, 4))
        out = engine.power_autocorrelation(Tensor(x))
        assert out.shape == x.shape
        np.testing.assert_allclose(out.data, oracle_power_autocorrelation(x),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 8, 11, 16])
    def test_circular_autocorr_gradient_middle_axis(self, n):
        # 2 + small noise keeps every lag well above the clamp
        rng = np.random.default_rng(40 + n)
        x0 = 2.0 + 0.3 * rng.standard_normal((2, n, 3))
        assert np.all(oracle_power_autocorrelation(x0) > 0.5)
        c = rng.standard_normal((2, n, 3))
        check_gradients(lambda t: engine.reduce_sum(engine.mul(
            engine.power_autocorrelation(t), Tensor(c))), x0)

    def test_clamped_lags_pass_no_gradient(self):
        # an alternating sequence has lags +1, -1, +1, -1; only lags 0 and 2
        # survive the clamp, so only their upstream grads reach x
        x0 = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
        c = np.array([0.0, 5.0, 0.0, -7.0])[:, None]   # on the clamped lags
        x = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            out = engine.power_autocorrelation(x)
            backward(engine.reduce_sum(engine.mul(out, Tensor(c))), tape)
        np.testing.assert_array_equal(out.data[[1, 3]], 0.0)
        assert np.all(x.grad == 0.0)

    def test_circular_autocorr_records_one_node(self):
        x = Tensor(np.array([1.0, 2.0, 3.0, 4.0])[:, None], requires_grad=True)
        with Tape() as tape:
            out = engine.power_autocorrelation(x)
            assert len(tape) == 1
            backward(engine.reduce_sum(out), tape)
        assert x.grad is not None and np.all(np.isfinite(x.grad))

    def test_nontaped_transforms(self):
        rng = np.random.default_rng(52)
        x = rng.standard_normal((3, 8, 2))
        leaf = Tensor(x, requires_grad=True)
        out = engine.power_autocorrelation(leaf)
        assert not out.requires_grad
        with Tape() as tape:
            taped = engine.power_autocorrelation(leaf)
        assert len(tape) == 1
        np.testing.assert_array_equal(out.data, taped.data)


class TestAttention:
    @staticmethod
    def _params(d, rng):
        def w():
            return Tensor(rng.standard_normal((d, d)) * 0.3, requires_grad=True)

        def b():
            return Tensor(rng.standard_normal(d) * 0.1, requires_grad=True)

        return AttentionParams(w(), b(), w(), b(), w(), b(), w(), b())

    def test_output_shape(self):
        rng = np.random.default_rng(70)
        p = self._params(8, rng)
        x = Tensor(rng.standard_normal((3, 5, 8)))
        out = engine.multi_head_attention(x, p, heads=2)
        assert out.shape == (3, 5, 8)

    def test_heads_must_divide(self):
        rng = np.random.default_rng(71)
        p = self._params(8, rng)
        x = Tensor(rng.standard_normal((1, 4, 8)))
        with pytest.raises(ConfigError):
            engine.multi_head_attention(x, p, heads=3)

    @pytest.mark.parametrize("heads", [0, 2.0, True])
    def test_bad_heads_rejected(self, heads):
        rng = np.random.default_rng(71)
        p = self._params(8, rng)
        x = Tensor(rng.standard_normal((1, 3, 8)))
        with pytest.raises(ConfigError, match="heads"):
            engine.multi_head_attention(x, p, heads=heads)

    @pytest.mark.parametrize("axis", [-1, 2])
    def test_tokens_on_feature_axis_rejected(self, axis):
        rng = np.random.default_rng(71)
        p = self._params(4, rng)
        x = Tensor(rng.standard_normal((1, 3, 4)))
        with pytest.raises(ContractError, match="feature axis"):
            engine.multi_head_attention(x, p, heads=2, token_axis=axis)

    @pytest.mark.parametrize("ndim", [3, 4, 5])
    def test_head_split_is_moveaxis(self, ndim):
        # x is [..., D] with ndim axes; heads split it to [..., H, dh]
        for token_axis in range(ndim - 1):
            shape = (*range(2, ndim + 1), 2, 3)    # H=2, dh=3
            a = np.arange(float(np.prod(shape))).reshape(shape)
            to_heads, from_heads = engine._token_axes(ndim + 1, token_axis)
            split = a.transpose(to_heads)
            want = np.moveaxis(a, (token_axis, -2), (-2, -3))
            assert split.shape == want.shape
            assert split.strides == want.strides
            np.testing.assert_array_equal(split, want)
            merged = split.transpose(from_heads)
            assert merged.shape == a.shape and merged.strides == a.strides
            np.testing.assert_array_equal(merged, a)
            # the dropout mask's layout: tokens second-to-last of x
            y = a[..., 0, :]
            to_back, back = engine._token_axes(ndim, token_axis)
            moved = y.transpose(to_back)
            assert moved.strides == np.moveaxis(y, token_axis, -2).strides
            assert (moved.transpose(back).strides
                    == np.moveaxis(moved, -2, token_axis).strides == y.strides)

    def test_weights_row_stochastic(self):
        rng = np.random.default_rng(72)
        p = self._params(8, rng)
        assert_rows_stochastic(rng.standard_normal((2, 6, 8)), p, heads=4)

    def test_identical_tokens_give_identical_outputs(self):
        rng = np.random.default_rng(73)
        p = self._params(8, rng)
        row = rng.standard_normal(8)
        x = Tensor(np.tile(row, (1, 5, 1)))
        out = engine.multi_head_attention(x, p, heads=2).data
        for s in range(1, 5):
            np.testing.assert_allclose(out[0, s], out[0, 0], atol=1e-12)

    def test_input_gradient(self):
        rng = np.random.default_rng(74)
        p = self._params(4, rng)
        x0 = rng.standard_normal((2, 3, 4))
        c = rng.standard_normal((2, 3, 4))

        def loss(t):
            y = engine.multi_head_attention(t, p, heads=2)
            return engine.reduce_sum(engine.mul(y, Tensor(c)))

        check_gradients(loss, x0, rtol=1e-4, atol=1e-6)

    def test_projection_gradient(self):
        rng = np.random.default_rng(75)
        p = self._params(4, rng)
        x = Tensor(rng.standard_normal((1, 3, 4)))
        c = rng.standard_normal((1, 3, 4))
        wq0 = p.wq.data.copy()

        def loss(t):
            q = AttentionParams(t, p.bq, p.wk, p.bk, p.wv, p.bv, p.wo, p.bo)
            y = engine.multi_head_attention(x, q, heads=2)
            return engine.reduce_sum(engine.mul(y, Tensor(c)))

        check_gradients(loss, wq0, rtol=1e-4, atol=1e-6)

    def test_records_one_node(self):
        rng = np.random.default_rng(76)
        p = self._params(8, rng)
        x = Tensor(rng.standard_normal((2, 3, 5, 8)), requires_grad=True)
        with Tape() as tape:
            engine.multi_head_attention(x, p, heads=2, dropout_p=0.5,
                                        training=True, rng=rng)
        assert len(tape) == 1

    def test_bad_dropout_rejected(self):
        rng = np.random.default_rng(77)
        p = self._params(8, rng)
        x = Tensor(rng.standard_normal((1, 4, 8)))
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError, match="dropout probability"):
                engine.multi_head_attention(x, p, heads=2, dropout_p=bad)
        with pytest.raises(ConfigError, match="needs an rng"):
            engine.multi_head_attention(x, p, heads=2, dropout_p=0.5,
                                        training=True)

    def test_weights_known_row(self):
        # one head of width 1 with q = x and k = x - 1: the first token
        # (x = 1) scores the two keys [0, log 2] and weighs them 1/3, 2/3.
        # Its output is w . v; values 1 and x give two equations for w.
        one, zero = Tensor(np.ones((1, 1))), Tensor(np.zeros(1))
        p = AttentionParams(one, zero, one, Tensor(-np.ones(1)), one, zero,
                            one, zero)
        x = Tensor(np.array([[1.0], [1.0 + np.log(2.0)]]))
        ones = dataclasses.replace(p, wv=Tensor(np.zeros((1, 1))),
                                   bv=Tensor(np.ones(1)))
        rows = [engine.multi_head_attention(x, q, heads=1).data[0, 0]
                for q in (ones, p)]
        w = np.linalg.solve(np.hstack([np.ones((2, 1)), x.data]).T, rows)
        np.testing.assert_allclose(w, [1 / 3, 2 / 3], rtol=0, atol=1e-12)

    def test_weights_stochastic_at_large_scores(self):
        rng = np.random.default_rng(78)
        p = dataclasses.replace(self._params(8, rng), bq=Tensor(np.zeros(8)),
                                bk=Tensor(np.zeros(8)))
        x = rng.standard_normal((3, 6, 8))

        def peak_score(x):
            q = (x @ p.wq.data).reshape(3, 6, 2, 4).swapaxes(1, 2)
            k = (x @ p.wk.data).reshape(3, 6, 2, 4).swapaxes(1, 2)
            return np.abs(q @ k.swapaxes(-1, -2)).max() / 2.0

        # with no query or key bias the scores scale as the square of x
        x *= np.sqrt(500.0 / peak_score(x))
        assert peak_score(x) == pytest.approx(500.0)
        assert_rows_stochastic(x, p, heads=2)

    @settings(max_examples=50, deadline=None)
    @given(shift=st.lists(st.floats(-10.0, 10.0), min_size=8, max_size=8))
    def test_weights_invariant_to_key_bias(self, shift):
        # q . (k + shift) moves every score of one query row by q . shift,
        # so the weights, and with the values unchanged the output, stay
        rng = np.random.default_rng(79)
        p = self._params(8, rng)
        x = Tensor(rng.standard_normal((2, 5, 8)))
        before = engine.multi_head_attention(x, p, heads=2).data
        shifted = dataclasses.replace(p, bk=Tensor(p.bk.data + np.array(shift)))
        after = engine.multi_head_attention(x, shifted, heads=2).data
        np.testing.assert_allclose(after, before, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_output_matches_oracle(self, heads):
        rng = np.random.default_rng(80)
        p = self._params(8, rng)
        x = rng.standard_normal((2, 3, 5, 8))
        for axis in (-2, -3):
            # training mode at p = 0 draws no mask and needs no rng
            out = engine.multi_head_attention(Tensor(x), p, heads=heads,
                                              token_axis=axis, training=True)
            tokens = np.moveaxis(x, axis, -2)
            got = np.moveaxis(out.data, axis, -2)
            for idx in np.ndindex(tokens.shape[:2]):
                np.testing.assert_allclose(
                    got[idx], oracle_attention(tokens[idx], p, heads),
                    rtol=0, atol=1e-12)

    def test_dropout_mask_is_the_next_draw(self):
        # the probability mask is rng.random(weights.shape) >= p, drawn
        # first; the output mask is the next draw, taken in the shape of x
        # with the tokens second-to-last
        rng = np.random.default_rng(81)
        p = self._params(4, rng)
        x = rng.standard_normal((3, 5, 2, 4))
        for axis in (-2, -3):
            out = engine.multi_head_attention(
                Tensor(x), p, heads=2, token_axis=axis, dropout_p=0.4,
                training=True, rng=np.random.default_rng(9))
            tokens = np.moveaxis(x, axis, -2)

            def heads(w, b):                    # [..., S, D] -> [..., 2, S, 2]
                return (tokens @ w.data + b.data).reshape(
                    *tokens.shape[:-1], 2, 2).swapaxes(-3, -2)

            q, k, v = heads(p.wq, p.bq), heads(p.wk, p.bk), heads(p.wv, p.bv)
            scores = q @ k.swapaxes(-1, -2) / np.sqrt(2.0)
            w = np.exp(scores - scores.max(axis=-1, keepdims=True))
            w /= w.sum(axis=-1, keepdims=True)
            draws = np.random.default_rng(9)
            keep = draws.random(w.shape) >= 0.4
            keep_out = draws.random(tokens.shape) >= 0.4
            ctx = ((w * keep / 0.6) @ v).swapaxes(-3, -2).reshape(tokens.shape)
            expected = (ctx @ p.wo.data + p.bo.data) * keep_out / 0.6
            np.testing.assert_allclose(out.data,
                                       np.moveaxis(expected, -2, axis),
                                       rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(s=st.integers(1, 4), heads=st.integers(1, 2), dh=st.integers(1, 2),
           lead=st.lists(st.integers(1, 2), min_size=1, max_size=3),
           token_axis=st.sampled_from([-2, -3]), dropout=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_gradients_match_central_differences(self, s, heads, dh, lead,
                                                 token_axis, dropout, seed):
        rng = np.random.default_rng(seed)
        d = heads * dh
        arrays = [rng.standard_normal((*lead, s, d))]
        for _ in range(4):
            arrays += [rng.standard_normal((d, d)) * 0.5,
                       rng.standard_normal(d) * 0.2]
        c = Tensor(rng.standard_normal((*lead, s, d)))

        def loss(x, *weights):
            # a fresh rng per evaluation draws the same dropout mask each time
            y = engine.multi_head_attention(
                x, AttentionParams(*weights), heads, token_axis=token_axis,
                dropout_p=0.5 if dropout else 0.0, training=True,
                rng=np.random.default_rng(seed))
            return engine.reduce_sum(engine.mul(y, c))

        check_gradients_jointly(loss, arrays)


@st.composite
def spread_rows(draw):
    """Two [R, D] arrays, R in 1..64 and D in 1..96, of either sign with
    magnitudes from 1e-3 to 1e3."""
    r, d = draw(st.integers(1, 64)), draw(st.integers(1, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def spread():
        return (rng.choice([-1.0, 1.0], (r, d))
                * 10.0 ** rng.uniform(-3.0, 3.0, (r, d)))
    return spread(), spread()


class TestRowKernels:
    @settings(max_examples=200, deadline=None)
    @given(rows=spread_rows())
    def test_rows_do_not_depend_on_the_block(self, rows):
        # evaluate's cache-sized blocks rest on this: a row's sum is the
        # same bits whether it comes alone, in a few rows or in all of them
        a, b = rows
        r = a.shape[0]
        sums, dots = engine._row_sums(a), engine._row_dots(a, b)
        assert sums.shape == dots.shape == (r, 1)
        for size in {1, 3, 7, r - 1} - {0}:
            for lo in range(0, r, size):
                part = slice(lo, lo + size)
                assert (engine._row_sums(a[part]).tobytes()
                        == sums[part].tobytes())
                assert (engine._row_dots(a[part], b[part]).tobytes()
                        == dots[part].tobytes())

    def test_values_and_layouts(self):
        rng = np.random.default_rng(50)
        a = rng.standard_normal((3, 4, 5))
        b = rng.standard_normal((3, 4, 5))
        np.testing.assert_allclose(engine._row_sums(a),
                                   a.sum(axis=-1, keepdims=True), rtol=1e-14)
        np.testing.assert_allclose(engine._row_dots(a, b),
                                   (a * b).sum(axis=-1, keepdims=True),
                                   rtol=1e-14)
        np.testing.assert_allclose(engine._col_sums(a),
                                   a.sum(axis=(0, 1)), rtol=1e-14)
        np.testing.assert_allclose(engine._col_dots(a, b),
                                   (a * b).sum(axis=(0, 1)), rtol=1e-14)
        # a transposed operand is summed as its C-ordered copy would be
        t = np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)
        assert not t.flags.c_contiguous
        assert (engine._row_sums(t).tobytes()
                == engine._row_sums(np.ascontiguousarray(t)).tobytes())


# train_c7's and train_small's shapes, B=32
PARITY_SHAPES = {
    "train_c7": ModelConfig(channels=7),
    "train_small": ModelConfig(channels=2, pred_len=24, latent_dim=16,
                               heads=2),
}


class TestReferenceParity:
    """The row and column kernels and the Hartley autocorrelation sum in
    another order than numpy's reductions and the two-part DFT form; the
    references in ``helpers`` keep those forms, and the new ones stay
    within 1e-13 relative of them."""

    @pytest.mark.parametrize("shape", PARITY_SHAPES)
    def test_layer_norm(self, shape):
        cfg = PARITY_SHAPES[shape]
        dims = (32, cfg.channels, cfg.num_patches, cfg.latent_dim)
        rng = np.random.default_rng(60)
        arrays = [rng.standard_normal(dims) * 3.0 + 1.0,
                  rng.standard_normal(dims), rng.standard_normal(dims[-1:]),
                  rng.standard_normal(dims[-1:])]
        c = rng.standard_normal(dims)
        results = []
        for norm in (engine.layer_norm, reference_layer_norm):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            x, r, g, b = leaves
            with Tape() as tape:
                out = norm(x, g, b, residual=r)
                backward(engine.reduce_sum(engine.mul(out, Tensor(c))), tape)
            results.append([out.data] + [t.grad for t in leaves])
        for name, got, want in zip(("out", "x", "residual", "gain", "bias"),
                                   *results):
            assert_close_to_reference(got, want, 1e-13, name)

    @pytest.mark.parametrize("shape", PARITY_SHAPES)
    def test_autocorrelation(self, shape):
        cfg = PARITY_SHAPES[shape]
        dims = (32, cfg.channels, cfg.num_patches, cfg.latent_dim)
        rng = np.random.default_rng(61)
        x = rng.standard_normal(dims)
        g = rng.standard_normal(dims)
        acf, state = engine.autocorrelation(x, True)
        ref, ref_state = reference_autocorrelation(x, True)
        assert len(state) == 2
        assert_close_to_reference(acf, ref, 1e-13, "lags")
        # the same lags clamped, so the adjoints are of the same function
        np.testing.assert_array_equal(state[1], ref_state[2])
        assert_close_to_reference(engine.autocorrelation_vjp(g, state),
                                  reference_autocorrelation_vjp(g, ref_state),
                                  1e-13, "input grad")

    @pytest.mark.parametrize("shape", PARITY_SHAPES)
    def test_train_step(self, shape, monkeypatch):
        # a training forward and backward with the references patched in:
        # the same forecast and parameter grads, but for the key biases,
        # whose grads are zero in exact arithmetic (softmax ignores a shift
        # shared by every key)
        cfg = PARITY_SHAPES[shape]
        rng = np.random.default_rng(62)
        x = rng.standard_normal((32, cfg.seq_len, cfg.channels))
        y = rng.standard_normal((32, cfg.pred_len, cfg.channels))

        def step():
            params = init_params(cfg)
            with Tape() as tape:
                fc = forward(x, params, cfg, training=True,
                             rng=np.random.default_rng(63))
                backward(mse_loss(fc.values, y), tape)
            return fc.values.data, {k: t.grad for k, t
                                    in params.named_parameters().items()}

        values, grads = step()
        monkeypatch.setattr(engine, "layer_norm", reference_layer_norm)
        monkeypatch.setattr(spectral_correction, "autocorrelation",
                            reference_autocorrelation)
        monkeypatch.setattr(spectral_correction, "autocorrelation_vjp",
                            reference_autocorrelation_vjp)
        ref_values, ref_grads = step()
        assert values.tobytes() != ref_values.tobytes()   # patched in
        assert_close_to_reference(values, ref_values, 1e-13, "forecast")
        for name, want in ref_grads.items():
            if name.endswith(".bk"):
                # zero within 1e-13 of the query biases' grads
                bound = 1e-13 * np.max(np.abs(ref_grads[name[:-2] + "bq"]))
                assert np.max(np.abs(grads[name])) <= bound
                assert np.max(np.abs(want)) <= bound
            else:
                assert_close_to_reference(grads[name], want, 1e-13, name)
