"""Differentiation engine: primitive forwards, adjoints, and tape semantics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dctnet import numeric_engine as engine, spectral_correction
from dctnet.model import ModelConfig, forward, init_params, linear_head
from dctnet.numeric_engine import AttentionParams, Tape, Tensor, backward
from dctnet.errors import ConfigError, ContractError
from dctnet.revin import RevINParams, revin_denormalize, revin_normalize
from dctnet.trainer import mse_loss

from helpers import (assert_close_to_reference, assert_rows_stochastic,
                     check_gradients, check_gradients_jointly, matmul,
                     oracle_attention, reference_autocorrelation,
                     numeric_grad, reference_autocorrelation_vjp,
                     reference_layer_norm, tiny_configs, weighted_sum)


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
    def test_matmul_known(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        np.testing.assert_allclose(matmul(a, b).data, [[11.0]])

    def test_matmul_shape_mismatch_names_both(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((4, 2)))
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(4, 2\)"):
            matmul(a, b)
        # the right operand is one shared [K, M] weight, never a batch
        batched = Tensor(np.zeros((2, 3, 5)))
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(2, 3, 5\)"):
            matmul(a, batched)

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
            return weighted_sum(engine.extract_patches(t, 4, 2), w)

        check_gradients(loss, x0)


class TestBackwardSemantics:
    def test_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = engine.gelu(x)
            with pytest.raises(ContractError):
                backward(y, tape)

    def test_simple_chain(self):
        # 3 * gelu(x @ w) for one row: x gets 3 * gelu'(x w) wᵀ
        x0, w0 = np.array([[0.5, -1.0]]), np.array([[2.0], [0.5]])
        x = Tensor(x0, requires_grad=True)
        with Tape() as tape:
            backward(weighted_sum(engine.gelu(matmul(x, Tensor(w0))),
                                  3.0), tape)
        z = 0.5                                       # x0 @ w0
        slope = (0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
                 + z * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi))
        np.testing.assert_allclose(x.grad, 3.0 * slope * w0.T, rtol=1e-15)

    def test_reuse_fanout(self):
        # x as both the input and the residual of one layer norm normalises
        # 2x, and x takes both halves of the grad
        rng = np.random.default_rng(14)
        x0, c = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
        gain, bias = Tensor(rng.standard_normal(5)), Tensor(rng.standard_normal(5))
        x = Tensor(x0, requires_grad=True)
        z = Tensor(2.0 * x0, requires_grad=True)
        for a, r in ((x, x), (z, None)):
            with Tape() as tape:
                backward(weighted_sum(
                    engine.layer_norm(a, gain, bias, residual=r), c), tape)
        np.testing.assert_array_equal(x.grad, 2.0 * z.grad)

    def test_leaf_grads_accumulate_across_calls(self):
        x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        with Tape() as tape:
            y = weighted_sum(engine.gelu(x), 1.0)
            backward(y, tape)
            first = x.grad.copy()
            backward(y, tape)
        np.testing.assert_array_equal(x.grad, 2.0 * first)

    def test_no_tape_records_nothing(self):
        x = Tensor(1.0, requires_grad=True)
        y = engine.gelu(x)
        assert not y.requires_grad
        tape = Tape()
        assert len(tape) == 0

    def test_untracked_inputs_skip_nodes(self):
        a = Tensor(1.0)
        with Tape() as tape:
            _ = engine.gelu(a)
        assert len(tape) == 0

    def test_dead_branch_skipped(self):
        # a node whose output never reaches the loss keeps grad None and
        # leaves the leaf grads as they are without it
        def run(side_branch):
            x = Tensor(np.array([[0.5, -1.0, 2.0]]), requires_grad=True)
            w = Tensor(np.array([[1.5], [0.25], [-2.0]]), requires_grad=True)
            with Tape() as tape:
                h = engine.gelu(matmul(x, w))
                side = (engine.gelu(matmul(x, w)) if side_branch
                        else None)
                backward(weighted_sum(h, h.data), tape)
            return x, w, h, side

        x, w, h, side = run(side_branch=True)
        x0, w0, _, _ = run(side_branch=False)
        assert side.requires_grad and side.grad is None
        assert h.grad is not None
        np.testing.assert_array_equal(x.grad, x0.grad)
        np.testing.assert_array_equal(w.grad, w0.grad)

    def test_fanout_inputs_own_their_grads(self):
        # layer_norm hands one grad gy to its input and its residual: a leaf
        # is one of them and gelu of the leaf the other, so the leaf adds
        # gelu's grad into its own copy later and gelu's output keeps gy
        rng = np.random.default_rng(15)
        x0, c = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        gain, bias = Tensor(rng.standard_normal(4)), Tensor(rng.standard_normal(4))
        for leaf_is_input in (True, False):
            x = Tensor(x0, requires_grad=True)
            with Tape() as tape:
                mid = engine.gelu(x)
                pair = (x, mid) if leaf_is_input else (mid, x)
                backward(weighted_sum(engine.layer_norm(
                    pair[0], gain, bias, residual=pair[1]), c), tape)
            a, r = (Tensor(t.data, requires_grad=True) for t in pair)
            with Tape() as tape:
                backward(weighted_sum(engine.layer_norm(
                    a, gain, bias, residual=r), c), tape)
            gy = a.grad
            leaf = Tensor(x0, requires_grad=True)
            with Tape() as tape:
                backward(weighted_sum(engine.gelu(leaf), gy), tape)
            np.testing.assert_array_equal(r.grad, gy)
            np.testing.assert_array_equal(mid.grad, gy)
            np.testing.assert_array_equal(x.grad, gy + leaf.grad)
            assert not np.shares_memory(x.grad, mid.grad)

    def test_leaf_first_grad_through_views(self):
        # attention hands each projection weight a column view of one
        # [D, 3D] grad; each is copied, so the query weight's later grad
        # from an earlier matmul adds into its own buffer only
        rng = np.random.default_rng(16)
        d = 4
        p = AttentionParams(*(Tensor(rng.standard_normal(shape) * 0.5,
                                     requires_grad=True)
                              for _ in range(4) for shape in ((d, d), (d,))))
        weights = (p.wq, p.wk, p.wv)
        x = Tensor(rng.standard_normal((2, 3, d)))
        c = rng.standard_normal((2, 3, d))

        def run(make_input):
            for w in weights:
                w.zero_grad()
            with Tape() as tape:
                backward(weighted_sum(engine.multi_head_attention(
                    make_input(), p, heads=2), c), tape)
            return [w.grad for w in weights]

        taped = run(lambda: matmul(x, p.wq))
        h = Tensor(x.data @ p.wq.data, requires_grad=True)
        alone = run(lambda: h)
        np.testing.assert_array_equal(taped[1], alone[1])
        np.testing.assert_array_equal(taped[2], alone[2])
        np.testing.assert_array_equal(
            taped[0], alone[0] + x.data.reshape(-1, d).T @ h.grad.reshape(-1, d))
        for i, g in enumerate(taped):
            assert g.flags.c_contiguous
            assert not any(np.shares_memory(g, o) for o in taped[i + 1:])

    def test_upstream_grads_unchanged(self):
        # no VJP writes into the upstream grad it reads; bias takes a second
        # grad, added into its first write
        rng = np.random.default_rng(12)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        gain = Tensor(rng.standard_normal(4), requires_grad=True)
        bias = Tensor(rng.standard_normal(4), requires_grad=True)
        c = rng.standard_normal((3, 4))
        with Tape() as tape:
            h = matmul(a, w, bias)
            g = engine.gelu(h)
            n = engine.layer_norm(g, gain, bias, residual=h)
            backward(weighted_sum(n, c), tape)
        leaves = [Tensor(t.data, requires_grad=True) for t in (g, h)]
        with Tape() as tape:
            backward(weighted_sum(engine.layer_norm(
                leaves[0], Tensor(gain.data), Tensor(bias.data),
                residual=leaves[1]), c), tape)
        np.testing.assert_array_equal(n.grad, c)
        np.testing.assert_array_equal(g.grad, leaves[0].grad)
        np.testing.assert_allclose(bias.grad, c.sum(axis=0) + h.grad.sum(axis=0),
                                   rtol=1e-15)
        np.testing.assert_allclose(a.grad, h.grad @ w.data.T, rtol=1e-15)
        np.testing.assert_allclose(w.grad, a.data.T @ h.grad, rtol=1e-15)

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

    def test_gelu(self):
        rng = np.random.default_rng(3)
        check_gradients(lambda t: weighted_sum(engine.gelu(t), 1.0),
                        rng.standard_normal((4, 4)))

    def test_layer_norm(self):
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal((3, 6))
        c = rng.standard_normal((3, 6))
        g = Tensor(rng.standard_normal(6))
        b = Tensor(rng.standard_normal(6))
        check_gradients(
            lambda t: weighted_sum(engine.layer_norm(t, g, b), c),
            x0, rtol=1e-4, atol=1e-6)

    def test_layer_norm_affine_params(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((3, 6)))
        c = rng.standard_normal((3, 6))
        g0 = rng.standard_normal(6)
        check_gradients(
            lambda t: weighted_sum(
                engine.layer_norm(x, t, Tensor(np.zeros(6))), c),
            g0)

    def test_layer_norm_rank4_broadcast_affine(self):
        # a [D] gain and bias broadcast over every leading axis of a rank-4
        # input; any other affine shape is refused
        rng = np.random.default_rng(16)
        c = rng.standard_normal((2, 3, 4, 5))
        check_gradients_jointly(
            lambda x, g, b: weighted_sum(engine.layer_norm(x, g, b), c),
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
            lambda x, r, g, b: weighted_sum(
                engine.layer_norm(x, g, b, residual=r), c),
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
            lambda r: weighted_sum(engine.layer_norm(x, g, b, residual=r), c),
            r0, rtol=1e-4, atol=1e-6)
        # the fused sum is x + residual normalised, to the bit
        np.testing.assert_array_equal(
            engine.layer_norm(x, g, b, residual=Tensor(r0)).data,
            engine.layer_norm(Tensor(x.data + r0), g, b).data)

    def test_layer_norm_residual_shares_one_grad(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        r = Tensor(rng.standard_normal((3, 6)), requires_grad=True)
        c = Tensor(rng.standard_normal((3, 6)))
        with Tape() as tape:
            out = engine.layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6)),
                                    residual=r)
            assert len(tape) == 1
            backward(weighted_sum(out, c), tape)
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
        check_gradients(lambda t: weighted_sum(matmul(t, b), 1.0), a0)
        a = Tensor(a0)
        check_gradients(lambda t: weighted_sum(matmul(a, t), 1.0),
                        rng.standard_normal((4, 2)))

    def test_matmul_with_bias(self):
        rng = np.random.default_rng(20)
        a0 = rng.standard_normal((2, 3, 4))
        w0 = rng.standard_normal((4, 5))
        b0 = rng.standard_normal(5)
        c = rng.standard_normal((2, 3, 5))
        check_gradients_jointly(
            lambda a, w, b: weighted_sum(matmul(a, w, b), c),
            [a0, w0, b0])
        with Tape() as tape:
            out = matmul(Tensor(a0, requires_grad=True), Tensor(w0),
                         Tensor(b0))
        assert len(tape) == 1
        np.testing.assert_array_equal(out.data, a0 @ w0 + b0)
        with pytest.raises(ContractError, match="bias"):
            matmul(Tensor(a0), Tensor(w0), Tensor(np.zeros(4)))

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
            lambda x, w: weighted_sum(engine.patch_mix(x, w), c), [x0, w0])
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
        check_gradients(lambda t: weighted_sum(matmul(t, w), 1.0), x0)
        x = Tensor(x0)
        check_gradients(lambda t: weighted_sum(matmul(x, t), 1.0), w0)

    def test_matmul_noncontiguous_rank4_shared_weight(self):
        # a strided [B, N, C, D] view of a [B, C, N, D] array times a shared
        # [D, M] weight; the view's grad keeps the view's shape
        rng = np.random.default_rng(13)
        x0 = rng.standard_normal((2, 3, 4, 5))
        w0 = rng.standard_normal((5, 6))
        c = rng.standard_normal((2, 4, 3, 6))

        def loss(xs, ws):
            return weighted_sum(matmul(xs, ws), c)

        x = Tensor(x0.swapaxes(1, 2), requires_grad=True)
        w = Tensor(w0, requires_grad=True)
        assert not x.data.flags.c_contiguous
        with Tape() as tape:
            backward(loss(x, w), tape)
        np.testing.assert_allclose(x.grad, numeric_grad(
            lambda a: float(loss(Tensor(a), Tensor(w0)).data),
            x0.swapaxes(1, 2).copy()), rtol=1e-5, atol=1e-7)
        np.testing.assert_allclose(w.grad, numeric_grad(
            lambda a: float(loss(Tensor(x0.swapaxes(1, 2)), Tensor(a)).data),
            w0.copy()), rtol=1e-5, atol=1e-7)

    def test_reshape_swapaxes(self):
        # the head flattens each channel's tokens, multiplies and moves the
        # horizon before the channels, in one node
        rng = np.random.default_rng(9)
        h0 = rng.standard_normal((2, 3, 4, 5))
        w0 = rng.standard_normal((20, 6))
        b0 = rng.standard_normal(6)
        c = rng.standard_normal((2, 6, 3))
        check_gradients_jointly(
            lambda h, w, b: weighted_sum(linear_head(h, w, b), c),
            [h0, w0, b0])
        with Tape() as tape:
            out = linear_head(Tensor(h0, requires_grad=True), Tensor(w0),
                              Tensor(b0))
        assert len(tape) == 1
        np.testing.assert_array_equal(
            out.data, (h0.reshape(2, 3, 20) @ w0 + b0).swapaxes(1, 2))

    def test_reduce_mean_axis(self):
        # RevIN's [B, 1, C] statistics broadcast over the forecast's time
        # axis; the inverse's gamma and beta grads sum over batch and time
        rng = np.random.default_rng(10)
        _, state = revin_normalize(
            Tensor(rng.standard_normal((2, 7, 3)) * 3 + 1),
            RevINParams(Tensor(np.ones(3)), Tensor(np.zeros(3))))
        c = rng.standard_normal((2, 5, 3))
        check_gradients_jointly(
            lambda y, g, b: weighted_sum(
                revin_denormalize(y, RevINParams(g, b), state), c),
            [rng.standard_normal((2, 5, 3)), rng.uniform(0.5, 2.0, 3),
             rng.standard_normal(3)])


def oracle_autocorrelation(x: np.ndarray) -> np.ndarray:
    """max(0, N^(-1/2) * sum_n x[n] * x[(n+m) mod N]) along axis -2, by
    direct summation, no FFT."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-2]
    out = np.zeros_like(x)
    for m in range(n):
        for k in range(n):
            out[..., m, :] += x[..., k, :] * x[..., (k + m) % n, :]
    return np.maximum(out / np.sqrt(n), 0.0)


def autocorrelation_fd(x0: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Central differences of sum(c * autocorrelation(x)) at ``x0``."""
    return numeric_grad(
        lambda x: float(np.sum(c * engine.autocorrelation(x, False)[0])),
        x0.copy())


class TestSpectralPrimitives:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_circular_autocorr_matches_time_domain_sum(self, n):
        rng = np.random.default_rng(20 + n)
        x = rng.standard_normal((2, n, 3))
        out = engine.autocorrelation(x, False)[0]
        np.testing.assert_allclose(out, oracle_autocorrelation(x),
                                   rtol=1e-12, atol=1e-12)

    def test_circular_autocorr_middle_axis_value(self):
        # the patch axis of [B, C, N, D]
        rng = np.random.default_rng(21)
        x = rng.standard_normal((2, 3, 7, 4))
        out = engine.autocorrelation(x, False)[0]
        assert out.shape == x.shape
        np.testing.assert_allclose(out, oracle_autocorrelation(x),
                                   rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_circular_autocorr_gradient_middle_axis(self, n):
        # 2 + small noise keeps every lag well above the clamp
        rng = np.random.default_rng(40 + n)
        x0 = 2.0 + 0.3 * rng.standard_normal((2, n, 3))
        assert np.all(oracle_autocorrelation(x0) > 0.5)
        c = rng.standard_normal((2, n, 3))
        state = engine.autocorrelation(x0, True)[1]
        np.testing.assert_allclose(engine.autocorrelation_vjp(c, state),
                                   autocorrelation_fd(x0, c),
                                   rtol=1e-5, atol=1e-7)

    def test_clamped_lags_pass_no_gradient(self):
        # an alternating sequence has lags +1, -1, +1, -1; only lags 0 and 2
        # survive the clamp, so only their upstream grads reach x
        x0 = np.array([1.0, -1.0, 1.0, -1.0])[:, None]
        c = np.array([0.0, 5.0, 0.0, -7.0])[:, None]   # on the clamped lags
        acf, state = engine.autocorrelation(x0, True)
        np.testing.assert_array_equal(acf[[1, 3]], 0.0)
        assert np.all(engine.autocorrelation_vjp(c, state) == 0.0)
        assert np.all(autocorrelation_fd(x0, c) == 0.0)

    def test_nontaped_transforms(self):
        # an untaped caller keeps no state, and gets the same lags
        rng = np.random.default_rng(52)
        x = rng.standard_normal((3, 8, 2))
        out, state = engine.autocorrelation(x, False)
        assert state is None
        np.testing.assert_array_equal(out, engine.autocorrelation(x, True)[0])


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
            return weighted_sum(y, c)

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
            return weighted_sum(y, c)

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
            return weighted_sum(y, c)

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
                backward(weighted_sum(out, c), tape)
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
