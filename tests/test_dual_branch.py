"""Dual-branch block: temporal mixing, channel attention, fusion wiring."""

import numpy as np
import pytest
from scipy.special import erf

from dctnet.numeric_engine import AttentionParams, Tensor
from dctnet.dual_branch import (AttentionSublayerParams, TemporalBranchParams,
                                attention_sublayer, fuse_branches,
                                temporal_branch_forward)
from dctnet.errors import ContractError

from helpers import (assert_rows_stochastic, check_gradients, oracle_attention,
                     oracle_layer_norm, weighted_sum)


def gelu_np(x):
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def temporal_params(n, d, w=None, rng=None):
    if w is None:
        w = rng.standard_normal((n, n)) * 0.3
    return TemporalBranchParams(w_time=Tensor(w), gain=Tensor(np.ones(d)),
                                bias=Tensor(np.zeros(d)))


def channel_params(d, rng, scale=0.3):
    def w():
        return Tensor(rng.standard_normal((d, d)) * scale)

    def b():
        return Tensor(rng.standard_normal(d) * 0.1)

    attn = AttentionParams(w(), b(), w(), b(), w(), b(), w(), b())
    return AttentionSublayerParams(attn=attn, gain=Tensor(np.ones(d)),
                                   bias=Tensor(np.zeros(d)))


class TestTemporalBranch:
    def test_zero_weights_collapse_to_layer_norm(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 4, 6))
        params = temporal_params(4, 6, w=np.zeros((4, 4)))
        out = temporal_branch_forward(Tensor(x), params)
        np.testing.assert_allclose(
            out.data, oracle_layer_norm(x, np.ones(6), np.zeros(6)), atol=1e-9)

    def test_identity_weights_on_large_inputs_double(self):
        # gelu is the identity far from zero, so pre-norm is 2x
        rng = np.random.default_rng(1)
        x = rng.uniform(50.0, 100.0, (1, 2, 3, 4))
        params = temporal_params(3, 4, w=np.eye(3))
        out = temporal_branch_forward(Tensor(x), params)
        np.testing.assert_allclose(
            out.data, oracle_layer_norm(2 * x, np.ones(4), np.zeros(4)),
            atol=1e-8)

    def test_patch_swap_hand_case(self):
        # N=2, D=2, W_time swaps the two patches before gelu + residual
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        params = temporal_params(2, 2, w=w)
        out = temporal_branch_forward(Tensor(x), params)
        pre = gelu_np(np.array([[3.0, 4.0], [1.0, 2.0]])) + x[0, 0]
        np.testing.assert_allclose(
            out.data[0, 0], oracle_layer_norm(pre, np.ones(2), np.zeros(2)),
            atol=1e-9)

    def test_single_feature_output_is_norm_bias(self):
        # with D=1 the norm standardises a singleton, leaving only the bias
        x = np.array([[[[2.0], [-1.0]]]])
        params = TemporalBranchParams(
            w_time=Tensor([[0.0, 1.0], [1.0, 0.0]]),
            gain=Tensor([1.0]), bias=Tensor([0.25]))
        out = temporal_branch_forward(Tensor(x), params)
        np.testing.assert_allclose(out.data, 0.25, atol=1e-2)

    def test_channels_processed_independently(self):
        rng = np.random.default_rng(2)
        params = temporal_params(3, 4, rng=rng)
        x = rng.standard_normal((1, 2, 3, 4))
        base = temporal_branch_forward(Tensor(x), params).data
        bumped = x.copy()
        bumped[0, 0] += 1.5
        out = temporal_branch_forward(Tensor(bumped), params).data
        np.testing.assert_array_equal(out[0, 1], base[0, 1])
        assert not np.allclose(out[0, 0], base[0, 0])

    def test_wrong_w_time_extent(self):
        rng = np.random.default_rng(3)
        params = temporal_params(3, 4, rng=rng)
        with pytest.raises(ContractError, match=r"5 patches, got \(3, 3\)"):
            temporal_branch_forward(Tensor(np.zeros((1, 1, 5, 4))), params)

    def test_gradient(self):
        rng = np.random.default_rng(4)
        params = temporal_params(3, 4, rng=rng)
        c = rng.standard_normal((1, 2, 3, 4))

        def loss(t):
            out = temporal_branch_forward(t, params)
            return weighted_sum(out, c)

        check_gradients(loss, rng.standard_normal((1, 2, 3, 4)),
                        rtol=1e-3, atol=1e-6)


class TestChannelBranch:
    def test_single_channel_degenerates_to_projection(self):
        rng = np.random.default_rng(10)
        params = channel_params(4, rng)
        x = rng.standard_normal((2, 1, 3, 4))
        res = rng.standard_normal((2, 1, 3, 4))
        out = attention_sublayer(Tensor(x), Tensor(res), params, token_axis=-3,
                                 heads=2, dropout_p=0.0)
        # one token: attention weight is 1, context is its value vector
        p = params.attn
        v = x @ p.wv.data + p.bv.data
        proj = v @ p.wo.data + p.bo.data
        expected = oracle_layer_norm(proj + res, np.ones(4), np.zeros(4))
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_identical_channels_stay_identical(self):
        rng = np.random.default_rng(11)
        params = channel_params(6, rng)
        row = rng.standard_normal((1, 1, 4, 6))
        x = np.tile(row, (1, 5, 1, 1))
        out = attention_sublayer(Tensor(x), Tensor(x), params, token_axis=-3,
                                 heads=3, dropout_p=0.0).data
        for c in range(1, 5):
            np.testing.assert_allclose(out[0, c], out[0, 0], atol=1e-12)

    def test_matches_attention_oracle(self):
        rng = np.random.default_rng(12)
        params = channel_params(4, rng)
        x = rng.standard_normal((1, 3, 2, 4))       # C=3 tokens, N=2 positions
        res = rng.standard_normal((1, 3, 2, 4))
        out = attention_sublayer(Tensor(x), Tensor(res), params, token_axis=-3,
                                 heads=2, dropout_p=0.0).data
        for n in range(2):
            tokens = x[0, :, n, :]                   # [C, D]
            att = oracle_attention(tokens, params.attn, heads=2)
            expected = oracle_layer_norm(att + res[0, :, n, :],
                                         np.ones(4), np.zeros(4))
            np.testing.assert_allclose(out[0, :, n, :], expected, atol=1e-9)

    def test_channels_couple(self):
        rng = np.random.default_rng(13)
        params = channel_params(4, rng, scale=0.8)
        x = rng.standard_normal((1, 3, 2, 4))
        base = attention_sublayer(Tensor(x), Tensor(x), params, token_axis=-3,
                                  heads=2, dropout_p=0.0).data
        bumped = x.copy()
        bumped[0, 2] += 2.0
        out = attention_sublayer(Tensor(bumped), Tensor(bumped), params,
                                 token_axis=-3, heads=2, dropout_p=0.0).data
        assert not np.allclose(out[0, 0], base[0, 0])

    def test_residual_shape_checked(self):
        rng = np.random.default_rng(14)
        params = channel_params(4, rng)
        with pytest.raises(ContractError, match=r"residual is \(1, 2, 3, 4\), "
                                                r"input is \(1, 2, 2, 4\)"):
            attention_sublayer(Tensor(np.zeros((1, 2, 2, 4))),
                               Tensor(np.zeros((1, 2, 3, 4))), params,
                               token_axis=-3, heads=2, dropout_p=0.0)

    def test_attention_weights_row_stochastic(self):
        rng = np.random.default_rng(15)
        params = channel_params(4, rng)
        x = rng.standard_normal((2, 5, 3, 4))
        assert_rows_stochastic(x, params.attn, heads=2, token_axis=-3)

    def test_dropout_only_in_training(self):
        rng = np.random.default_rng(16)
        params = channel_params(4, rng)
        x = Tensor(rng.standard_normal((1, 3, 2, 4)))
        sublayer = dict(token_axis=-3, heads=2, dropout_p=0.5)
        a = attention_sublayer(x, x, params, training=False, **sublayer).data
        b = attention_sublayer(x, x, params, training=False, **sublayer).data
        np.testing.assert_array_equal(a, b)
        c = attention_sublayer(x, x, params, training=True,
                               rng=np.random.default_rng(0), **sublayer).data
        assert not np.allclose(a, c)


class TestFusion:
    def test_residual_substitution_wiring(self):
        rng = np.random.default_rng(21)
        tp = temporal_params(3, 4, rng=rng)
        cp = channel_params(4, rng)
        x = Tensor(rng.standard_normal((2, 3, 3, 4)))
        fused = fuse_branches(x, tp, cp, heads=2, dropout_p=0.0)
        h_time = temporal_branch_forward(x, tp)
        manual = attention_sublayer(x, h_time, cp, token_axis=-3, heads=2,
                                    dropout_p=0.0)
        np.testing.assert_allclose(fused.data, manual.data, atol=1e-12)

    def test_zeroed_block_reduces_to_nested_norms(self):
        # zero temporal weights and zero attention projections leave only
        # the two layer norms around the residual path
        n, d = 3, 4
        tp = temporal_params(n, d, w=np.zeros((n, n)))
        zero_attn = AttentionParams(*(Tensor(np.zeros((d, d))) if i % 2 == 0
                                      else Tensor(np.zeros(d))
                                      for i in range(8)))
        cp = AttentionSublayerParams(attn=zero_attn, gain=Tensor(np.ones(d)),
                                     bias=Tensor(np.zeros(d)))
        rng = np.random.default_rng(25)
        x = rng.standard_normal((1, 2, n, d))
        fused = fuse_branches(Tensor(x), tp, cp, heads=2, dropout_p=0.0)
        inner = oracle_layer_norm(x, np.ones(d), np.zeros(d))
        np.testing.assert_allclose(
            fused.data, oracle_layer_norm(inner, np.ones(d), np.zeros(d)),
            atol=1e-9)

    def test_single_channel_single_patch_scalar_chain(self):
        # C=1, N=1: attention collapses to a value-output projection chain
        rng = np.random.default_rng(26)
        tp = temporal_params(1, 2, w=np.array([[2.0]]))
        cp = channel_params(2, rng)
        x_val = np.array([[[[0.7, -0.4]]]])
        out = fuse_branches(Tensor(x_val), tp, cp, heads=1,
                            dropout_p=0.0).data
        pre = gelu_np(2.0 * x_val) + x_val
        h_time = oracle_layer_norm(pre[0, 0], np.ones(2), np.zeros(2))
        p = cp.attn
        token = x_val[0, 0, 0]
        proj = (token @ p.wv.data + p.bv.data) @ p.wo.data + p.bo.data
        expected = oracle_layer_norm(proj + h_time, np.ones(2), np.zeros(2))
        np.testing.assert_allclose(out[0, 0], expected, atol=1e-9)

    def test_gradient_through_fusion(self):
        rng = np.random.default_rng(27)
        tp = temporal_params(2, 4, rng=rng)
        cp = channel_params(4, rng)
        c = rng.standard_normal((1, 2, 2, 4))

        def loss(t):
            out = fuse_branches(t, tp, cp, heads=2, dropout_p=0.0)
            return weighted_sum(out, c)

        check_gradients(loss, rng.standard_normal((1, 2, 2, 4)),
                        rtol=1e-3, atol=1e-6)
