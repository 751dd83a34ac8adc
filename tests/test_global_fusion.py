"""Global inter-patch attention: mixing, independence, bypass."""

import numpy as np
import pytest

from dctnet.numeric_engine import AttentionParams, Tensor
from dctnet.dual_branch import AttentionSublayerParams
from dctnet.global_fusion import global_patch_attention

from helpers import (assert_rows_stochastic, check_gradients, oracle_attention,
                     oracle_layer_norm, weighted_sum)


def make_params(d, rng, scale=0.4):
    def w():
        return Tensor(rng.standard_normal((d, d)) * scale)

    def b():
        return Tensor(rng.standard_normal(d) * 0.1)

    attn = AttentionParams(w(), b(), w(), b(), w(), b(), w(), b())
    return AttentionSublayerParams(attn=attn, gain=Tensor(np.ones(d)),
                                   bias=Tensor(np.zeros(d)))


class TestForward:
    def test_single_patch_degenerates_to_projection(self):
        rng = np.random.default_rng(1)
        params = make_params(4, rng)
        h = rng.standard_normal((2, 3, 1, 4))
        out = global_patch_attention(Tensor(h), params, heads=2,
                                     dropout_p=0.0).data
        p = params.attn
        v = h @ p.wv.data + p.bv.data
        proj = v @ p.wo.data + p.bo.data
        expected = oracle_layer_norm(proj + h, np.ones(4), np.zeros(4))
        np.testing.assert_allclose(out, expected, atol=1e-9)

    def test_matches_attention_oracle_per_channel(self):
        rng = np.random.default_rng(2)
        params = make_params(4, rng)
        h = rng.standard_normal((1, 3, 5, 4))
        out = global_patch_attention(Tensor(h), params, heads=2,
                                     dropout_p=0.0).data
        for c in range(3):
            tokens = h[0, c]                         # [N, D]
            att = oracle_attention(tokens, params.attn, heads=2)
            expected = oracle_layer_norm(att + tokens, np.ones(4), np.zeros(4))
            np.testing.assert_allclose(out[0, c], expected, atol=1e-9)

    def test_output_shape_preserved(self):
        rng = np.random.default_rng(3)
        h = Tensor(rng.standard_normal((3, 2, 7, 8)))
        assert global_patch_attention(h, make_params(8, rng), heads=4,
                                      dropout_p=0.0).shape == (3, 2, 7, 8)


class TestStructure:
    def test_channels_independent(self):
        rng = np.random.default_rng(4)
        params = make_params(4, rng)
        h = rng.standard_normal((1, 3, 4, 4))
        base = global_patch_attention(Tensor(h), params, heads=2,
                                      dropout_p=0.0).data
        bumped = h.copy()
        bumped[0, 1] += 2.0
        out = global_patch_attention(Tensor(bumped), params, heads=2,
                                     dropout_p=0.0).data
        np.testing.assert_array_equal(out[0, 0], base[0, 0])
        np.testing.assert_array_equal(out[0, 2], base[0, 2])
        assert not np.allclose(out[0, 1], base[0, 1])

    def test_patches_mix(self):
        rng = np.random.default_rng(5)
        params = make_params(4, rng, scale=0.8)
        h = rng.standard_normal((1, 1, 4, 4))
        base = global_patch_attention(Tensor(h), params, heads=2,
                                      dropout_p=0.0).data
        bumped = h.copy()
        bumped[0, 0, 3] += 2.0
        out = global_patch_attention(Tensor(bumped), params, heads=2,
                                     dropout_p=0.0).data
        assert not np.allclose(out[0, 0, 0], base[0, 0, 0])

    def test_weights_row_stochastic(self):
        rng = np.random.default_rng(6)
        params = make_params(4, rng)
        h = rng.standard_normal((2, 3, 5, 4))
        assert_rows_stochastic(h, params.attn, heads=2)

    def test_dropout_active_only_in_training(self):
        rng = np.random.default_rng(7)
        params = make_params(4, rng)
        h = Tensor(rng.standard_normal((1, 2, 3, 4)))
        a = global_patch_attention(h, params, heads=2, dropout_p=0.4,
                                   training=False).data
        b = global_patch_attention(h, params, heads=2, dropout_p=0.4,
                                   training=True,
                                   rng=np.random.default_rng(1)).data
        assert not np.allclose(a, b)

    def test_gradient(self):
        rng = np.random.default_rng(8)
        params = make_params(4, rng)
        c = rng.standard_normal((1, 2, 3, 4))

        def loss(t):
            out = global_patch_attention(t, params, heads=2, dropout_p=0.0)
            return weighted_sum(out, c)

        check_gradients(loss, rng.standard_normal((1, 2, 3, 4)),
                        rtol=1e-3, atol=1e-6)
