"""Patch segmentation and shared linear embedding."""

import numpy as np
import pytest

from dctnet.numeric_engine import Tape, Tensor
from dctnet.errors import ConfigError
from dctnet.model import ModelConfig
from dctnet.patch_embed import PatchEmbedParams, embed_patches, \
    segment_patches

from helpers import check_gradients_jointly, weighted_sum


class TestGeometry:
    def test_default_window_yields_eleven_patches(self):
        assert ModelConfig(channels=1).num_patches == 11

    @pytest.mark.parametrize("l,p,s,n", [
        (8, 4, 4, 2), (96, 96, 1, 1), (10, 4, 4, 2), (10, 4, 1, 7),
        (100, 16, 8, 11), (104, 16, 8, 12),
    ])
    def test_count_formula(self, l, p, s, n):
        cfg = ModelConfig(channels=1, seq_len=l, patch_len=p, stride=s)
        assert cfg.num_patches == n
        x = Tensor(np.zeros((1, l, 1)))
        assert segment_patches(x, p, s).shape[2] == n

    def test_patch_longer_than_window(self):
        with pytest.raises(ConfigError):
            segment_patches(Tensor(np.zeros((1, 8, 1))), 16, 8)

    def test_invalid_geometry_rejected(self):
        x = Tensor(np.zeros((1, 24, 1)))
        for p, s in ((0, 8), (16, 0), (-1, 8), (16, -2), (2.0, 8),
                     (16, 2.5), (True, 8)):
            with pytest.raises(ConfigError):
                segment_patches(x, p, s)


class TestSegmentation:
    def test_values_and_overlap(self):
        x = np.arange(12, dtype=float).reshape(1, 12, 1)
        out = segment_patches(Tensor(x), 4, 2)
        assert out.shape == (1, 1, 5, 4)
        np.testing.assert_allclose(out.data[0, 0, 0], [0, 1, 2, 3])
        np.testing.assert_allclose(out.data[0, 0, 1], [2, 3, 4, 5])
        np.testing.assert_allclose(out.data[0, 0, 4], [8, 9, 10, 11])

    def test_channels_segmented_independently(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 16, 3))
        out = segment_patches(Tensor(x), 8, 4)
        for c in range(3):
            np.testing.assert_allclose(out.data[1, c, 1], x[1, 4:12, c])


class TestEmbedding:
    @staticmethod
    def _params(p, d, n, rng):
        return PatchEmbedParams(
            weight=Tensor(rng.standard_normal((p, d))),
            bias=Tensor(rng.standard_normal(d)),
            pos=Tensor(rng.standard_normal((n, d))))

    def test_projection_formula(self):
        rng = np.random.default_rng(1)
        params = self._params(4, 6, 3, rng)
        patches = rng.standard_normal((2, 2, 3, 4))
        out = embed_patches(Tensor(patches), params)
        assert out.shape == (2, 2, 3, 6)
        expected = patches @ params.weight.data + params.bias.data \
            + params.pos.data
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_projection_shared_across_channels(self):
        rng = np.random.default_rng(2)
        params = self._params(4, 8, 2, rng)
        patch = rng.standard_normal((1, 1, 2, 4))
        both = np.concatenate([patch, patch], axis=1)     # two equal channels
        out = embed_patches(Tensor(both), params)
        np.testing.assert_allclose(out.data[0, 0], out.data[0, 1], atol=1e-12)

    def test_positions_distinguish_equal_patches(self):
        rng = np.random.default_rng(3)
        params = self._params(4, 8, 3, rng)
        same = np.tile(rng.standard_normal(4), (1, 1, 3, 1))
        out = embed_patches(Tensor(same), params)
        assert not np.allclose(out.data[0, 0, 0], out.data[0, 0, 1])
        diff = out.data[0, 0, 0] - out.data[0, 0, 1]
        np.testing.assert_allclose(
            diff, params.pos.data[0] - params.pos.data[1], atol=1e-12)

    def test_position_table_size_must_match(self):
        rng = np.random.default_rng(4)
        params = self._params(4, 8, 3, rng)
        with pytest.raises(ConfigError, match=r"\(3, 8\).*\(5, 8\)"):
            embed_patches(Tensor(np.zeros((1, 1, 5, 4))), params)
        # a table of the wrong width is refused the same way
        params.pos = Tensor(np.zeros((3, 7)))
        with pytest.raises(ConfigError, match="position table"):
            embed_patches(Tensor(np.zeros((1, 1, 3, 4))), params)

    def test_pipeline_matches_manual_composition(self):
        rng = np.random.default_rng(5)
        params = self._params(16, 8, 11, rng)
        x = rng.standard_normal((2, 96, 3))
        tokens = embed_patches(segment_patches(Tensor(x), 16, 8), params)
        assert tokens.shape == (2, 3, 11, 8)
        manual = x[0, 16:32, 1] @ params.weight.data + params.bias.data \
            + params.pos.data[2]
        np.testing.assert_allclose(tokens.data[0, 1, 2], manual, atol=1e-12)

    def test_one_node_gradient(self):
        # projection, bias and positions are one node; each of the four
        # inputs matches central differences
        rng = np.random.default_rng(6)
        arrays = [rng.standard_normal((2, 3, 4, 5)),
                  rng.standard_normal((5, 6)), rng.standard_normal(6),
                  rng.standard_normal((4, 6))]
        c = rng.standard_normal((2, 3, 4, 6))

        def loss(patches, weight, bias, pos):
            return weighted_sum(embed_patches(
                patches, PatchEmbedParams(weight, bias, pos)), c)

        check_gradients_jointly(loss, arrays)
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        with Tape() as tape:
            embed_patches(leaves[0], PatchEmbedParams(*leaves[1:]))
        assert len(tape) == 1
