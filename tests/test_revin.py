"""Reversible instance normalisation: statistics, affine, exact inversion."""

import numpy as np
import pytest

from dctnet import numeric_engine as engine
from dctnet.numeric_engine import Tape, Tensor, backward
from dctnet.errors import ConfigError, ContractError, SingularityError
from dctnet.revin import RevINParams, revin_denormalize, revin_normalize

from helpers import check_gradients_jointly, weighted_sum


def identity_params(c):
    return RevINParams(gamma=Tensor(np.ones(c), requires_grad=True),
                       beta=Tensor(np.zeros(c), requires_grad=True))


class TestNormalize:
    def test_standardises_each_instance_channel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 50, 3)) * 5 + 11
        out, state = revin_normalize(Tensor(x), identity_params(3), eps=1e-10)
        np.testing.assert_allclose(out.data.mean(axis=1), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=1), 1.0, atol=1e-4)
        np.testing.assert_allclose(state.mean.data[:, 0, :], x.mean(axis=1))

    def test_biased_variance_in_divisor(self):
        x = np.array([[[1.0], [2.0], [3.0], [4.0]]])
        eps = 1e-5
        _, state = revin_normalize(Tensor(x), identity_params(1), eps=eps)
        assert state.std.data[0, 0, 0] == pytest.approx(np.sqrt(1.25 + eps),
                                                        rel=1e-12)

    def test_statistics_in_sum_order(self):
        # the mean and variance are time sums times 1/L, kept as [B, 1, C]
        rng = np.random.default_rng(8)
        x = rng.standard_normal((3, 11, 2)) * 7 + 3
        _, state = revin_normalize(Tensor(x), identity_params(2), eps=1e-5)
        mean = x.sum(axis=1, keepdims=True) * (1.0 / 11)
        centered = x - mean
        var = (centered * centered).sum(axis=1, keepdims=True) * (1.0 / 11)
        assert state.mean.data.tobytes() == mean.tobytes()
        assert state.std.data.tobytes() == np.sqrt(var + 1e-5).tobytes()

    def test_affine_applied_after_standardisation(self):
        x = np.array([[[0.0], [2.0]]])
        params = RevINParams(gamma=Tensor([3.0]), beta=Tensor([0.5]))
        out, _ = revin_normalize(Tensor(x), params, eps=1e-12)
        np.testing.assert_allclose(out.data[0, :, 0], [-2.5, 3.5], atol=1e-5)

    def test_constant_channel_maps_to_beta(self):
        x = np.full((2, 10, 2), 7.0)
        params = RevINParams(gamma=Tensor([2.0, 2.0]), beta=Tensor([0.3, 0.3]))
        out, _ = revin_normalize(Tensor(x), params, eps=1e-5)
        np.testing.assert_allclose(out.data, 0.3, atol=1e-12)

    def test_rejects_bad_eps_and_rank(self):
        for eps in (0.0, float("nan"), True):
            with pytest.raises(ConfigError, match="eps"):
                revin_normalize(Tensor(np.zeros((1, 4, 1))),
                                identity_params(1), eps=eps)
        with pytest.raises(ConfigError):
            revin_normalize(Tensor(np.zeros((4, 1))), identity_params(1))


class TestRoundTrip:
    def test_identity_over_random_instances(self):
        rng = np.random.default_rng(1)
        for trial in range(50):
            b, l, c = rng.integers(1, 5), rng.integers(2, 40), rng.integers(1, 6)
            x = rng.standard_normal((b, l, c)) * rng.uniform(0.01, 100)
            params = RevINParams(
                gamma=Tensor(rng.uniform(0.5, 2.0, c)),
                beta=Tensor(rng.standard_normal(c)))
            normed, state = revin_normalize(Tensor(x), params)
            restored = revin_denormalize(normed, params, state)
            np.testing.assert_allclose(restored.data, x, atol=1e-9)

    def test_near_constant_channels_survive(self):
        rng = np.random.default_rng(2)
        x = 5.0 + 1e-9 * rng.standard_normal((3, 20, 2))
        params = identity_params(2)
        normed, state = revin_normalize(Tensor(x), params)
        restored = revin_denormalize(normed, params, state)
        np.testing.assert_allclose(restored.data, x, atol=1e-9)

    def test_denorm_applies_to_different_horizon(self):
        # state captured on an L-step window denormalises a T-step forecast
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 16, 3)) * 4 + 2
        params = identity_params(3)
        _, state = revin_normalize(Tensor(x), params)
        y = Tensor(rng.standard_normal((2, 5, 3)))
        restored = revin_denormalize(y, params, state)
        expected = y.data * state.std.data + state.mean.data
        np.testing.assert_allclose(restored.data, expected, atol=1e-12)


class TestSingularity:
    def test_zero_gain_rejected(self):
        params = RevINParams(gamma=Tensor([1.0, 0.0]), beta=Tensor([0.0, 0.0]))
        x = Tensor(np.ones((1, 4, 2)))
        _, state = revin_normalize(x, params)
        with pytest.raises(SingularityError):
            revin_denormalize(Tensor(np.ones((1, 2, 2))), params, state)

    def test_tiny_gain_rejected(self):
        params = RevINParams(gamma=Tensor([1e-13]), beta=Tensor([0.0]))
        x = Tensor(np.ones((1, 4, 1)))
        _, state = revin_normalize(x, params)
        with pytest.raises(SingularityError):
            revin_denormalize(Tensor(np.ones((1, 2, 1))), params, state)


class TestShapes:
    @pytest.mark.parametrize("c_gain", [1, 2])
    def test_affine_must_match_channels(self, c_gain):
        # a (1,) gain would broadcast over all three channels, a (2,) one
        # would end in numpy's own broadcast error
        x = Tensor(np.ones((2, 4, 3)))
        params = RevINParams(gamma=Tensor(np.ones(c_gain)),
                             beta=Tensor(np.zeros(3)))
        with pytest.raises(ContractError, match="gamma and beta"):
            revin_normalize(x, params)
        _, state = revin_normalize(x, identity_params(3))
        with pytest.raises(ContractError, match="gamma and beta"):
            revin_denormalize(Tensor(np.ones((2, 5, 3))), params, state)

    def test_state_of_other_batch_rejected(self):
        _, state = revin_normalize(Tensor(np.ones((1, 4, 3))),
                                   identity_params(3))
        with pytest.raises(ContractError, match="1 windows and 3 channels"):
            revin_denormalize(Tensor(np.ones((4, 5, 3))), identity_params(3),
                              state)

    def test_state_of_other_channels_rejected(self):
        # a [1, 5, 1] forecast would broadcast to [1, 5, 3]
        _, state = revin_normalize(Tensor(np.ones((1, 4, 3))),
                                   identity_params(3))
        with pytest.raises(ContractError, match="1 windows and 3 channels"):
            revin_denormalize(Tensor(np.ones((1, 5, 1))), identity_params(1),
                              state)

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigError, match="L >= 1"):
            revin_normalize(Tensor(np.zeros((2, 0, 3))), identity_params(3))


class TestGradients:
    def test_through_normalize(self):
        # the statistics are constants, so a window that asks for its own
        # gradient on a tape is refused; off the tape it is plain data
        x = Tensor(np.random.default_rng(4).standard_normal((2, 6, 2)),
                   requires_grad=True)
        untaped, _ = revin_normalize(x, identity_params(2))
        with Tape() as tape:
            with pytest.raises(ContractError, match="constants"):
                revin_normalize(x, identity_params(2))
        assert len(tape) == 0
        assert not untaped.requires_grad

    def test_each_direction_records_one_node(self):
        x = Tensor(np.random.default_rng(6).standard_normal((2, 8, 3)))
        params = identity_params(3)
        with Tape() as tape:
            out, state = revin_normalize(x, params)
            assert len(tape) == 1
            revin_denormalize(out, params, state)
            assert len(tape) == 2
        assert not state.mean.requires_grad and not state.std.requires_grad

    def test_round_trip_affine_gradient(self):
        # gelu between the two directions, so the round trip is not the
        # identity and gamma and beta get gradient through both nodes
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((3, 9, 2)) * 4 + 1)
        c = rng.standard_normal((3, 9, 2))

        def loss(gamma, beta):
            params = RevINParams(gamma=gamma, beta=beta)
            normed, state = revin_normalize(x, params)
            back = revin_denormalize(engine.gelu(normed), params, state)
            return weighted_sum(back, c)

        gamma0 = rng.uniform(0.5, 1.5, 2) * np.array([1.0, -1.0])
        check_gradients_jointly(loss, [gamma0, rng.standard_normal(2)])

    def test_affine_params_receive_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 8, 3)))
        params = RevINParams(gamma=Tensor(np.ones(3), requires_grad=True),
                             beta=Tensor(np.zeros(3), requires_grad=True))
        with Tape() as tape:
            out, state = revin_normalize(x, params)
            back = revin_denormalize(out, params, state)
            backward(weighted_sum(back, 2.0 * back.data), tape)
        assert params.gamma.grad is not None
        assert params.beta.grad is not None
        assert np.all(np.isfinite(params.gamma.grad))
