"""Reversible instance normalisation: statistics, affine, exact inversion."""

import numpy as np
import pytest

from dctnet import numeric_engine as engine
from dctnet.numeric_engine import Tape, Tensor, backward
from dctnet.errors import ConfigError, SingularityError
from dctnet.revin import RevINParams, revin_denormalize, revin_normalize

from helpers import check_gradients


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


class TestGradients:
    def test_through_normalize(self):
        rng = np.random.default_rng(4)
        x0 = rng.standard_normal((2, 6, 2))
        c = rng.standard_normal((2, 6, 2))
        params = RevINParams(gamma=Tensor(rng.uniform(0.5, 1.5, 2)),
                             beta=Tensor(rng.standard_normal(2)))

        def loss(t):
            out, _ = revin_normalize(t, params)
            return engine.reduce_sum(engine.mul(out, Tensor(c)))

        check_gradients(loss, x0, rtol=1e-4, atol=1e-6)

    def test_affine_params_receive_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 8, 3)))
        params = RevINParams(gamma=Tensor(np.ones(3), requires_grad=True),
                             beta=Tensor(np.zeros(3), requires_grad=True))
        with Tape() as tape:
            out, state = revin_normalize(x, params)
            back = revin_denormalize(out, params, state)
            backward(engine.reduce_sum(engine.mul(back, back)), tape)
        assert params.gamma.grad is not None
        assert params.beta.grad is not None
        assert np.all(np.isfinite(params.gamma.grad))
