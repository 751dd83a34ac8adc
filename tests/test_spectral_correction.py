"""Spectral correction: autocorrelations, the factor alpha, and its bypass."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dctnet import numeric_engine as engine
from dctnet.numeric_engine import Tape, Tensor, backward
from dctnet.errors import ConfigError
from dctnet.spectral_correction import (CorrectionConfig, apply_correction,
                                        correction_factor,
                                        power_autocorrelation)

from helpers import check_gradients, check_gradients_jointly, naive_dft


def as_patch_tensor(values):
    """Wrap a 1-D sequence as [1, 1, N, 1] so it lies along the patch axis."""
    v = np.asarray(values, dtype=float)
    return Tensor(v.reshape(1, 1, -1, 1))


def oracle_autocorr(seq):
    """Independent route: naive DFT, power, naive inverse DFT, clamp."""
    spec = naive_dft(np.asarray(seq, dtype=complex))
    power = (spec * spec.conj()).real
    auto = naive_dft(power.astype(complex), +1).real
    return np.clip(auto, 0.0, None)


class TestPowerAutocorrelation:
    def test_unit_impulse(self):
        out = power_autocorrelation(as_patch_tensor([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data[0, 0, :, 0], [0.5, 0, 0, 0],
                                   atol=1e-12)

    def test_zero_signal(self):
        out = power_autocorrelation(Tensor(np.zeros((2, 3, 4, 2))))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-15)

    def test_constant_signal(self):
        c = 1.7
        out = power_autocorrelation(as_patch_tensor([c, c, c, c]))
        np.testing.assert_allclose(out.data[0, 0, :, 0], 2 * c * c, atol=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for n in (4, 5, 8, 11):
            seq = rng.standard_normal(n)
            out = power_autocorrelation(as_patch_tensor(seq))
            np.testing.assert_allclose(out.data[0, 0, :, 0],
                                       oracle_autocorr(seq), atol=1e-10)

    def test_lag_zero_dominates(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 2, 8, 4))
        out = power_autocorrelation(Tensor(x)).data
        lag0 = out[:, :, 0:1, :]
        assert np.all(out <= lag0 + 1e-9)

    def test_everything_nonnegative(self):
        rng = np.random.default_rng(2)
        out = power_autocorrelation(Tensor(rng.standard_normal((2, 2, 16, 3))))
        assert np.all(out.data >= 0.0)

    def test_runs_along_patch_axis_only(self):
        # swapping feature dims must not change each dim's autocorrelation
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 1, 8, 2))
        out = power_autocorrelation(Tensor(x)).data
        swapped = power_autocorrelation(Tensor(x[..., ::-1].copy())).data
        np.testing.assert_allclose(out[..., 0], swapped[..., 1], atol=1e-12)


class TestCorrectionFactor:
    def test_identical_features_give_alpha_near_one(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.standard_normal((2, 3, 8, 4)))
        cfg = CorrectionConfig()
        alpha = correction_factor(x, x, cfg)
        assert alpha.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(alpha.data, (1.0 + cfg.eps) ** -0.5,
                                   rtol=1e-15, atol=0.0)

    def test_all_zero_input_gives_zero_not_nan(self):
        zero = Tensor(np.zeros((1, 2, 8, 3)))
        alpha = correction_factor(zero, zero, CorrectionConfig())
        np.testing.assert_array_equal(alpha.data, 0.0)

    def test_all_zero_prediction_gives_finite_grads(self):
        # alpha = 0 sits where d sqrt is unbounded; the backward through it
        # must neither warn nor hand NaN to the features
        x0 = np.random.default_rng(13).standard_normal((1, 1, 4, 2))
        h = Tensor(np.zeros((1, 1, 4, 2)), requires_grad=True)
        x = Tensor(x0, requires_grad=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with Tape() as tape:
                out, alpha = apply_correction(h, x, CorrectionConfig())
                backward(engine.reduce_sum(out), tape)
        np.testing.assert_array_equal(alpha.data, 0.0)
        np.testing.assert_array_equal(h.grad, 0.0)
        np.testing.assert_array_equal(x.grad, 0.0)

    def test_zero_prediction_gives_zero(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((1, 2, 8, 3)))
        alpha = correction_factor(Tensor(np.zeros((1, 2, 8, 3))), x,
                                  CorrectionConfig())
        np.testing.assert_allclose(alpha.data, 0.0, atol=1e-12)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(12)
        cfg = CorrectionConfig()
        for _ in range(25):
            h = Tensor(rng.standard_normal((1, 2, 8, 2)))
            x = Tensor(rng.standard_normal((1, 2, 8, 2)))
            c = float(rng.uniform(0.0, 5.0))
            scaled = correction_factor(Tensor(c * h.data), x, cfg)
            base = correction_factor(h, x, cfg)
            np.testing.assert_allclose(scaled.data, c * base.data, atol=1e-9)

    def test_scaled_features_give_alpha_c(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((1, 1, 16, 4)))
        alpha = correction_factor(Tensor(3.0 * x.data), x, CorrectionConfig())
        np.testing.assert_allclose(alpha.data, 3.0, rtol=1e-6)

    def test_per_channel_scope_is_local(self):
        # alpha of channel 0 must not react to edits in channel 1
        rng = np.random.default_rng(14)
        h = rng.standard_normal((2, 3, 8, 2))
        x = rng.standard_normal((2, 3, 8, 2))
        cfg = CorrectionConfig()
        base = correction_factor(Tensor(h), Tensor(x), cfg).data
        h2, x2 = h.copy(), x.copy()
        h2[:, 1] *= 7.0
        x2[:, 1] += 2.0
        moved = correction_factor(Tensor(h2), Tensor(x2), cfg).data
        np.testing.assert_array_equal(moved[:, 0], base[:, 0])
        np.testing.assert_array_equal(moved[:, 2], base[:, 2])

    def test_alpha_never_negative(self):
        rng = np.random.default_rng(16)
        cfg = CorrectionConfig()
        for _ in range(20):
            h = Tensor(rng.standard_normal((1, 2, 4, 3)) * rng.uniform(0, 10))
            x = Tensor(rng.standard_normal((1, 2, 4, 3)) * rng.uniform(0, 10))
            assert np.all(correction_factor(h, x, cfg).data >= 0.0)

    @pytest.mark.parametrize("s", [1e-60, 1e-6, 1.0, 1e3, 1e6, 1e60])
    def test_joint_scale_invariance(self, s):
        # the default guard is relative, so it bends no scale law
        rng = np.random.default_rng(18)
        h = rng.standard_normal((4, 3, 11, 5))
        x = rng.standard_normal((4, 3, 11, 5))
        cfg = CorrectionConfig()
        base = correction_factor(Tensor(h), Tensor(x), cfg).data
        scaled = correction_factor(Tensor(s * h), Tensor(s * x), cfg).data
        np.testing.assert_allclose(scaled, base, rtol=1e-12, atol=0.0)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CorrectionConfig(eps=0.0)
        for eps in (float("nan"), float("inf"), "1e-8", True):
            with pytest.raises(ConfigError):
                CorrectionConfig(eps=eps)
        rng = np.random.default_rng(17)
        with pytest.raises(ConfigError):
            correction_factor(Tensor(rng.standard_normal((1, 1, 4, 2))),
                              Tensor(rng.standard_normal((1, 1, 8, 2))),
                              CorrectionConfig())


class TestApplyCorrection:
    def test_disabled_returns_same_object_with_unit_alpha(self):
        rng = np.random.default_rng(20)
        h = Tensor(rng.standard_normal((2, 2, 4, 3)))
        x = Tensor(rng.standard_normal((2, 2, 4, 3)))
        out, alpha = apply_correction(h, x, CorrectionConfig(), enabled=False)
        assert out is h
        assert alpha.shape == (2, 2, 1, 1)
        assert np.all(alpha.data == 1.0)

    def test_fixed_point_when_spectra_match(self):
        rng = np.random.default_rng(21)
        h = Tensor(rng.standard_normal((1, 2, 8, 3)))
        out, alpha = apply_correction(h, h, CorrectionConfig())
        np.testing.assert_allclose(out.data, h.data, rtol=1e-6)
        np.testing.assert_allclose(alpha.data, 1.0, rtol=1e-6)

    def test_doubled_features_quadruple(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.standard_normal((1, 1, 8, 2)))
        h = Tensor(2.0 * x.data)
        out, _ = apply_correction(h, x, CorrectionConfig())
        np.testing.assert_allclose(out.data, 4.0 * x.data, rtol=1e-6)

    def test_diagnostics_are_clamped_autocorrs(self):
        # alpha^2 (1 + eps) is the ratio of the clamped autocorrelations'
        # inner products, and the output is h scaled by that alpha
        rng = np.random.default_rng(23)
        h = Tensor(rng.standard_normal((1, 2, 4, 2)))
        x = Tensor(rng.standard_normal((1, 2, 4, 2)))
        out, alpha = apply_correction(h, x, CorrectionConfig())
        s_pred = power_autocorrelation(h).data
        s_input = power_autocorrelation(x).data
        assert np.all(s_pred >= 0) and np.all(s_input >= 0)
        ratio = ((s_pred * s_input).sum(axis=(2, 3), keepdims=True)
                 / (s_input * s_input).sum(axis=(2, 3), keepdims=True))
        np.testing.assert_allclose(alpha.data ** 2 * (1 + 1e-8), ratio,
                                   rtol=1e-12)
        np.testing.assert_array_equal(out.data, h.data * alpha.data)

    def test_gradients_flow_into_both_inputs(self):
        rng = np.random.default_rng(24)
        h = Tensor(rng.standard_normal((1, 1, 4, 2)), requires_grad=True)
        x = Tensor(rng.standard_normal((1, 1, 4, 2)), requires_grad=True)
        with Tape() as tape:
            out, _ = apply_correction(h, x, CorrectionConfig())
            backward(engine.reduce_sum(engine.mul(out, out)), tape)
        assert h.grad is not None and np.all(np.isfinite(h.grad))
        assert x.grad is not None and np.all(np.isfinite(x.grad))
        assert np.abs(x.grad).max() > 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(25)
        x_fixed = Tensor(rng.standard_normal((1, 1, 4, 2)))
        c = rng.standard_normal((1, 1, 4, 2))

        def loss_h(t):
            out, _ = apply_correction(t, x_fixed, CorrectionConfig())
            return engine.reduce_sum(engine.mul(out, Tensor(c)))

        check_gradients(loss_h, rng.standard_normal((1, 1, 4, 2)),
                        rtol=1e-3, atol=1e-6)

        h_fixed = Tensor(rng.standard_normal((1, 1, 4, 2)))

        def loss_x(t):
            out, _ = apply_correction(h_fixed, t, CorrectionConfig())
            return engine.reduce_sum(engine.mul(out, Tensor(c)))

        check_gradients(loss_x, rng.standard_normal((1, 1, 4, 2)),
                        rtol=1e-3, atol=1e-6)


class TestAlphaNode:
    def test_one_node_gradient_with_clamped_lags_and_a_zero_series(self):
        rng = np.random.default_rng(60)
        n, d = 4, 2
        alt = np.array([1.0, -1.0, 1.0, -1.0])[:, None]

        def near(base):
            return base + 0.1 * rng.standard_normal((n, d))

        # series 1 of h and series 0 of x have clamped lags; h is 0 on
        # series 2, so its alpha is 0
        h0 = np.stack([near(2.0), near(alt), np.zeros((n, d))])[None]
        x0 = np.stack([near(alt), near(2.0), near(1.0)])[None]
        for v, series in ((h0, 1), (x0, 0)):
            lag1 = np.sum(v * np.roll(v, -1, axis=-2), axis=-2)
            assert np.all(lag1[0, series] < -1.0)
        cfg = CorrectionConfig()
        with Tape() as tape:
            alpha = correction_factor(Tensor(h0, requires_grad=True),
                                      Tensor(x0, requires_grad=True), cfg)
        assert len(tape) == 1
        assert alpha.data[0, 2, 0, 0] == 0.0
        assert np.all(alpha.data[0, :2] > 0.1)
        c = rng.standard_normal((1, 3, 1, 1))
        check_gradients_jointly(
            lambda h, x: engine.reduce_sum(engine.mul(
                correction_factor(h, x, cfg), Tensor(c))), [h0, x0])


class TestAlphaScaleLaws:
    """Property checks over random shapes [B, C, N, D] and magnitudes."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           shape=st.tuples(st.integers(1, 3), st.integers(1, 3),
                           st.integers(1, 16), st.integers(1, 4)),
           h_exp=st.floats(-3.0, 6.0), x_exp=st.floats(-3.0, 6.0),
           s_exp=st.floats(-3.0, 6.0), c_exp=st.floats(-3.0, 6.0))
    def test_scale_invariant_and_homogeneous_in_h(self, seed, shape, h_exp,
                                                   x_exp, s_exp, c_exp):
        rng = np.random.default_rng(seed)
        h = 10.0 ** h_exp * rng.standard_normal(shape)
        x = 10.0 ** x_exp * rng.standard_normal(shape)
        s, c = 10.0 ** s_exp, 10.0 ** c_exp
        cfg = CorrectionConfig()
        base = correction_factor(Tensor(h), Tensor(x), cfg).data
        joint = correction_factor(Tensor(s * h), Tensor(s * x), cfg).data
        in_h = correction_factor(Tensor(c * h), Tensor(x), cfg).data
        np.testing.assert_allclose(joint, base, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(in_h, c * base, rtol=1e-10, atol=0.0)
