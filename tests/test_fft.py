"""Orthonormal DFT kernels: known transforms, unitarity, the real matrices."""

import numpy as np
import pytest

from dctnet import fft

from helpers import naive_dft


class TestKnownTransforms:
    def test_unit_impulse_spreads_flat(self):
        out = fft.dft(np.array([1.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, np.full(4, 0.5 + 0.0j), atol=1e-12)

    def test_constant_concentrates_at_dc(self):
        out = fft.dft(np.ones(8))
        expected = np.zeros(8, dtype=complex)
        expected[0] = np.sqrt(8.0)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_single_cosine_bin(self):
        n = 16
        t = np.arange(n)
        x = np.cos(2 * np.pi * 3 * t / n)
        out = fft.dft(x)
        expected = np.zeros(n, dtype=complex)
        expected[3] = expected[13] = np.sqrt(n) / 2
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_length_one_is_identity(self):
        np.testing.assert_allclose(fft.dft(np.array([3.5])), [3.5 + 0j])
        np.testing.assert_allclose(fft.idft(np.array([3.5 + 0j])), [3.5 + 0j])


class TestAgainstDefinition:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 11, 16, 20])
    def test_matches_naive_sum(self, n):
        rng = np.random.default_rng(100 + n)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        np.testing.assert_allclose(fft.dft(x), naive_dft(x, -1), atol=1e-10)
        np.testing.assert_allclose(fft.idft(x), naive_dft(x, +1), atol=1e-10)

    def test_batched_along_middle_axis(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 8, 2))
        out = fft.dft(x, axis=1)
        for i in range(3):
            for j in range(2):
                np.testing.assert_allclose(out[i, :, j], naive_dft(x[i, :, j]),
                                           atol=1e-10)


class TestUnitarity:
    @pytest.mark.parametrize("n", [2, 4, 5, 8, 11, 32])
    def test_round_trip(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(fft.idft(fft.dft(x)).real, x, atol=1e-10)
        np.testing.assert_allclose(fft.idft(fft.dft(x)).imag, 0.0, atol=1e-10)

    @pytest.mark.parametrize("n", [4, 11, 16])
    def test_energy_preserved(self, n):
        rng = np.random.default_rng(40 + n)
        x = rng.standard_normal(n)
        spec = fft.dft(x)
        assert np.sum(np.abs(spec) ** 2) == pytest.approx(np.sum(x ** 2), rel=1e-12)


class TestRealDftMatrices:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_parts_of_transformed_identity(self, n):
        # power_autocorrelation multiplies by these; dft must use the same
        # matrix
        mr, mi = fft.real_dft_matrices(n)
        full = fft.dft(np.eye(n))
        np.testing.assert_array_equal(mr, full.real)
        np.testing.assert_array_equal(mi, full.imag)
        assert not mr.flags.writeable and not mi.flags.writeable

    @pytest.mark.parametrize("n", range(1, 65))
    def test_parts_are_orthogonal_halves_of_identity(self, n):
        # M = Mr + i Mi is symmetric and unitary, and M^2 is real, so
        # Mr^2 + Mi^2 = I and Mr Mi = 0; power_autocorrelation's adjoint
        # rests on both
        mr, mi = fft.real_dft_matrices(n)
        np.testing.assert_allclose(mr @ mr + mi @ mi, np.eye(n),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(mr @ mi, 0.0, rtol=0, atol=1e-12)


class TestHartleyMatrix:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_symmetric_involution_from_the_dft_parts(self, n):
        mr, mi = fft.real_dft_matrices(n)
        h = fft.hartley_matrix(n)
        np.testing.assert_array_equal(h, mr - mi)
        np.testing.assert_array_equal(h, h.T)
        assert not h.flags.writeable
        np.testing.assert_allclose(h @ h, np.eye(n), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_squared_transform_gives_the_power_lags(self, n):
        # z = Hx has z[k]^2 + z[-k]^2 = 2 |DFT x|^2[k], and Mr is even in k
        rng = np.random.default_rng(200 + n)
        x = rng.standard_normal((n, 3))
        mr, mi = fft.real_dft_matrices(n)
        z = fft.hartley_matrix(n) @ x
        np.testing.assert_allclose(mr @ (z * z),
                                   mr @ ((mr @ x) ** 2 + (mi @ x) ** 2),
                                   rtol=0, atol=1e-12)
