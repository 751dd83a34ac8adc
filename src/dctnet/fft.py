"""Discrete Fourier transforms under the orthonormal convention.

Both directions carry the 1/sqrt(n) scale, so the transform pair is
unitary: round trips are identities and energy is preserved (Parseval).
Power-of-two lengths go through an iterative radix-2 butterfly; any other
length falls back to a cached O(n^2) transform matrix, which is plenty at
the sizes this package works with.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@lru_cache(maxsize=64)
def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


@lru_cache(maxsize=64)
def _dft_matrix(n: int, sign: int) -> np.ndarray:
    # M[j, k] = exp(sign * 2i*pi*j*k/n) / sqrt(n)
    j = np.arange(n)
    return np.exp(sign * 2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)


@lru_cache(maxsize=64)
def real_dft_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the forward orthonormal DFT matrix.

    Both are symmetric, so a transform along any axis is a real
    left-multiplication by either part.  The cached arrays are read-only.
    """
    m = _dft_matrix(n, -1)
    parts = np.ascontiguousarray(m.real), np.ascontiguousarray(m.imag)
    for part in parts:
        part.flags.writeable = False
    return parts


def _radix2(x: np.ndarray, sign: int) -> np.ndarray:
    """Vectorised iterative Cooley-Tukey over the last axis (power-of-two)."""
    n = x.shape[-1]
    out = x[..., _bit_reverse_indices(n)]
    m = 2
    while m <= n:
        half = m // 2
        w = np.exp(sign * 2j * np.pi * np.arange(half) / m)
        view = out.reshape(*out.shape[:-1], n // m, m)
        u = view[..., :half]
        t = view[..., half:] * w
        out = np.concatenate([u + t, u - t], axis=-1).reshape(x.shape)
        m *= 2
    return out / np.sqrt(n)


def _transform(a: np.ndarray, axis: int, sign: int) -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    a = np.moveaxis(a, axis, -1)
    n = a.shape[-1]
    if n == 1:
        out = a.copy()
    elif _is_pow2(n):
        out = _radix2(a, sign)
    else:
        out = a @ _dft_matrix(n, sign)
    return np.moveaxis(out, -1, axis)


def dft(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Forward orthonormal DFT along ``axis``; complex in, complex out."""
    return _transform(a, axis, -1)


def idft(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse orthonormal DFT along ``axis``."""
    return _transform(a, axis, +1)
