"""Discrete Fourier transforms under the orthonormal convention.

Both directions carry the 1/sqrt(n) scale, so the transform pair is
unitary: round trips are identities and energy is preserved (Parseval).
Every transform is a product with one cached O(n^2) matrix, which is
plenty at the sizes this package works with.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=64)
def _dft_matrix(n: int) -> np.ndarray:
    """Forward orthonormal DFT matrix M[j, k] = exp(-2i*pi*j*k/n) / sqrt(n).

    M is symmetric and the cached array is read-only.
    """
    j = np.arange(n)
    m = np.exp(-2j * np.pi * np.outer(j, j) / n) / np.sqrt(n)
    m.flags.writeable = False
    return m


@lru_cache(maxsize=64)
def real_dft_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of the forward orthonormal DFT matrix.

    Both are symmetric, so a transform along any axis is a real
    left-multiplication by either part.  The cached arrays are read-only.
    """
    m = _dft_matrix(n)
    parts = np.ascontiguousarray(m.real), np.ascontiguousarray(m.imag)
    for part in parts:
        part.flags.writeable = False
    return parts


@lru_cache(maxsize=64)
def hartley_matrix(n: int) -> np.ndarray:
    """Orthonormal discrete Hartley matrix H = Mr - Mi, with Mr and Mi the
    ``real_dft_matrices``: H[j, k] = cas(2*pi*j*k/n) / sqrt(n), where
    cas t = cos t + sin t.

    H is symmetric and its own inverse.  The cached array is read-only.
    """
    mr, mi = real_dft_matrices(n)
    h = mr - mi
    h.flags.writeable = False
    return h


def dft(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Forward orthonormal DFT along ``axis``; complex in, complex out."""
    a = np.moveaxis(np.asarray(a, dtype=np.complex128), axis, -1)
    return np.moveaxis(a @ _dft_matrix(a.shape[-1]), -1, axis)


def idft(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse orthonormal DFT along ``axis``: the conjugate matrix."""
    a = np.moveaxis(np.asarray(a, dtype=np.complex128), axis, -1)
    return np.moveaxis(a @ _dft_matrix(a.shape[-1]).conj(), -1, axis)
