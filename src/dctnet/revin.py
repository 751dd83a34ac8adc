"""Reversible per-instance normalisation.

Each window is standardised per channel over its time axis before the model
sees it, and the forecast is mapped back through the exact inverse affine
using the statistics captured on the way in.  Learnable gain/bias let the
model reshape the normalised distribution.  The statistics are constants of
the input window: each direction is one tape node over the affine
parameters (and, coming back, the forecast), and no gradient reaches the
window itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numeric_engine as engine
from .numeric_engine import Tensor
from .errors import ConfigError, ContractError, SingularityError, \
    finite_number

MIN_GAIN = 1e-12  # smallest |gain| that revin_denormalize inverts


@dataclass
class RevINParams:
    """Learnable per-channel affine: gain and bias, each of shape [C]."""

    gamma: Tensor
    beta: Tensor


@dataclass
class RevINState:
    """Statistics captured by one normalisation call, needed to invert it.

    Both are [B, 1, C] constants: no tape records them, so the inverse
    passes gradient to the forecast and the affine parameters only.
    """

    mean: Tensor
    std: Tensor


def _check_affine(params: RevINParams, channels: int) -> None:
    want = (channels,)
    if params.gamma.shape != want or params.beta.shape != want:
        raise ContractError(f"revin gamma and beta must be {want}, got "
                            f"{params.gamma.shape} and {params.beta.shape}")


def revin_normalize(x: Tensor, params: RevINParams,
                    eps: float = 1e-5) -> tuple[Tensor, RevINState]:
    """Standardise [B, L, C] per (instance, channel) over the time axis.

    Returns the transformed tensor and the state required by
    ``revin_denormalize``.  Variance is the biased estimator; the divisor is
    sqrt(var + eps), so it never vanishes.  One tape node over gamma and
    beta, whose grads are sum(g * normed) and sum(g); ``x`` may not require
    grad while a tape records.
    """
    eps = finite_number("revin eps", eps, above=0.0)
    if x.ndim != 3 or x.shape[1] == 0:
        raise ConfigError(f"revin expects [B, L, C] with L >= 1, got shape "
                          f"{x.shape}")
    _check_affine(params, x.shape[2])
    if x.requires_grad and engine.active_tape() is not None:
        raise ContractError("revin statistics are constants: the input "
                            "window cannot require grad on a tape")
    gamma, beta = params.gamma, params.beta
    inv_len = 1.0 / x.shape[1]
    mean = x.data.sum(axis=1, keepdims=True) * inv_len
    normed = x.data - mean
    var = (normed * normed).sum(axis=1, keepdims=True) * inv_len
    std = np.sqrt(var + eps)
    normed /= std
    y = normed * gamma.data
    y += beta.data
    out = engine._wrap(y)

    def bw():
        g = out.grad
        if gamma.requires_grad:
            gamma.accumulate_grad(engine._col_dots(g, normed), owned=True)
        if beta.requires_grad:
            beta.accumulate_grad(engine._col_sums(g), owned=True)

    engine._record((gamma, beta), out, bw)
    # _wrap, not Tensor: an overflowing std is the forecast's DataError
    return out, RevINState(mean=engine._wrap(mean), std=engine._wrap(std))


def revin_denormalize(y: Tensor, params: RevINParams, state: RevINState) -> Tensor:
    """Invert the normalisation exactly: undo affine, then rescale and shift.

    ``y`` is [B, T, C] for the B windows and C channels of ``state``; the
    per-(instance, channel) statistics broadcast over its time axis.  A gain
    entry at zero has no inverse.  One tape node over y, gamma and beta:
    with gy = g * std / gamma and u = (y - beta) / gamma, the grads are gy,
    -sum(gy * u) and -sum(gy).
    """
    if y.ndim != 3:
        raise ConfigError(f"revin expects [B, T, C], got shape {y.shape}")
    b, _, c = state.mean.shape
    if (y.shape[0], y.shape[2]) != (b, c):
        raise ContractError(f"forecast {y.shape} does not match the revin "
                            f"state of {b} windows and {c} channels")
    _check_affine(params, c)
    gamma, beta = params.gamma, params.beta
    min_gain = float(np.abs(gamma.data).min())
    if min_gain < MIN_GAIN:
        raise SingularityError(
            f"revin gain entry with |value| = {min_gain:.3e} cannot be inverted"
        )
    undone = y.data - beta.data
    undone /= gamma.data
    restored = undone * state.std.data
    restored += state.mean.data
    out = engine._wrap(restored)

    def bw():
        gy = out.grad * state.std.data
        gy /= gamma.data
        if gamma.requires_grad:
            gamma.accumulate_grad(-engine._col_dots(gy, undone), owned=True)
        if beta.requires_grad:
            beta.accumulate_grad(-engine._col_sums(gy), owned=True)
        if y.requires_grad:
            y.accumulate_grad(gy, owned=True)

    engine._record((y, gamma, beta), out, bw)
    return out
