"""Reversible per-instance normalisation.

Each window is standardised per channel over its time axis before the model
sees it, and the forecast is mapped back through the exact inverse affine
using the statistics captured on the way in.  Learnable gain/bias let the
model reshape the normalised distribution.  The statistics are ordinary
taped operations, so gradients flow through both of their uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numeric_engine as engine
from .numeric_engine import Tensor
from .errors import ConfigError, SingularityError, finite_number

MIN_GAIN = 1e-12  # smallest |gain| that revin_denormalize inverts


@dataclass
class RevINParams:
    """Learnable per-channel affine: gain and bias, each of shape [C]."""

    gamma: Tensor
    beta: Tensor


@dataclass
class RevINState:
    """Statistics captured by one normalisation call, needed to invert it.

    Both are [B, 1, C] tensors produced on the active tape, so reusing them
    in the inverse keeps the whole round trip differentiable.
    """

    mean: Tensor
    std: Tensor


def revin_normalize(x: Tensor, params: RevINParams,
                    eps: float = 1e-5) -> tuple[Tensor, RevINState]:
    """Standardise [B, L, C] per (instance, channel) over the time axis.

    Returns the transformed tensor and the state required by
    ``revin_denormalize``.  Variance is the biased estimator; the divisor is
    sqrt(var + eps), so it never vanishes.
    """
    eps = finite_number("revin eps", eps, above=0.0)
    if x.ndim != 3:
        raise ConfigError(f"revin expects [B, L, C], got shape {x.shape}")
    mean = engine.reduce_mean(x, axis=1)
    centered = engine.sub(x, mean)
    var = engine.reduce_mean(engine.mul(centered, centered), axis=1)
    std = engine.sqrt(engine.add(var, eps))
    state = RevINState(mean=mean, std=std)
    normed = engine.div(centered, std)
    out = engine.add(engine.mul(normed, params.gamma), params.beta)
    return out, state


def revin_denormalize(y: Tensor, params: RevINParams, state: RevINState) -> Tensor:
    """Invert the normalisation exactly: undo affine, then rescale and shift.

    ``y`` is [B, T, C]; the per-(instance, channel) statistics broadcast over
    its time axis.  A gain entry at zero has no inverse.
    """
    if y.ndim != 3:
        raise ConfigError(f"revin expects [B, T, C], got shape {y.shape}")
    min_gain = float(np.abs(params.gamma.data).min())
    if min_gain < MIN_GAIN:
        raise SingularityError(
            f"revin gain entry with |value| = {min_gain:.3e} cannot be inverted"
        )
    undone = engine.div(engine.sub(y, params.beta), params.gamma)
    return engine.add(engine.mul(undone, state.std), state.mean)
