"""Frequency-domain stationarity correction.

The clamped circular autocorrelation of a feature map along the patch axis
summarises its spectral energy distribution.  By Wiener-Khinchin it is the
inverse transform of the power spectrum; the engine primitive
``numeric_engine.power_autocorrelation`` computes it, clamp included, in
one differentiable step.
One factor per series (instance and channel), with the sums running over
the patch and feature axes,

    alpha = sqrt( sum(S_pred * S_input) / ((1 + eps) * sum(S_input^2) + tiny) ),

rescales that series' prediction features so their energy tracks the
input's, countering distribution drift between history and forecast.
The guard is relative, so alpha does not change when both feature maps
are scaled together; ``tiny``, the smallest normal float64, only keeps
an all-zero input from dividing zero by zero.  The whole path is
differentiable, so the correction shapes training too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numeric_engine as engine
from .numeric_engine import Tensor, power_autocorrelation
from .errors import ConfigError, finite_number

_SERIES_AXES = (2, 3)   # energy sums run over N and D of [B, C, N, D]
_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class CorrectionConfig:
    """Relative division guard eps of the correction factor."""

    eps: float = 1e-8

    def __post_init__(self):
        if finite_number("correction eps", self.eps) <= 0:
            raise ConfigError(f"correction eps must be > 0, got {self.eps}")


def correction_factor(h_global: Tensor, x_patch: Tensor,
                      cfg: CorrectionConfig) -> Tensor:
    """alpha per series: [B, C, 1, 1]."""
    if h_global.shape != x_patch.shape:
        raise ConfigError(
            f"feature shapes differ: {h_global.shape} vs {x_patch.shape}"
        )
    s_pred = power_autocorrelation(h_global)
    s_input = power_autocorrelation(x_patch)
    num = engine.reduce_sum(engine.mul(s_pred, s_input), axis=_SERIES_AXES)
    energy = engine.reduce_sum(engine.mul(s_input, s_input),
                               axis=_SERIES_AXES)
    den = engine.add(engine.mul(energy, 1.0 + cfg.eps), _TINY)
    return engine.sqrt(engine.div(num, den))


def apply_correction(h_global: Tensor, x_patch: Tensor, cfg: CorrectionConfig,
                     enabled: bool = True) -> tuple[Tensor, Tensor]:
    """(h_global scaled by alpha, alpha); ``h_global`` itself and alpha
    exactly 1 when bypassed."""
    if not enabled:
        return h_global, Tensor(np.ones(h_global.shape[:2] + (1, 1)))
    alpha = correction_factor(h_global, x_patch, cfg)
    return engine.mul(h_global, alpha), alpha
