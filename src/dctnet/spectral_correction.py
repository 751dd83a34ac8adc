"""Frequency-domain stationarity correction.

The clamped circular autocorrelation of a feature map along the patch axis
summarises its spectral energy distribution.  By Wiener-Khinchin it is the
inverse transform of the power spectrum; the engine's ``autocorrelation``
computes it, clamp included, from the squared Hartley transform, with its
adjoint in ``autocorrelation_vjp``: two real matrix products each way.  One
factor per series (instance and channel), with the sums running over the
patch and feature axes as one row per series,

    alpha = sqrt( sum(S_pred * S_input) / ((1 + eps) * sum(S_input^2) + tiny) ),

rescales that series' prediction features so their energy tracks the
input's, countering distribution drift between history and forecast.
The guard is relative, so alpha does not change when both feature maps
are scaled together; ``tiny``, the smallest normal float64, only keeps
an all-zero input from dividing zero by zero.  The whole path is
differentiable, so the correction shapes training too: alpha is one tape
node over both feature maps, and the rescaling one more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numeric_engine as engine
# power_autocorrelation is part of this module's interface: the taped
# S_pred and S_input that alpha compares
from .numeric_engine import (Tensor, autocorrelation, autocorrelation_vjp,
                             power_autocorrelation)
from .errors import ConfigError, finite_number

_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class CorrectionConfig:
    """Relative division guard eps of the correction factor."""

    eps: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "eps", finite_number(
            "correction eps", self.eps, above=0.0))


def correction_factor(h_global: Tensor, x_patch: Tensor,
                      cfg: CorrectionConfig) -> Tensor:
    """alpha per series: [B, C, 1, 1], one tape node.

    With num = sum(S_pred * S_input) and den = (1 + eps) * sum(S_input^2)
    + tiny, the adjoint of alpha = sqrt(num / den) is
    d(num/den) = g / (2 alpha), 0 where alpha is 0; then
    dS_pred = d(num/den) / den * S_input and
    dS_input = d(num/den) / den * S_pred
    - 2 (1 + eps) * d(num/den) * num / den^2 * S_input, each passed
    through the autocorrelation adjoint.
    """
    if h_global.shape != x_patch.shape:
        raise ConfigError(
            f"feature shapes differ: {h_global.shape} vs {x_patch.shape}"
        )
    inputs = (h_global, x_patch)
    taped = engine._records(inputs)
    s_pred, pred_state = autocorrelation(h_global.data, taped)
    s_input, input_state = autocorrelation(x_patch.data, taped)
    # each series' N x D lags as one row, so its sums are row kernels
    series = h_global.shape[:2] + (-1,)
    pred_rows = s_pred.reshape(series)
    input_rows = s_input.reshape(series)
    num = engine._row_dots(pred_rows, input_rows)[..., None]
    den = engine._row_dots(input_rows, input_rows)[..., None]
    den *= 1.0 + cfg.eps
    den += _TINY
    alpha = engine._wrap(np.sqrt(num / den))

    def bw():
        g_ratio = np.zeros_like(alpha.data)
        np.divide(alpha.grad * 0.5, alpha.data, out=g_ratio,
                  where=alpha.data != 0.0)
        g_num = g_ratio / den
        if h_global.requires_grad:
            h_global.accumulate_grad(autocorrelation_vjp(
                g_num * s_input, pred_state), owned=True)
        if x_patch.requires_grad:
            g_energy = -g_ratio * num / (den * den) * (1.0 + cfg.eps)
            g_input = g_energy * s_input
            g_input *= 2.0
            g_input += g_num * s_pred
            x_patch.accumulate_grad(autocorrelation_vjp(
                g_input, input_state), owned=True)

    engine._record(inputs, alpha, bw)
    return alpha


def apply_correction(h_global: Tensor, x_patch: Tensor, cfg: CorrectionConfig,
                     enabled: bool = True) -> tuple[Tensor, Tensor]:
    """(h_global scaled by alpha, alpha); ``h_global`` itself and alpha
    exactly 1 when bypassed."""
    if not enabled:
        return h_global, Tensor(np.ones(h_global.shape[:2] + (1, 1)))
    alpha = correction_factor(h_global, x_patch, cfg)
    return engine.mul(h_global, alpha), alpha
