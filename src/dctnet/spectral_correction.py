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
differentiable, so the correction shapes training too: ``apply_correction``
computes alpha and records the rescaled map, with alpha's adjoint folded
in, as one tape node over both feature maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numeric_engine as engine
from .numeric_engine import Tensor, autocorrelation, autocorrelation_vjp
from .errors import ConfigError, finite_number

_TINY = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class CorrectionConfig:
    """Relative division guard eps of the correction factor."""

    eps: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "eps", finite_number(
            "correction eps", self.eps, above=0.0))


def apply_correction(h_global: Tensor, x_patch: Tensor, cfg: CorrectionConfig
                     ) -> tuple[Tensor, Tensor]:
    """(h_global scaled by alpha, alpha per series [B, C, 1, 1]).

    The rescaled map is one tape node over both feature maps.  Its upstream
    grad g reaches ``h_global`` as g * alpha and alpha as the per-series
    g_alpha = sum(g * h_global).  With num = sum(S_pred * S_input) and
    den = (1 + eps) * sum(S_input^2) + tiny, the adjoint of
    alpha = sqrt(num / den) is d(num/den) = g_alpha / (2 alpha), 0 where
    alpha is 0; then dS_pred = d(num/den) / den * S_input and
    dS_input = d(num/den) / den * S_pred
    - 2 (1 + eps) * d(num/den) * num / den^2 * S_input, each passed
    through the autocorrelation adjoint.
    """
    if h_global.shape != x_patch.shape:
        raise ConfigError(
            f"feature shapes differ: {h_global.shape} vs {x_patch.shape}"
        )
    taped = engine._records((h_global, x_patch))
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
    alpha = np.sqrt(num / den)
    out = engine._wrap(h_global.data * alpha)

    def bw():
        g = out.grad
        g_alpha = engine._row_dots(g.reshape(series),
                                   h_global.data.reshape(series))[..., None]
        g_ratio = np.zeros_like(alpha)
        np.divide(g_alpha * 0.5, alpha, out=g_ratio, where=alpha != 0.0)
        g_num = g_ratio / den
        if h_global.requires_grad:
            g_h = autocorrelation_vjp(g_num * s_input, pred_state)
            g_h += g * alpha
            h_global.accumulate_grad(g_h, owned=True)
        if x_patch.requires_grad:
            g_energy = -g_ratio * num / (den * den) * (1.0 + cfg.eps)
            g_input = g_energy * s_input
            g_input *= 2.0
            g_input += g_num * s_pred
            x_patch.accumulate_grad(autocorrelation_vjp(
                g_input, input_state), owned=True)

    engine._record((h_global, x_patch), out, bw)
    return out, engine._wrap(alpha)
