"""Frequency-domain stationarity correction.

The clamped circular autocorrelation of a feature map along the patch axis
summarises its spectral energy distribution.  By Wiener-Khinchin it is the
inverse transform of the power spectrum; the single engine primitive
``numeric_engine.circular_autocorr`` computes it in one differentiable step.
A scalar factor per reduction group,

    alpha = sqrt( sum(S_pred * S_input) / (sum(S_input^2) + eps) ),

rescales the prediction features so their energy tracks the input's,
countering distribution drift between history and forecast.  The whole
path is differentiable, so the correction shapes training too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import numeric_engine as engine
from .numeric_engine import Tensor
from .errors import ConfigError, finite_number

_PATCH_AXIS = 2          # the N axis of [B, C, N, D]

REDUCTION_SCOPES = ("per_batch_channel", "global_scalar")


@dataclass(frozen=True)
class CorrectionConfig:
    """Division guard eps and the axes the energy sums run over."""

    eps: float = 1e-8
    reduction_scope: str = "per_batch_channel"

    def __post_init__(self):
        if finite_number("correction eps", self.eps) <= 0:
            raise ConfigError(f"correction eps must be > 0, got {self.eps}")
        if self.reduction_scope not in REDUCTION_SCOPES:
            raise ConfigError(
                f"reduction_scope must be one of {REDUCTION_SCOPES}, "
                f"got {self.reduction_scope!r}"
            )


@dataclass
class SpectralDiagnostics:
    """Correction factor and the autocorrelations it was computed from.

    The autocorrelation fields stay None when the correction is bypassed,
    since nothing is computed then.
    """

    alpha: Tensor
    pred_autocorr: Optional[Tensor] = field(default=None)
    input_autocorr: Optional[Tensor] = field(default=None)


def power_autocorrelation(x: Tensor) -> Tensor:
    """Clamped circular autocorrelation along the patch axis of [B, C, N, D].

    Re IDFT(|DFT x|^2) with negatives clipped to zero.
    """
    return engine.relu(engine.circular_autocorr(x, axis=_PATCH_AXIS))


def _diagnose(h_global: Tensor, x_patch: Tensor,
              cfg: CorrectionConfig) -> SpectralDiagnostics:
    if h_global.shape != x_patch.shape:
        raise ConfigError(
            f"feature shapes differ: {h_global.shape} vs {x_patch.shape}"
        )
    s_pred = power_autocorrelation(h_global)
    s_input = power_autocorrelation(x_patch)
    axes = (_PATCH_AXIS, 3) if cfg.reduction_scope == "per_batch_channel" else None
    keep = axes is not None
    num = engine.reduce_sum(engine.mul(s_pred, s_input), axis=axes, keepdims=keep)
    den = engine.add(
        engine.reduce_sum(engine.mul(s_input, s_input), axis=axes, keepdims=keep),
        cfg.eps)
    return SpectralDiagnostics(alpha=engine.sqrt(engine.div(num, den)),
                               pred_autocorr=s_pred, input_autocorr=s_input)


def correction_factor(h_global: Tensor, x_patch: Tensor,
                      cfg: CorrectionConfig) -> Tensor:
    """alpha per reduction group: [B, C, 1, 1] per channel, or a scalar."""
    return _diagnose(h_global, x_patch, cfg).alpha


def apply_correction(h_global: Tensor, x_patch: Tensor, cfg: CorrectionConfig,
                     enabled: bool = True) -> tuple[Tensor, SpectralDiagnostics]:
    """Scale prediction features by alpha; identity with alpha=1 when bypassed."""
    if not enabled:
        return h_global, SpectralDiagnostics(alpha=Tensor(1.0))
    diag = _diagnose(h_global, x_patch, cfg)
    return engine.mul(h_global, diag.alpha), diag
