"""Dual-branch channel-temporal block.

Two parallel views of the token grid [B, C, N, D]: a linear map over the
patch axis models each channel's temporal evolution, and multi-head
attention over the channel axis models dependencies between variables.
Fusion happens inside the channel branch's residual connection: the
temporal output rides the residual while attention reads the raw tokens,
so both branches reach the fused output through one addition.  Global
patch attention reuses the same ``attention_sublayer`` over the patch axis.
Parameter trees hold tensors only; the head count and dropout rate are the
caller's, from ``ModelConfig``, and each shape is checked by the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numeric_engine as engine
from .numeric_engine import AttentionParams, Tensor


@dataclass
class TemporalBranchParams:
    """Patch-axis linear map [N, N] plus the branch's norm affine [D]."""

    w_time: Tensor
    gain: Tensor
    bias: Tensor


@dataclass
class AttentionSublayerParams:
    """Attention projections plus the sublayer's norm affine [D]."""

    attn: AttentionParams
    gain: Tensor
    bias: Tensor


def temporal_branch_forward(x_patch: Tensor, params: TemporalBranchParams) -> Tensor:
    """layer_norm(gelu(W_time applied over the patch axis) + x).

    out[..., n, d] = sum_m x[..., m, d] * W_time[m, n]: each output patch is
    a learned combination of all input patches, independently per channel
    and per feature dim.
    """
    mixed = engine.patch_mix(x_patch, params.w_time)
    return engine.layer_norm(engine.gelu(mixed), params.gain, params.bias,
                             residual=x_patch)


def attention_sublayer(x: Tensor, residual: Tensor,
                       params: AttentionSublayerParams, token_axis: int, *,
                       heads: int, dropout_p: float, training: bool = False,
                       rng: Optional[np.random.Generator] = None) -> Tensor:
    """layer_norm(dropout(MHA over ``token_axis`` of x) + residual), with
    ``heads`` heads and dropout rate ``dropout_p``.

    Queries, keys and values all come from ``x``; the caller picks the
    residual, which is how fusion rides through the channel branch.
    """
    attended = engine.multi_head_attention(
        x, params.attn, heads, token_axis=token_axis, dropout_p=dropout_p,
        training=training, rng=rng)
    return engine.layer_norm(attended, params.gain, params.bias,
                             residual=residual)


def fuse_branches(x_patch: Tensor, temporal_params: TemporalBranchParams,
                  channel_params: AttentionSublayerParams, *, heads: int,
                  dropout_p: float, training: bool = False,
                  rng: Optional[np.random.Generator] = None) -> Tensor:
    """Combine both branches into the fused token grid.

    Channel attention's residual carries the temporal output, so one
    addition merges the branches.
    """
    h_time = temporal_branch_forward(x_patch, temporal_params)
    return attention_sublayer(x_patch, h_time, channel_params, token_axis=-3,
                              heads=heads, dropout_p=dropout_p,
                              training=training, rng=rng)
