"""Dual-branch channel-temporal block.

Two parallel views of the token grid [B, C, N, D]: a linear map over the
patch axis models each channel's temporal evolution, and multi-head
attention over the channel axis models dependencies between variables.
Fusion happens inside the channel branch's residual connection: the
temporal output rides the residual while attention reads the raw tokens,
so both branches reach the fused output through one addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numeric_engine as engine
from .numeric_engine import AttentionParams, Tensor
from .errors import ConfigError


@dataclass
class TemporalBranchParams:
    """Patch-axis linear map [N, N] plus the branch's norm affine [D]."""

    w_time: Tensor
    gain: Tensor
    bias: Tensor


@dataclass
class ChannelBranchParams:
    """Channel-attention projections, norm affine [D], heads, dropout."""

    attn: AttentionParams
    gain: Tensor
    bias: Tensor
    heads: int = 4
    dropout_p: float = 0.1


def temporal_branch_forward(x_patch: Tensor, params: TemporalBranchParams) -> Tensor:
    """layer_norm(gelu(W_time applied over the patch axis) + x).

    out[..., n, d] = sum_m x[..., m, d] * W_time[m, n]: each output patch is
    a learned combination of all input patches, independently per channel
    and per feature dim.
    """
    n = x_patch.shape[2]
    if params.w_time.shape != (n, n):
        raise ConfigError(
            f"w_time is {params.w_time.shape}, input has {n} patches"
        )
    xt = engine.swapaxes(x_patch, -1, -2)                 # [B, C, D, N]
    mixed = engine.swapaxes(engine.matmul(xt, params.w_time), -1, -2)
    pre = engine.add(engine.gelu(mixed), x_patch)
    return engine.layer_norm(pre, params.gain, params.bias)


def channel_branch_forward(x_patch: Tensor, residual_in: Tensor,
                           params: ChannelBranchParams, training: bool = False,
                           rng: Optional[np.random.Generator] = None) -> Tensor:
    """layer_norm(dropout(MHA over channels) + residual_in).

    For every (instance, patch index) the C channel vectors act as tokens.
    Queries, keys, and values all come from ``x_patch``; only the residual
    path is caller-chosen, which is what lets fusion ride through here.
    """
    if residual_in.shape != x_patch.shape:
        raise ConfigError(
            f"residual shape {residual_in.shape} != input shape {x_patch.shape}"
        )
    tokens = engine.swapaxes(x_patch, 1, 2)               # [B, N, C, D]
    attended = engine.multi_head_attention(
        tokens, params.attn, params.heads,
        dropout_p=params.dropout_p, training=training, rng=rng)
    attended = engine.dropout(attended, params.dropout_p, training, rng)
    back = engine.swapaxes(attended, 1, 2)                # [B, C, N, D]
    return engine.layer_norm(engine.add(back, residual_in), params.gain, params.bias)


def fuse_branches(x_patch: Tensor, temporal_params: TemporalBranchParams,
                  channel_params: ChannelBranchParams, training: bool = False,
                  disabled: bool = False,
                  rng: Optional[np.random.Generator] = None) -> Tensor:
    """Combine both branches into the fused token grid.

    The channel branch's residual carries the temporal output, so one
    addition merges the branches.  Disabled, the block is the identity.
    """
    if disabled:
        return x_patch
    h_time = temporal_branch_forward(x_patch, temporal_params)
    return channel_branch_forward(x_patch, h_time, channel_params,
                                  training=training, rng=rng)
