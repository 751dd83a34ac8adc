"""Patch segmentation and embedding.

A window [B, L, C] is cut per channel into N overlapping length-P segments,
each projected by one shared linear map into a D-dimensional token, with a
learnable position vector added per patch index.  Channels share the
projection, so the token grid is [B, C, N, D].
"""

from __future__ import annotations

from dataclasses import dataclass

from . import numeric_engine as engine
from .numeric_engine import Tensor
from .errors import ConfigError


@dataclass
class PatchEmbedParams:
    """Shared projection [P, D], bias [D], and positions [N, D]."""

    weight: Tensor
    bias: Tensor
    pos: Tensor


def segment_patches(x: Tensor, patch_len: int, stride: int) -> Tensor:
    """Cut [B, L, C] into raw patches [B, C, N, P] of length P, hop S."""
    return engine.extract_patches(x, patch_len, stride)


def embed_patches(patches: Tensor, params: PatchEmbedParams) -> Tensor:
    """Project raw patches [B, C, N, P] to tokens [B, C, N, D] plus positions.

    One tape node: the projection's adjoint is the engine's affine one, and
    the positions take the upstream grad summed over batch and channel.
    """
    pos = params.pos
    y = engine._affine(patches.data, params.weight, params.bias)
    if pos.shape != y.shape[-2:]:
        raise ConfigError(f"position table is {pos.shape}, tokens per "
                          f"channel are {y.shape[-2:]}")
    y = y + pos.data
    out = engine._wrap(y)

    def bw():
        g = out.grad
        gp = engine._affine_vjp(g, patches.data, params.weight, params.bias,
                                patches.requires_grad)
        if pos.requires_grad:
            pos.accumulate_grad(engine._col_sums(g.reshape(-1, pos.data.size))
                                .reshape(pos.shape), owned=True)
        if gp is not None:
            patches.accumulate_grad(gp, owned=True)

    engine._record((patches, params.weight, params.bias, pos), out, bw)
    return out
