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
    """Project raw patches [B, C, N, P] to tokens [B, C, N, D] plus positions."""
    n = patches.shape[2]
    if params.pos.shape[0] != n:
        raise ConfigError(
            f"position table covers {params.pos.shape[0]} patches, input has {n}"
        )
    projected = engine.add(engine.matmul(patches, params.weight), params.bias)
    return engine.add(projected, params.pos)
