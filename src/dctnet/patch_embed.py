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

    def tensors(self) -> dict[str, Tensor]:
        return {"weight": self.weight, "bias": self.bias, "pos": self.pos}


def compute_num_patches(seq_len: int, patch_len: int, stride: int) -> int:
    """Number of full patches: floor((L - P) / S) + 1."""
    if patch_len < 1:
        raise ConfigError(f"patch_len must be >= 1, got {patch_len}")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    if patch_len > seq_len:
        raise ConfigError(
            f"patch_len {patch_len} exceeds window length {seq_len}"
        )
    return (seq_len - patch_len) // stride + 1


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
