"""Global inter-patch attention.

Multi-head self-attention over the patch axis lets every patch read every
other patch in the history window, independently per channel.  No causal
mask: the whole window is observed data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import numeric_engine as engine
from .numeric_engine import AttentionParams, Tensor


@dataclass
class GlobalFusionParams:
    """Patch-attention projections, norm affine [D], heads, dropout."""

    attn: AttentionParams
    gain: Tensor
    bias: Tensor
    heads: int = 4
    dropout_p: float = 0.1


def global_patch_attention(h_fused: Tensor, params: GlobalFusionParams,
                           training: bool = False, disabled: bool = False,
                           rng: Optional[np.random.Generator] = None) -> Tensor:
    """layer_norm(dropout(MHA over patches) + h_fused); identity when disabled.

    ``h_fused`` is [B, C, N, D] with the patch axis already second-to-last,
    so the N patches are the attention tokens as-is.
    """
    if disabled:
        return h_fused
    attended = engine.multi_head_attention(
        h_fused, params.attn, params.heads,
        dropout_p=params.dropout_p, training=training, rng=rng)
    attended = engine.dropout(attended, params.dropout_p, training, rng)
    return engine.layer_norm(engine.add(attended, h_fused),
                             params.gain, params.bias)
