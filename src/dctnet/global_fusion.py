"""Global inter-patch attention.

Multi-head self-attention over the patch axis lets every patch read every
other patch in the history window, independently per channel.  No causal
mask: the whole window is observed data.  This is the channel branch's
``attention_sublayer`` with patches as tokens and its input as residual.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .dual_branch import AttentionSublayerParams, attention_sublayer
from .numeric_engine import Tensor


def global_patch_attention(h_fused: Tensor, params: AttentionSublayerParams,
                           *, heads: int, dropout_p: float,
                           training: bool = False,
                           rng: Optional[np.random.Generator] = None) -> Tensor:
    """layer_norm(dropout(MHA over patches) + h_fused).

    ``h_fused`` is [B, C, N, D], so the N patches on the second-to-last
    axis are the attention tokens.
    """
    return attention_sublayer(h_fused, h_fused, params, token_axis=-2,
                              heads=heads, dropout_p=dropout_p,
                              training=training, rng=rng)
