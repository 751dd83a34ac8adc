"""Full forecaster assembly.

Pipeline per window: instance-normalise, cut into patch tokens, run the
dual-branch block(s) and global patch attention, rescale features by the
spectral correction factor, project each channel's flattened tokens to the
horizon, and invert the instance normalisation.  This module owns the
configuration, parameter registry, deterministic initialisation, and the
ablation switches that bypass individual stages.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from . import numeric_engine as engine
from .numeric_engine import AttentionParams, Tensor
from .dual_branch import ChannelBranchParams, TemporalBranchParams, \
    fuse_branches
from .errors import ConfigError, ContractError, DataError, finite_number, \
    whole_number
from .global_fusion import GlobalFusionParams, global_patch_attention
from .patch_embed import PatchEmbedParams, compute_num_patches, \
    embed_patches, segment_patches
from .revin import RevINParams, revin_denormalize, revin_normalize
from .rng import make_rng
from .spectral_correction import CorrectionConfig, SpectralDiagnostics, \
    apply_correction

ABLATION_STAGES = ("dbct", "gpaf", "fsc")


def _drop_retired(section: dict, key: str, kept: str) -> dict:
    """Copy of ``section`` without ``key``, a setting that older configs
    and checkpoint headers carry; ``kept``, the value the model now always
    uses, is the only one accepted."""
    if key in section:
        section = dict(section)
        value = section.pop(key)
        if value != kept:
            raise ConfigError(
                f"{key} {value!r} is no longer supported; the model always "
                f"uses {kept!r}"
            )
    return section


@dataclass(frozen=True)
class ModelConfig:
    """Shapes, regularisation, correction guard, and ablation switches.

    There is one dual-branch wiring (the temporal output rides the channel
    attention residual) and one correction scope (one alpha per series).
    """

    channels: int
    seq_len: int = 96
    pred_len: int = 96
    patch_len: int = 16
    stride: int = 8
    latent_dim: int = 64
    heads: int = 4
    depth: int = 1
    dropout: float = 0.1
    revin_eps: float = 1e-5
    correction: CorrectionConfig = field(default_factory=CorrectionConfig)
    disable_dbct: bool = False
    disable_gpaf: bool = False
    disable_fsc: bool = False
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name in ("channels", "seq_len", "pred_len", "patch_len", "stride",
                     "latent_dim", "heads", "depth"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if self.patch_len > self.seq_len:
            raise ConfigError(
                f"patch_len {self.patch_len} exceeds seq_len {self.seq_len}"
            )
        if self.latent_dim % self.heads != 0:
            raise ConfigError(
                f"latent_dim {self.latent_dim} not divisible by "
                f"{self.heads} heads"
            )
        if not isinstance(self.correction, CorrectionConfig):
            raise ConfigError(
                f"correction must be a CorrectionConfig, got {self.correction!r}"
            )
        if not 0.0 <= finite_number("dropout", self.dropout) < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if finite_number("revin_eps", self.revin_eps) <= 0:
            raise ConfigError(f"revin_eps must be > 0, got {self.revin_eps}")
        whole_number("seed", self.seed)

    @property
    def num_patches(self) -> int:
        return compute_num_patches(self.seq_len, self.patch_len, self.stride)

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["correction"] = dataclasses.asdict(self.correction)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = _drop_retired(dict(d), "fusion_mode", "residual_substitution")
        corr = d.get("correction")
        if isinstance(corr, dict):
            d["correction"] = CorrectionConfig(
                **_drop_retired(corr, "reduction_scope", "per_batch_channel"))
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**d)


@dataclass
class BlockParams:
    """One dual-branch block paired with its global patch attention."""

    temporal: TemporalBranchParams
    channel: ChannelBranchParams
    global_fusion: GlobalFusionParams


@dataclass
class DCTNetParams:
    """Every learnable tensor, reachable by a unique dotted name."""

    revin: RevINParams
    embed: PatchEmbedParams
    blocks: list[BlockParams]
    head_weight: Tensor
    head_bias: Tensor

    def named_parameters(self) -> dict[str, Tensor]:
        """Flat name → tensor registry in a fixed, deterministic order."""
        out: dict[str, Tensor] = {}
        for k, t in self.revin.tensors().items():
            out[f"revin.{k}"] = t
        for k, t in self.embed.tensors().items():
            out[f"embed.{k}"] = t
        for i, blk in enumerate(self.blocks):
            for k, t in blk.temporal.tensors().items():
                out[f"blocks.{i}.temporal.{k}"] = t
            for k, t in blk.channel.tensors().items():
                out[f"blocks.{i}.channel.{k}"] = t
            for k, t in blk.global_fusion.tensors().items():
                out[f"blocks.{i}.global.{k}"] = t
        out["head.weight"] = self.head_weight
        out["head.bias"] = self.head_bias
        return out

    def tensors(self) -> Iterator[Tensor]:
        return iter(self.named_parameters().values())

    def count(self) -> int:
        return sum(t.data.size for t in self.tensors())


def param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
    """Declared shape of every parameter for a config (the checkpoint contract)."""
    c, p, d, t = cfg.channels, cfg.patch_len, cfg.latent_dim, cfg.pred_len
    n = cfg.num_patches
    shapes: dict[str, tuple] = {
        "revin.gamma": (c,), "revin.beta": (c,),
        "embed.weight": (p, d), "embed.bias": (d,), "embed.pos": (n, d),
    }
    for i in range(cfg.depth):
        shapes[f"blocks.{i}.temporal.w_time"] = (n, n)
        shapes[f"blocks.{i}.temporal.gain"] = (d,)
        shapes[f"blocks.{i}.temporal.bias"] = (d,)
        for branch in ("channel", "global"):
            for w in ("wq", "wk", "wv", "wo"):
                shapes[f"blocks.{i}.{branch}.{w}"] = (d, d)
            for b in ("bq", "bk", "bv", "bo"):
                shapes[f"blocks.{i}.{branch}.{b}"] = (d,)
            shapes[f"blocks.{i}.{branch}.gain"] = (d,)
            shapes[f"blocks.{i}.{branch}.bias"] = (d,)
    shapes["head.weight"] = (n * d, t)
    shapes["head.bias"] = (t,)
    return shapes


def init_params(cfg: ModelConfig, seed: Optional[int] = None) -> DCTNetParams:
    """Deterministic parameters: same (cfg, seed) gives identical bytes.

    Each tensor draws from its own stream keyed by (seed, "init", name), so
    values do not depend on creation order.  Linear weights and biases are
    uniform within +-sqrt(1/fan_in); positions are N(0, 0.02^2); norm gains
    start at 1, shifts at 0.
    """
    if seed is None:
        seed = cfg.seed
    n, d, p = cfg.num_patches, cfg.latent_dim, cfg.patch_len
    shapes = param_shapes(cfg)

    def uniform(name: str, fan_in: int) -> Tensor:
        bound = float(np.sqrt(1.0 / fan_in))
        data = make_rng(seed, "init", name).uniform(-bound, bound,
                                                    size=shapes[name])
        return Tensor(data, requires_grad=True)

    def ones(name: str) -> Tensor:
        return Tensor(np.ones(shapes[name]), requires_grad=True)

    def zeros(name: str) -> Tensor:
        return Tensor(np.zeros(shapes[name]), requires_grad=True)

    revin = RevINParams(gamma=ones("revin.gamma"), beta=zeros("revin.beta"))
    pos = Tensor(make_rng(seed, "init", "embed.pos").normal(
        0.0, 0.02, size=shapes["embed.pos"]), requires_grad=True)
    embed = PatchEmbedParams(weight=uniform("embed.weight", p),
                             bias=uniform("embed.bias", p), pos=pos)

    def attention(prefix: str) -> AttentionParams:
        return AttentionParams(
            wq=uniform(f"{prefix}.wq", d), bq=uniform(f"{prefix}.bq", d),
            wk=uniform(f"{prefix}.wk", d), bk=uniform(f"{prefix}.bk", d),
            wv=uniform(f"{prefix}.wv", d), bv=uniform(f"{prefix}.bv", d),
            wo=uniform(f"{prefix}.wo", d), bo=uniform(f"{prefix}.bo", d))

    blocks = []
    for i in range(cfg.depth):
        pre = f"blocks.{i}"
        temporal = TemporalBranchParams(
            w_time=uniform(f"{pre}.temporal.w_time", n),
            gain=ones(f"{pre}.temporal.gain"), bias=zeros(f"{pre}.temporal.bias"))
        channel = ChannelBranchParams(
            attn=attention(f"{pre}.channel"),
            gain=ones(f"{pre}.channel.gain"), bias=zeros(f"{pre}.channel.bias"),
            heads=cfg.heads, dropout_p=cfg.dropout)
        glob = GlobalFusionParams(
            attn=attention(f"{pre}.global"),
            gain=ones(f"{pre}.global.gain"), bias=zeros(f"{pre}.global.bias"),
            heads=cfg.heads, dropout_p=cfg.dropout)
        blocks.append(BlockParams(temporal, channel, glob))

    return DCTNetParams(
        revin=revin, embed=embed, blocks=blocks,
        head_weight=uniform("head.weight", n * d),
        head_bias=uniform("head.bias", n * d))


@dataclass
class Forecast:
    """Horizon values in the data's own scale, plus correction diagnostics."""

    values: Tensor
    diagnostics: SpectralDiagnostics

    def __post_init__(self):
        if not np.all(np.isfinite(self.values.data)):
            raise ContractError("forecast contains NaN/Inf")


def forward(x, params: DCTNetParams, cfg: ModelConfig, training: bool = False,
            rng: Optional[np.random.Generator] = None) -> Forecast:
    """Run one batch of windows [B, L, C] through the whole pipeline."""
    if not isinstance(x, Tensor):
        arr = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise DataError("input window contains NaN/Inf")
        x = Tensor(arr)
    if not np.all(np.isfinite(x.data)):
        raise DataError("input window contains NaN/Inf")
    if x.ndim != 3 or x.shape[1] != cfg.seq_len or x.shape[2] != cfg.channels:
        raise ContractError(
            f"expected input [B, {cfg.seq_len}, {cfg.channels}], got {x.shape}"
        )

    normed, state = revin_normalize(x, params.revin, eps=cfg.revin_eps)
    x_patch = embed_patches(segment_patches(normed, cfg.patch_len, cfg.stride),
                            params.embed)

    h = x_patch
    for blk in params.blocks:
        h = fuse_branches(h, blk.temporal, blk.channel, training=training,
                          disabled=cfg.disable_dbct, rng=rng)
        h = global_patch_attention(h, blk.global_fusion, training=training,
                                   disabled=cfg.disable_gpaf, rng=rng)

    h_final, diag = apply_correction(h, x_patch, cfg.correction,
                                     enabled=not cfg.disable_fsc)

    b = h_final.shape[0]
    flat = engine.reshape(h_final, (b, cfg.channels,
                                    cfg.num_patches * cfg.latent_dim))
    per_channel = engine.add(engine.matmul(flat, params.head_weight),
                             params.head_bias)           # [B, C, T]
    pred = engine.swapaxes(per_channel, 1, 2)            # [B, T, C]
    values = revin_denormalize(pred, params.revin, state)
    return Forecast(values=values, diagnostics=diag)


def ablation_variant(cfg: ModelConfig, which: str) -> ModelConfig:
    """Copy of cfg with exactly one stage bypassed; shapes stay identical."""
    if which not in ABLATION_STAGES:
        raise ConfigError(
            f"unknown ablation stage {which!r}; choose from {ABLATION_STAGES}"
        )
    return dataclasses.replace(cfg, **{f"disable_{which}": True})
