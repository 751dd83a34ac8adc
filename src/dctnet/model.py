"""Full forecaster assembly.

Pipeline per window: instance-normalise, cut into patch tokens, run the
dual-branch block(s) and global patch attention, rescale features by the
spectral correction factor, project each channel's flattened tokens to the
horizon, and invert the instance normalisation.  This module owns the
configuration, parameter registry, deterministic initialisation, and the
ablation switches that bypass individual stages.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import numeric_engine as engine
from .numeric_engine import AttentionParams, Tensor
from .dual_branch import AttentionSublayerParams, TemporalBranchParams, \
    fuse_branches
from .errors import ConfigError, ContractError, DataError, finite_number, \
    from_fields, whole_number
from .global_fusion import global_patch_attention
from .patch_embed import PatchEmbedParams, embed_patches, segment_patches
from .revin import RevINParams, revin_denormalize, revin_normalize
from .rng import make_rng
from .spectral_correction import CorrectionConfig, apply_correction

ABLATION_STAGES = ("dbct", "gpaf", "fsc")
_BLOCK_BYTES = 512 * 1024   # a quarter of a 2 MB L2: a block stays in cache
# threads beside the caller on an untaped forward's blocks and a train step's
# parts: one is the count measured (on 2 cores), and each adds a block in
# flight to its memory
_MAX_HELPERS = 1


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
        # latent_dim >= 2: a norm over one feature outputs its bias,
        # whatever its input
        checked = dict(
            {name: whole_number(name, getattr(self, name), below=2**63,
                                at_least=2 if name == "latent_dim" else 1)
             for name in ("channels", "seq_len", "pred_len", "patch_len",
                          "stride", "latent_dim", "heads", "depth")},
            dropout=finite_number("dropout", self.dropout, at_least=0.0,
                                  below=1.0),
            revin_eps=finite_number("revin_eps", self.revin_eps, above=0.0),
            seed=whole_number("seed", self.seed))
        for name, value in checked.items():
            object.__setattr__(self, name, value)       # the class is frozen
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
        for name in ("disable_dbct", "disable_gpaf", "disable_fsc"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigError(f"{name} must be true or false, got "
                                  f"{getattr(self, name)!r}")

    @property
    def num_patches(self) -> int:
        """Full patches per window: floor((L - P) / S) + 1."""
        return (self.seq_len - self.patch_len) // self.stride + 1

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        corr = d.get("correction")
        if isinstance(corr, dict):
            d["correction"] = from_fields(CorrectionConfig, "correction", corr)
        return from_fields(cls, "config", d)


@dataclass
class BlockParams:
    """One dual-branch block paired with its global patch attention."""

    temporal: TemporalBranchParams
    channel: AttentionSublayerParams
    global_fusion: AttentionSublayerParams


@dataclass
class DCTNetParams:
    """Every learnable tensor, reachable by a unique dotted name.

    ``registry`` holds the same tensors as the tree, in the order
    ``init_params`` created them; that order is the checkpoint's.
    """

    revin: RevINParams
    embed: PatchEmbedParams
    blocks: list[BlockParams]
    head_weight: Tensor
    head_bias: Tensor
    registry: dict[str, Tensor] = field(repr=False)

    def named_parameters(self) -> dict[str, Tensor]:
        """Flat name → tensor registry in a fixed, deterministic order."""
        return dict(self.registry)


def init_params(cfg: ModelConfig) -> DCTNetParams:
    """Deterministic parameters: the same cfg gives identical bytes.

    This is the one declaration of every parameter's name, shape and
    initialisation, and so of the checkpoint contract.  Each tensor draws
    from its own stream keyed by (cfg.seed, "init", name), so values do not
    depend on creation order.  Linear weights and biases are uniform within
    +-sqrt(1/fan_in); positions are N(0, 0.02^2); norm gains start at 1,
    shifts at 0.
    """
    c, n, d, p = cfg.channels, cfg.num_patches, cfg.latent_dim, cfg.patch_len
    registry: dict[str, Tensor] = {}

    def make(name: str, data: np.ndarray) -> Tensor:
        registry[name] = Tensor(data, requires_grad=True)
        return registry[name]

    def uniform(name: str, shape: tuple, fan_in: int) -> Tensor:
        bound = float(np.sqrt(1.0 / fan_in))
        return make(name, make_rng(cfg.seed, "init", name).uniform(
            -bound, bound, size=shape))

    def norm(prefix: str, width: int) -> dict[str, Tensor]:
        return {"gain": make(f"{prefix}.gain", np.ones(width)),
                "bias": make(f"{prefix}.bias", np.zeros(width))}

    revin = RevINParams(gamma=make("revin.gamma", np.ones(c)),
                        beta=make("revin.beta", np.zeros(c)))
    embed = PatchEmbedParams(
        weight=uniform("embed.weight", (p, d), p),
        bias=uniform("embed.bias", (d,), p),
        pos=make("embed.pos", make_rng(cfg.seed, "init", "embed.pos").normal(
            0.0, 0.02, size=(n, d))))

    def attention(prefix: str) -> AttentionParams:
        def w(name: str) -> Tensor:
            return uniform(f"{prefix}.{name}", (d, d), d)

        def b(name: str) -> Tensor:
            return uniform(f"{prefix}.{name}", (d,), d)

        return AttentionParams(wq=w("wq"), bq=b("bq"), wk=w("wk"), bk=b("bk"),
                               wv=w("wv"), bv=b("bv"), wo=w("wo"), bo=b("bo"))

    blocks = []
    for i in range(cfg.depth):
        pre = f"blocks.{i}"
        temporal = TemporalBranchParams(
            w_time=uniform(f"{pre}.temporal.w_time", (n, n), n),
            **norm(f"{pre}.temporal", d))
        channel, glob = (AttentionSublayerParams(
            attn=attention(f"{pre}.{part}"), **norm(f"{pre}.{part}", d))
            for part in ("channel", "global"))
        blocks.append(BlockParams(temporal, channel, glob))

    return DCTNetParams(
        revin=revin, embed=embed, blocks=blocks,
        head_weight=uniform("head.weight", (n * d, cfg.pred_len), n * d),
        head_bias=uniform("head.bias", (cfg.pred_len,), n * d),
        registry=registry)


@dataclass
class Forecast:
    """Horizon values [B, T, C] in the data's own scale and the correction
    factor alpha [B, C, 1, 1]; values that overflow float64 are a
    ``DataError``, as such inputs are."""

    values: Tensor
    alpha: Tensor

    def __post_init__(self):
        if not np.all(np.isfinite(self.values.data)):
            raise DataError("forecast contains NaN/Inf")


def linear_head(h: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Each channel's flattened tokens [B, C, N, D] times ``weight``
    [N * D, T] plus ``bias`` [T], as [B, T, C]: one tape node whose adjoint
    is the engine's affine one in the [B, C, T] layout."""
    b, c = h.shape[:2]
    flat = h.data.reshape(b, c, -1)
    out = engine._wrap(engine._affine(flat, weight, bias).swapaxes(1, 2))

    def bw():
        gh = engine._affine_vjp(out.grad.swapaxes(1, 2), flat, weight, bias,
                                h.requires_grad)
        if gh is not None:
            h.accumulate_grad(gh.reshape(h.shape), owned=True)

    engine._record((h, weight, bias), out, bw)
    return out


def forward(x, params: DCTNetParams, cfg: ModelConfig, training: bool = False,
            rng: Optional[np.random.Generator] = None) -> Forecast:
    """Run one batch of windows [B, L, C] through the whole pipeline.

    With no tape recording on the calling thread and ``training`` False,
    the batch runs in blocks of ``_block_rows(cfg)`` windows, so inference
    memory is bounded by the output and the blocks in flight.  The blocks
    run on the caller and on a helper thread while numpy's OpenBLAS runs
    one thread (``_openblas``; see ``_helpers``).  A window's forecast
    does not depend on its block or its thread.  Taped or training calls
    run as one block on the calling thread; ``fit`` splits a train batch
    of more than ``_block_rows(cfg)`` windows into parts of its own, each
    on its own tape.
    """
    x = engine._as_tensor(x)
    if not np.all(np.isfinite(x.data)):
        raise DataError("input window contains NaN/Inf")
    if (x.ndim != 3 or x.shape[0] == 0 or x.shape[1] != cfg.seq_len
            or x.shape[2] != cfg.channels):
        raise ContractError(
            f"expected input [B, {cfg.seq_len}, {cfg.channels}] with B >= 1, "
            f"got {x.shape}"
        )
    rows, b = _block_rows(cfg), x.shape[0]
    # a 1-window block's projections would be GEMVs when C·N = 1, which sum
    # in another order than the batch's GEMM
    if (training or engine.active_tape() is not None
            or cfg.channels * cfg.num_patches == 1 or rows >= b):
        return Forecast(*_forward_block(x, params, cfg, training, rng))
    starts = range(0, b, rows)
    blocks = _run_parts(len(starts), lambda i: _forward_block(
        engine._wrap(x.data[starts[i]:starts[i] + rows]), params, cfg))
    return Forecast(*(engine._wrap(np.concatenate([t.data for t in ts]))
                      for ts in zip(*blocks)))


def _block_rows(cfg: ModelConfig) -> int:
    """Windows per block of an untaped forward, and the most a train step
    runs as one part: ``_BLOCK_BYTES`` over the bytes of one window's
    widest intermediate, the C·N·D token grid or the H·N·C² and H·C·N²
    attention probabilities, and at least one."""
    c, n, h = cfg.channels, cfg.num_patches, cfg.heads
    return max(1, _BLOCK_BYTES // (
        8 * max(c * n * cfg.latent_dim, h * n * c * c, h * c * n * n)))


def _run_parts(count: int, task: Callable[[int], object]) -> list:
    """``task(i)`` for every i below ``count``, run on the caller and
    ``_helpers(count)`` threads; the results in index order.

    Every thread takes the next index from one shared queue.  A failing
    task empties the queue; once every helper has joined, the error of the
    earliest failing index, the one a serial loop meets, is raised.  Every
    thread runs under the caller's numpy ``errstate``, which a new thread
    would not inherit.
    """
    results: list = [None] * count
    queue = deque(range(count))             # pops are atomic across threads
    failed: dict[int, Exception] = {}
    errstate = dict(np.geterr(), call=np.geterrcall())

    def drain() -> None:
        with np.errstate(**errstate):
            while True:
                try:
                    i = queue.popleft()
                except IndexError:
                    return
                try:
                    results[i] = task(i)
                except Exception as exc:    # raised by the caller below
                    failed[i] = exc
                    queue.clear()

    started = []
    try:
        for _ in range(_helpers(count)):
            helper = threading.Thread(target=drain)
            try:
                helper.start()
            except RuntimeError:            # no thread to spare
                break
            started.append(helper)
        drain()
    finally:
        queue.clear()           # an interrupted caller stops the helpers too
        for helper in started:
            helper.join()
            # join returns before the OS thread has exited and handed its
            # malloc arena back; a helper started before then gets an arena
            # of its own, which keeps freed activations resident (train_c7
            # peaked at 156 MB, not 130, on a 2-core VM whose other core
            # was busy).  Where /proc lists the threads, wait for this one.
            while os.path.exists(f"/proc/self/task/{helper.native_id}"):
                time.sleep(1e-4)
    if failed:
        raise failed[min(failed)]
    return results


def _helpers(tasks: int) -> int:
    """Threads to run beside the caller on ``tasks`` tasks: up to
    ``_MAX_HELPERS``, one per usable core but the caller's, while numpy's
    OpenBLAS runs one thread (``_openblas``), and none otherwise, since
    BLAS's own threads then take the other cores.

    numpy releases the GIL inside BLAS calls and ufunc and einsum loops,
    which is where a forward block or a train part spends most of its time;
    its Python work stays serial.  The usable cores are the affinity mask's,
    which does not see a container's CPU quota.
    """
    get = _openblas("get")
    if get is None or get() != 1:
        return 0
    cores = (len(os.sched_getaffinity(0))
             if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    return max(0, min(_MAX_HELPERS, cores - 1, tasks - 1))


@functools.cache
def _openblas(verb: str) -> Optional[Callable]:
    """OpenBLAS's ``get_num_threads`` (verb ``"get"``) or
    ``set_num_threads`` (``"set"``) in numpy's bundled library, looked up
    once; None for a numpy built on another BLAS."""
    argtypes, restype = {"get": ((), ctypes.c_int),
                         "set": ((ctypes.c_int,), None)}[verb]
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in (f"scipy_openblas_{verb}_num_threads64_",
                       f"openblas_{verb}_num_threads64_",
                       f"openblas_{verb}_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = argtypes, restype
                return fn
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """numpy's OpenBLAS at one thread inside the ``with``, and its previous
    count back after: forward blocks and train parts then run beside a
    helper thread (``_helpers``), which pays more than BLAS's own threads.
    A count set in ``OPENBLAS_NUM_THREADS`` is left as it is, as is a
    numpy on another BLAS."""
    get, set_ = _openblas("get"), _openblas("set")
    if get is None or set_ is None or "OPENBLAS_NUM_THREADS" in os.environ:
        yield
        return
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _forward_block(x: Tensor, params: DCTNetParams, cfg: ModelConfig,
                   training: bool = False,
                   rng: Optional[np.random.Generator] = None
                   ) -> tuple[Tensor, Tensor]:
    """The pipeline on checked windows [B, L, C]: forecast values and alpha.
    Every attention sublayer takes cfg's heads and dropout, which the tree
    does not hold.  This is the one reader of cfg's ablation switches: a
    bypassed stage is not called, its input goes on as its output, and a
    bypassed correction's alpha is exactly 1.  Stages are called through
    this module's names, which tracers replace."""
    normed, state = revin_normalize(x, params.revin, eps=cfg.revin_eps)
    x_patch = embed_patches(segment_patches(normed, cfg.patch_len, cfg.stride),
                            params.embed)

    h = x_patch
    sublayer = dict(heads=cfg.heads, dropout_p=cfg.dropout, training=training,
                    rng=rng)
    for blk in params.blocks:
        if not cfg.disable_dbct:
            h = fuse_branches(h, blk.temporal, blk.channel, **sublayer)
        if not cfg.disable_gpaf:
            h = global_patch_attention(h, blk.global_fusion, **sublayer)

    if cfg.disable_fsc:
        h_final, alpha = h, engine._wrap(np.ones(h.shape[:2] + (1, 1)))
    else:
        h_final, alpha = apply_correction(h, x_patch, cfg.correction)
    pred = linear_head(h_final, params.head_weight, params.head_bias)
    return revin_denormalize(pred, params.revin, state), alpha


def ablation_variant(cfg: ModelConfig, which: str) -> ModelConfig:
    """Copy of cfg with exactly one stage bypassed; shapes stay identical.
    A cfg that already bypasses a stage is a ``ConfigError``."""
    if which not in ABLATION_STAGES:
        raise ConfigError(
            f"unknown ablation stage {which!r}; choose from {ABLATION_STAGES}"
        )
    for stage in ABLATION_STAGES:
        if getattr(cfg, f"disable_{stage}"):
            raise ConfigError(f"model.disable_{stage} is already set; an "
                              f"ablation variant bypasses one stage of the "
                              f"full model")
    return dataclasses.replace(cfg, **{f"disable_{which}": True})
