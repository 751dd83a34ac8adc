"""Dense float64 tensors with reverse-mode differentiation.

A ``Tensor`` wraps a row-major numpy array plus an optional gradient slot.
Operations executed while a ``Tape`` is active append adjoint closures to
it; ``backward`` replays the tape in reverse to populate ``grad`` on every
leaf that requires it.  With no active tape the same functions are plain
numpy computations, which is how evaluation-mode forwards run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

from .errors import ConfigError, ContractError
from . import fft

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Tensor:
    """Dense N-dimensional float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ContractError("tensor data contains NaN/Inf")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add ``g`` into ``grad``, copying on the first write.

        VJPs may hand over an upstream grad itself or a view of it, and one
        upstream grad can reach several inputs, so the first write must own
        its buffer; later writes add in place.
        """
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive applications; replayed backward for adjoints."""

    def __init__(self):
        self._nodes: list[tuple[Tensor, Callable[[], None]]] = []

    def __len__(self) -> int:
        return len(self._nodes)

    def __enter__(self) -> "Tape":
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPE_STACK.pop()


_TAPE_STACK: list[Tape] = []


def active_tape() -> Optional[Tape]:
    return _TAPE_STACK[-1] if _TAPE_STACK else None


def _wrap(data: np.ndarray, requires_grad: bool) -> Tensor:
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = requires_grad
    return t


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return _wrap(np.asarray(x, dtype=np.float64), False)


def _record(inputs: Sequence[Tensor], out: Tensor, backward_fn) -> None:
    """Append a node when a tape is active and some input requires grad."""
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._nodes.append((out, backward_fn))


def backward(loss: Tensor, tape: Tape) -> None:
    """Populate ``grad`` on every requires-grad leaf reachable from ``loss``.

    Repeated calls on the same tape accumulate into leaf gradients; tensors
    produced on the tape have their gradients reset at the start of each call.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    for out, _ in tape._nodes:
        out.grad = None
    loss.grad = np.ones((), dtype=np.float64)
    for out, backward_fn in reversed(tape._nodes):
        if out.grad is not None:
            backward_fn()


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` along axes that were broadcast."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _wrap(a.data + b.data, False)

    def bw():
        g = out.grad
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g, b.data.shape))

    _record((a, b), out, bw)
    return out


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _wrap(a.data - b.data, False)

    def bw():
        g = out.grad
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g, b.data.shape))

    _record((a, b), out, bw)
    return out


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _wrap(a.data * b.data, False)

    def bw():
        g = out.grad
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(g * a.data, b.data.shape))

    _record((a, b), out, bw)
    return out


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = _wrap(a.data / b.data, False)

    def bw():
        g = out.grad
        if a.requires_grad:
            a.accumulate_grad(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    _record((a, b), out, bw)
    return out


def sqrt(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = _wrap(np.sqrt(a.data), False)

    def bw():
        # d sqrt(a) is unbounded at a = 0; take 0 there, so a zero output
        # passes no gradient instead of NaN
        if a.requires_grad:
            g = np.zeros_like(out.data)
            np.divide(out.grad * 0.5, out.data, out=g, where=out.data != 0.0)
            a.accumulate_grad(g)

    _record((a,), out, bw)
    return out


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the clamp used on autocorrelations."""
    a = _as_tensor(a)
    out = _wrap(np.maximum(a.data, 0.0), False)

    def bw():
        if a.requires_grad:
            a.accumulate_grad(out.grad * (a.data > 0.0))

    _record((a,), out, bw)
    return out


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x) with the exact Gaussian CDF (erf form)."""
    a = _as_tensor(a)
    phi = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    out = _wrap(a.data * phi, False)

    def bw():
        if a.requires_grad:
            pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
            a.accumulate_grad(out.grad * (phi + a.data * pdf))

    _record((a,), out, bw)
    return out


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = _wrap(a.data.sum(axis=axis, keepdims=keepdims), False)

    def bw():
        if not a.requires_grad:
            return
        g = out.grad
        if axis is not None and not keepdims:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            for ax in sorted(ax % a.data.ndim for ax in axes):
                g = np.expand_dims(g, ax)
        a.accumulate_grad(np.broadcast_to(g, a.data.shape))

    _record((a,), out, bw)
    return out


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        count = a.data.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= a.data.shape[ax]
    return mul(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    out = _wrap(a.data.reshape(shape), False)

    def bw():
        if a.requires_grad:
            a.accumulate_grad(out.grad.reshape(a.data.shape))

    _record((a,), out, bw)
    return out


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    a = _as_tensor(a)
    out = _wrap(np.swapaxes(a.data, ax1, ax2), False)

    def bw():
        if a.requires_grad:
            a.accumulate_grad(np.swapaxes(out.grad, ax1, ax2))

    _record((a,), out, bw)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the last two axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ContractError(
            f"matmul expects operands of rank >= 2, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ContractError(
            f"matmul inner extents differ: {a.data.shape} vs {b.data.shape}"
        )
    out = _wrap(np.matmul(a.data, b.data), False)

    def bw():
        g = out.grad
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a.accumulate_grad(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            if b.data.ndim == 2:
                # shared weight: one GEMM over the collapsed leading axes
                k, m = b.data.shape
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, m)
            else:
                gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g),
                                  b.data.shape)
            b.accumulate_grad(gb)

    _record((a, b), out, bw)
    return out


def extract_patches(x: Tensor, patch_len: int, stride: int) -> Tensor:
    """Slice [B, L, C] into per-channel windows, returning [B, C, N, P].

    Patch n of channel c holds x[b, n*stride : n*stride+patch_len, c];
    samples past the last full window are dropped.
    """
    x = _as_tensor(x)
    b, length, _ = x.data.shape
    if patch_len < 1:
        raise ConfigError(f"patch_len must be >= 1, got {patch_len}")
    if patch_len > length:
        raise ConfigError(f"patch_len {patch_len} exceeds window length {length}")
    if stride < 1:
        raise ConfigError(f"stride must be >= 1, got {stride}")
    n = (length - patch_len) // stride + 1
    idx = stride * np.arange(n)[:, None] + np.arange(patch_len)[None, :]
    windows = x.data[:, idx, :]                       # [B, N, P, C]
    out = _wrap(np.ascontiguousarray(windows.transpose(0, 3, 1, 2)), False)

    def bw():
        if not x.requires_grad:
            return
        g = out.grad.transpose(0, 2, 3, 1)            # [B, N, P, C]
        gx = np.zeros_like(x.data)
        np.add.at(gx, (slice(None), idx), g)
        x.accumulate_grad(gx)

    _record((x,), out, bw)
    return out


# ---------------------------------------------------------------------------
# normalisation, activation over slices, stochastic regularisation
# ---------------------------------------------------------------------------

def softmax_lastdim(x: Tensor) -> Tensor:
    """Stable softmax over the last axis; rows are nonnegative and sum to 1."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = _wrap(y, False)

    def bw():
        if x.requires_grad:
            g = out.grad
            x.accumulate_grad(y * (g - (g * y).sum(axis=-1, keepdims=True)))

    _record((x,), out, bw)
    return out


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-last-axis standardisation (biased variance) with affine gain/bias.

    One tape node.  With xhat = (x - mean) * rstd and gy = g * gain, the
    adjoint is rstd * (gy - mean(gy) - xhat * mean(gy * xhat)) for x,
    sum(g * xhat) for gain and sum(g) for bias.  ``gain`` and ``bias`` must
    broadcast to the shape of ``x``.
    """
    if eps <= 0:
        raise ConfigError(f"layer_norm eps must be > 0, got {eps}")
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(np.mean(xhat * xhat, axis=-1, keepdims=True) + eps)
    xhat *= rstd
    y = xhat * gain.data
    y += bias.data
    out = _wrap(y, False)

    def bw():
        g = out.grad
        if x.requires_grad:
            gy = g * gain.data
            proj = np.mean(gy * xhat, axis=-1, keepdims=True)
            gy -= gy.mean(axis=-1, keepdims=True)
            gy -= xhat * proj
            gy *= rstd
            x.accumulate_grad(gy)
        if gain.requires_grad:
            gain.accumulate_grad(_unbroadcast(g * xhat, gain.data.shape))
        if bias.requires_grad:
            bias.accumulate_grad(_unbroadcast(g, bias.data.shape))

    _record((x, gain, bias), out, bw)
    return out


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: zero with probability p, scale survivors by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    if rng is None:
        raise ConfigError("dropout with p > 0 in training mode needs an rng")
    x = _as_tensor(x)
    keep = (rng.random(x.data.shape) >= p)
    scale = 1.0 / (1.0 - p)
    out = _wrap(x.data * keep * scale, False)

    def bw():
        if x.requires_grad:
            x.accumulate_grad(out.grad * keep * scale)

    _record((x,), out, bw)
    return out


# ---------------------------------------------------------------------------
# spectral primitives
# ---------------------------------------------------------------------------

def circular_autocorr(x: Tensor, axis: int = -1) -> Tensor:
    """Circular autocorrelation along ``axis`` via Wiener-Khinchin.

    out[m] = N^(-1/2) * sum_n x[n] * x[(n+m) mod N] = Re IDFT(|DFT x|^2)[m]
    under the orthonormal transforms of ``fft``.  With the symmetric DFT
    matrix written Mr + i*Mi, that is Mr((Mr x)^2 + (Mi x)^2), so both
    directions are real matrix products; the adjoint is
    Mr(gp * Mr x) + Mi(gp * Mi x) with gp = 2 * Mr g.
    """
    x = _as_tensor(x)
    mr, mi = fft.real_dft_matrices(x.data.shape[axis])
    axis %= x.data.ndim
    last = axis == x.data.ndim - 1

    def to_rows(a):
        # view with ``axis`` at -2, so left-multiplication transforms it
        return a[..., None] if last else np.moveaxis(a, axis, -2)

    def from_rows(a):
        return a[..., 0] if last else np.moveaxis(a, -2, axis)

    xv = to_rows(x.data)
    re = mr @ xv
    im = mi @ xv
    power = re * re
    power += im * im
    out = _wrap(np.ascontiguousarray(from_rows(mr @ power)), False)

    def bw():
        if x.requires_grad:
            gp = mr @ to_rows(out.grad)
            gp *= 2.0
            gx = mr @ (gp * re)
            gx += mi @ (gp * im)
            x.accumulate_grad(from_rows(gx))

    _record((x,), out, bw)
    return out


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

@dataclass
class AttentionParams:
    """Projection weights of one multi-head attention block."""

    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor


def _split_heads(t: Tensor, heads: int) -> Tensor:
    *lead, s, d = t.shape
    t = reshape(t, (*lead, s, heads, d // heads))
    return swapaxes(t, -3, -2)                        # [..., heads, S, dh]


def _merge_heads(t: Tensor) -> Tensor:
    t = swapaxes(t, -3, -2)                           # [..., S, heads, dh]
    *lead, s, h, dh = t.shape
    return reshape(t, (*lead, s, h * dh))


def multi_head_attention(x: Tensor, params: AttentionParams, heads: int,
                         dropout_p: float = 0.0, training: bool = False,
                         rng: Optional[np.random.Generator] = None,
                         return_weights: bool = False):
    """Scaled dot-product attention over the second-to-last axis of ``x``.

    ``x`` is [..., S, D] with S tokens of width D; all leading axes are
    batch.  Dropout, when active, is applied to the attention probabilities.
    With ``return_weights`` the pre-dropout weights [..., heads, S, S] come
    back as a plain array alongside the output.
    """
    d = x.shape[-1]
    if d % heads != 0:
        raise ConfigError(f"model dim {d} not divisible by {heads} heads")
    q = _split_heads(add(matmul(x, params.wq), params.bq), heads)
    k = _split_heads(add(matmul(x, params.wk), params.bk), heads)
    v = _split_heads(add(matmul(x, params.wv), params.bv), heads)
    scale = 1.0 / math.sqrt(d // heads)
    scores = mul(matmul(q, swapaxes(k, -1, -2)), scale)
    weights = softmax_lastdim(scores)
    ctx = matmul(dropout(weights, dropout_p, training, rng), v)
    out = add(matmul(_merge_heads(ctx), params.wo), params.bo)
    if return_weights:
        return out, weights.data.copy()
    return out
