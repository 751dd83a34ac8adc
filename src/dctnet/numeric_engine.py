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

from .errors import ConfigError, ContractError, finite_number, whole_number
from . import fft

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LN_EPS = 1e-5          # layer_norm's variance floor


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


def _wrap(data: np.ndarray) -> Tensor:
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = False
    return t


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return _wrap(np.asarray(x, dtype=np.float64))


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
    out = _wrap(a.data + b.data)

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
    out = _wrap(a.data - b.data)

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
    out = _wrap(a.data * b.data)

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
    out = _wrap(a.data / b.data)

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
    out = _wrap(np.sqrt(a.data))

    def bw():
        # d sqrt(a) is unbounded at a = 0; take 0 there, so a zero output
        # passes no gradient instead of NaN
        g = np.zeros_like(out.data)
        np.divide(out.grad * 0.5, out.data, out=g, where=out.data != 0.0)
        a.accumulate_grad(g)

    _record((a,), out, bw)
    return out


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x) with the exact Gaussian CDF (erf form)."""
    a = _as_tensor(a)
    phi = 0.5 * (1.0 + erf(a.data * _INV_SQRT2))
    out = _wrap(a.data * phi)

    def bw():
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT_2PI
        a.accumulate_grad(out.grad * (phi + a.data * pdf))

    _record((a,), out, bw)
    return out


# ---------------------------------------------------------------------------
# reductions and shape ops
# ---------------------------------------------------------------------------

def reduce_sum(a: Tensor, axis=None) -> Tensor:
    """Sum over ``axis``, which stays as extent 1; over everything when None."""
    a = _as_tensor(a)
    out = _wrap(a.data.sum(axis=axis, keepdims=axis is not None))

    def bw():
        a.accumulate_grad(np.broadcast_to(out.grad, a.data.shape))

    _record((a,), out, bw)
    return out


def reduce_mean(a: Tensor, axis=None) -> Tensor:
    """Mean over ``axis``, which stays as extent 1; over everything when None."""
    a = _as_tensor(a)
    total = reduce_sum(a, axis=axis)
    return mul(total, 1.0 / (a.data.size // total.data.size))


def reshape(a: Tensor, shape) -> Tensor:
    a = _as_tensor(a)
    out = _wrap(a.data.reshape(shape))

    def bw():
        a.accumulate_grad(out.grad.reshape(a.data.shape))

    _record((a,), out, bw)
    return out


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    a = _as_tensor(a)
    out = _wrap(np.swapaxes(a.data, ax1, ax2))

    def bw():
        a.accumulate_grad(np.swapaxes(out.grad, ax1, ax2))

    _record((a,), out, bw)
    return out


def matmul(a: Tensor, w: Tensor) -> Tensor:
    """[..., K] @ [K, M]: every leading axis of ``a`` is batch, ``w`` is shared."""
    a, w = _as_tensor(a), _as_tensor(w)
    if w.data.ndim != 2 or a.data.shape[-1:] != w.data.shape[:1]:
        raise ContractError(
            f"matmul expects [..., K] @ [K, M], got {a.data.shape} and "
            f"{w.data.shape}"
        )
    out = _wrap(np.matmul(a.data, w.data))

    def bw():
        g = out.grad
        if a.requires_grad:
            a.accumulate_grad(g @ w.data.T)
        if w.requires_grad:
            # one GEMM over the collapsed leading axes
            k, m = w.data.shape
            w.accumulate_grad(a.data.reshape(-1, k).T @ g.reshape(-1, m))

    _record((a, w), out, bw)
    return out


def extract_patches(x: Tensor, patch_len: int, stride: int) -> Tensor:
    """Slice [B, L, C] into per-channel windows, returning [B, C, N, P].

    Patch n of channel c holds x[b, n*stride : n*stride+patch_len, c];
    samples past the last full window are dropped.
    """
    x = _as_tensor(x)
    b, length, _ = x.data.shape
    patch_len = whole_number("patch_len", patch_len, at_least=1)
    if patch_len > length:
        raise ConfigError(f"patch_len {patch_len} exceeds window length {length}")
    stride = whole_number("stride", stride, at_least=1)
    n = (length - patch_len) // stride + 1
    idx = stride * np.arange(n)[:, None] + np.arange(patch_len)[None, :]
    windows = x.data[:, idx, :]                       # [B, N, P, C]
    out = _wrap(np.ascontiguousarray(windows.transpose(0, 3, 1, 2)))

    def bw():
        g = out.grad.transpose(0, 2, 3, 1)            # [B, N, P, C]
        gx = np.zeros_like(x.data)
        np.add.at(gx, (slice(None), idx), g)
        x.accumulate_grad(gx)

    _record((x,), out, bw)
    return out


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------

def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Per-last-axis standardisation (biased variance) with affine gain/bias.

    One tape node.  With xhat = (x - mean) * rstd and gy = g * gain, the
    adjoint is rstd * (gy - mean(gy) - xhat * mean(gy * xhat)) for x,
    sum(g * xhat) for gain and sum(g) for bias.  ``gain`` and ``bias`` must
    broadcast to the shape of ``x``.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(np.mean(xhat * xhat, axis=-1, keepdims=True) + _LN_EPS)
    xhat *= rstd
    y = xhat * gain.data
    y += bias.data
    out = _wrap(y)

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


# ---------------------------------------------------------------------------
# spectral primitives
# ---------------------------------------------------------------------------

def power_autocorrelation(x: Tensor) -> Tensor:
    """Clamped circular autocorrelation along axis -2 of [..., N, D].

    out[m] = max(0, N^(-1/2) * sum_n x[n] * x[(n+m) mod N]), and the
    unclamped sum is Re IDFT(|DFT x|^2)[m] under the orthonormal transforms
    of ``fft``.  With the symmetric DFT matrix written Mr + i*Mi, that is
    Mr((Mr x)^2 + (Mi x)^2): real left-multiplications on ``x`` as it lies.
    With gk the upstream grad zeroed on the clamped lags, the adjoint is
    Mr(gp * Mr x) + Mi(gp * Mi x) with gp = 2 * Mr gk.
    """
    x = _as_tensor(x)
    mr, mi = fft.real_dft_matrices(x.data.shape[-2])
    re = mr @ x.data
    im = mi @ x.data
    power = re * re
    power += im * im
    acf = mr @ power
    keep = acf > 0.0
    np.maximum(acf, 0.0, out=acf)
    out = _wrap(acf)

    def bw():
        gp = mr @ (out.grad * keep)
        gp *= 2.0
        gx = mr @ (gp * re)
        gx += mi @ (gp * im)
        x.accumulate_grad(gx)

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


def _dropout_mask(shape: tuple, p: float, training: bool,
                  rng: Optional[np.random.Generator]) -> Optional[np.ndarray]:
    """Keep mask rng.random(shape) >= p, or None when dropout is off."""
    p = finite_number("dropout probability", p, at_least=0.0, below=1.0)
    if not training or p == 0.0:
        return None
    if rng is None:
        raise ConfigError("dropout with p > 0 in training mode needs an rng")
    return rng.random(shape) >= p


def multi_head_attention(x: Tensor, params: AttentionParams, heads: int,
                         token_axis: int = -2, dropout_p: float = 0.0,
                         training: bool = False,
                         rng: Optional[np.random.Generator] = None) -> Tensor:
    """Scaled dot-product attention over the ``token_axis`` of ``x``.

    ``x`` is [..., D] with its S tokens along ``token_axis``; the other
    axes but the last are batch, and the output keeps the input's layout.
    Dropout, when active, masks the attention probabilities, then the
    output with the next draw, taken with the tokens second-to-last.

    One tape node over ``x`` and the eight projections, which are row GEMMs
    on ``x`` as laid out.  With p the probabilities, pd their dropped-out
    form and gc the context grad, the values get pdᵀ gc; gp = gc vᵀ, masked
    and rescaled, passes through the softmax VJP gs = p * (gp - sum(gp * p))
    and the 1/sqrt(dh) scale, and the queries and keys get gs k and gsᵀ q.
    Each weight grad is one GEMM over the collapsed leading axes.
    """
    x = _as_tensor(x)
    shape = x.data.shape
    d = shape[-1]
    if d % heads != 0:
        raise ConfigError(f"model dim {d} not divisible by {heads} heads")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    token_axis %= x.data.ndim
    wq, bq, wk, bk = params.wq, params.bq, params.wk, params.bk
    wv, bv, wo, bo = params.wv, params.bv, params.wo, params.bo
    x2 = x.data.reshape(-1, d)

    def split(a):                                     # [M, D] -> [..., H, S, dh]
        return np.moveaxis(a.reshape(*shape[:-1], heads, dh),
                           (token_axis, -2), (-2, -3))

    def merge(a):                                     # [..., H, S, dh] -> [M, D]
        return np.moveaxis(a, (-2, -3), (token_axis, -2)).reshape(-1, d)

    def project(w, b):
        a = x2 @ w.data
        a += b.data
        return split(a)

    q, k, v = project(wq, bq), project(wk, bk), project(wv, bv)
    # scores, then softmax in place: [..., H, S, S]
    p = q @ k.swapaxes(-1, -2)
    p *= scale
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    keep = _dropout_mask(p.shape, dropout_p, training, rng)
    pd = p
    if keep is not None:
        rescale = 1.0 / (1.0 - dropout_p)
        pd = p * keep
        pd *= rescale
    merged = merge(pd @ v)
    y = (merged @ wo.data).reshape(shape)
    y += bo.data
    if keep is not None:
        keep_out = np.ascontiguousarray(np.moveaxis(_dropout_mask(
            np.moveaxis(y, token_axis, -2).shape, dropout_p, training, rng),
            -2, token_axis))
        y *= keep_out
        y *= rescale
    out = _wrap(y)

    def bw():
        g = out.grad
        if keep is not None:
            g = g * keep_out
            g *= rescale
        g2 = g.reshape(-1, d)
        if wo.requires_grad:
            wo.accumulate_grad(merged.T @ g2)
        if bo.requires_grad:
            bo.accumulate_grad(_unbroadcast(g, bo.data.shape))
        gc = split(g2 @ wo.data.T)
        gv = pd.swapaxes(-1, -2) @ gc
        gp = gc @ v.swapaxes(-1, -2)
        if keep is not None:
            gp *= keep
            gp *= rescale
        gp -= (gp * p).sum(axis=-1, keepdims=True)
        gp *= p
        gp *= scale
        gq = gp @ k
        gk = (q.swapaxes(-1, -2) @ gp).swapaxes(-1, -2)
        for gh, w, b in ((gv, wv, bv), (gk, wk, bk), (gq, wq, bq)):
            gh = merge(gh)
            if w.requires_grad:
                w.accumulate_grad(x2.T @ gh)
            if b.requires_grad:
                b.accumulate_grad(_unbroadcast(gh.reshape(shape), b.data.shape))
            if x.requires_grad:
                x.accumulate_grad((gh @ w.data.T).reshape(shape))

    _record((x, wq, bq, wk, bk, wv, bv, wo, bo), out, bw)
    return out
