"""Dense float64 tensors with reverse-mode differentiation.

A ``Tensor`` wraps a row-major numpy array plus an optional gradient slot.
Operations executed while a ``Tape`` is active append adjoint closures to
it; ``backward`` replays the tape in reverse to populate ``grad`` on every
leaf that requires it.  With no active tape the same functions are plain
numpy computations, which is how evaluation-mode forwards run.  Each
thread has its own stack of active tapes, so a tape records only the ops
of the thread that entered it.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, ContractError, finite_number, whole_number
from . import fft

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Hart (1968), algorithm 5666: Phi's tail is exp(-u**2 / 2) P(u) / Q(u),
# coefficients by ascending power of u
_HART_P = (220.206867912376, 221.213596169931, 112.079291497871,
           33.912866078383, 6.37396220353165, 0.700383064443688,
           0.0352624965998911)
_HART_Q = (440.413735824752, 793.826512519948, 637.333633378831,
           296.564248779674, 86.7807322029461, 16.064177579207,
           1.75566716318264, 0.0883883476483184)
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

    def accumulate_grad(self, g: np.ndarray, owned: bool = False) -> None:
        """Add ``g`` into ``grad``; later writes add in place.

        The first write stores ``g`` itself when ``owned`` and a copy
        otherwise.  Only a VJP that has just allocated ``g`` as a float64
        array of this tensor's shape, and hands it to no other input, may
        pass ``owned=True``.  An upstream grad, a view or broadcast of one,
        or an array that also reaches another input is copied, since later
        writes add into the stored buffer.
        """
        if self.grad is None:
            # 0-d arithmetic returns numpy scalars, which are stored as arrays
            self.grad = (g if owned and isinstance(g, np.ndarray)
                         else np.array(g, dtype=np.float64))
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
        _TAPES.stack.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _TAPES.stack.pop()


class _ThreadTapes(threading.local):
    """The calling thread's stack of active tapes."""

    def __init__(self):
        self.stack: list[Tape] = []


_TAPES = _ThreadTapes()


def active_tape() -> Optional[Tape]:
    stack = _TAPES.stack
    return stack[-1] if stack else None


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


def _records(inputs: Sequence[Tensor]) -> bool:
    """Whether an op on ``inputs`` is recorded: a tape is active and some
    input requires grad."""
    return bool(_TAPES.stack) and any(t.requires_grad for t in inputs)


def _record(inputs: Sequence[Tensor], out: Tensor, backward_fn) -> None:
    """Append a node when a tape is active and some input requires grad."""
    if _records(inputs):
        out.requires_grad = True
        _TAPES.stack[-1]._nodes.append((out, backward_fn))


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


# Row and column reductions of [..., D] arrays, each one einsum contraction
# over C-contiguous operands.  A row's sum runs in the same inner loop
# whatever the number of rows, so it does not depend on the block the row
# comes in.  A GEMV against ones blocks its sums across rows, and einsum's
# ``optimize`` may hand a contraction to BLAS, so neither is used.

def _row_sums(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, kept with extent 1."""
    return np.einsum("...i->...", np.ascontiguousarray(a))[..., None]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sums of a * b over the last axis, kept with extent 1."""
    return np.einsum("...i,...i->...", np.ascontiguousarray(a),
                     np.ascontiguousarray(b))[..., None]


def _col_sums(a: np.ndarray) -> np.ndarray:
    """Sums over every leading axis: [D]."""
    a = np.ascontiguousarray(a)
    return np.einsum("ri->i", a.reshape(-1, a.shape[-1]))


def _col_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sums of a * b over every leading axis: [D]."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    d = a.shape[-1]
    return np.einsum("ri,ri->i", a.reshape(-1, d), b.reshape(-1, d))


# ---------------------------------------------------------------------------
# elementwise, affine and shape primitives
# ---------------------------------------------------------------------------

def _normal_cdf(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phi(a), the standard normal CDF, and exp(-a**2 / 2) of a float64 array.

    Hart's rational form (algorithm 5666): with u = |a| clamped to 40, the
    tail is t = exp(-u**2 / 2) P(u) / Q(u), and Phi = 0.5 + sign(a) (0.5 - t).
    Phi is within 2.2e-16 of the exact value everywhere, and NaN stays NaN.
    The clamp keeps u**7 finite and inf out of P / Q; past it both t and
    exp(-a**2 / 2) are 0 in float64 anyway.
    """
    # on a 1-d view, since a ufunc on a 0-d array returns a scalar, which
    # the in-place steps cannot write into
    flat = a.reshape(-1)
    u = np.abs(flat)
    np.minimum(u, 40.0, out=u)
    phi = _horner(_HART_P, u)
    phi /= _horner(_HART_Q, u)
    gauss = np.square(u, out=u)
    gauss *= -0.5
    np.exp(gauss, out=gauss)
    phi *= gauss
    np.subtract(0.5, phi, out=phi)
    np.copysign(phi, flat, out=phi)
    phi += 0.5
    return phi.reshape(a.shape), gauss.reshape(a.shape)


def _horner(coeffs: tuple, u: np.ndarray) -> np.ndarray:
    """The polynomial with ``coeffs`` (ascending powers) at ``u``."""
    acc = np.multiply(u, coeffs[-1])
    for c in coeffs[-2:0:-1]:
        acc += c
        acc *= u
    acc += coeffs[0]
    return acc


def gelu(a: Tensor) -> Tensor:
    """x * Phi(x), the exact GELU, with Phi from ``_normal_cdf``: Hart's
    algorithm 5666, within 2.2e-16 of the erf form."""
    a = _as_tensor(a)
    phi, gauss = _normal_cdf(a.data)
    out = _wrap(a.data * phi)

    def bw():
        # d/da a Phi(a) = Phi(a) + a pdf(a), pdf from the forward's exp
        g = np.multiply(gauss, _INV_SQRT_2PI)
        g *= a.data
        g += phi
        g *= out.grad
        a.accumulate_grad(g, owned=True)

    _record((a,), out, bw)
    return out


def _affine(a: np.ndarray, w: Tensor, bias: Optional[Tensor]) -> np.ndarray:
    """a @ w (+ bias) for [..., K] @ [K, M] and a bias [M]; any other shape
    is a ``ContractError`` naming both."""
    if w.data.ndim != 2 or a.shape[-1:] != w.data.shape[:1]:
        raise ContractError(
            f"affine map expects [..., K] @ [K, M], got {a.shape} and "
            f"{w.data.shape}"
        )
    y = np.matmul(a, w.data)
    if bias is None:
        return y
    if bias.data.shape != w.data.shape[1:]:
        raise ContractError(f"affine bias is {bias.data.shape}, expected "
                            f"{w.data.shape[1:]}")
    # a new array, not +=: the in-place add changed glibc's heap placement
    # in a B=64 eval forward and raised its peak RSS 3.4 MB
    return y + bias.data


def _affine_vjp(g: np.ndarray, a: np.ndarray, w: Tensor,
                bias: Optional[Tensor], input_grad: bool
                ) -> Optional[np.ndarray]:
    """Adjoint of ``_affine(a, w, bias)`` for the upstream grad ``g``: adds
    w's grad, one GEMM over the collapsed leading axes, and bias's column
    sums, and returns a fresh g @ wᵀ for ``a`` when ``input_grad``."""
    if w.requires_grad:
        k, m = w.data.shape
        w.accumulate_grad(a.reshape(-1, k).T @ g.reshape(-1, m), owned=True)
    if bias is not None and bias.requires_grad:
        bias.accumulate_grad(_col_sums(g), owned=True)
    return g @ w.data.T if input_grad else None


def patch_mix(x: Tensor, w: Tensor) -> Tensor:
    """wᵀ applied over the patch axis of [..., N, D]:
    out[..., n, d] = sum_m x[..., m, d] * w[m, n].

    One left-multiply on ``x`` as it lies, with no transpose around it.  The
    adjoints are w @ g for ``x`` and, for ``w``, one GEMM over the
    patch-major reshapes of ``x`` and the upstream grad.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    n = x.data.shape[-2]
    if w.data.shape != (n, n):
        raise ContractError(
            f"patch_mix expects an [N, N] weight for {n} patches, got "
            f"{w.data.shape}"
        )
    out = _wrap(np.matmul(w.data.T, x.data))

    def bw():
        g = out.grad
        if x.requires_grad:
            x.accumulate_grad(np.matmul(w.data, g), owned=True)
        if w.requires_grad:
            nd = g.ndim
            patch_first = (nd - 2, *range(nd - 2), nd - 1)
            xm = x.data.transpose(patch_first).reshape(n, -1)
            gm = g.transpose(patch_first).reshape(n, -1)
            w.accumulate_grad(xm @ gm.T, owned=True)

    _record((x, w), out, bw)
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
        gx = np.zeros_like(x.data)
        gx_t = gx.transpose(0, 2, 1)                  # [B, C, L] view
        for i in range(n):                            # one slice-add per patch
            gx_t[:, :, i * stride:i * stride + patch_len] += out.grad[:, :, i]
        x.accumulate_grad(gx, owned=True)

    _record((x,), out, bw)
    return out


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------

def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               residual: Optional[Tensor] = None) -> Tensor:
    """Per-last-axis standardisation (biased variance) with affine gain/bias,
    of ``x`` or, given a ``residual`` of the same shape, of x + residual.

    One tape node.  With xhat = (s - mean) * rstd for the normalised sum s
    and gy = g * gain, the adjoint is
    rstd * (gy - mean(gy) - xhat * mean(gy * xhat)) for x and the residual
    alike, sum(g * xhat) for gain and sum(g) for bias.  ``gain`` and
    ``bias`` are [D] for the last axis's extent D; each mean and sum is one
    row or column kernel.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    feature = x.data.shape[-1:]
    if not feature or gain.data.shape != feature or bias.data.shape != feature:
        raise ContractError(f"layer_norm gain and bias must be {feature} for "
                            f"input {x.data.shape}, got {gain.data.shape} "
                            f"and {bias.data.shape}")
    d = feature[0]
    inputs = (x, gain, bias)
    s = x.data
    if residual is not None:
        residual = _as_tensor(residual)
        if residual.data.shape != s.shape:
            raise ContractError(f"layer_norm residual is "
                                f"{residual.data.shape}, input is {s.shape}")
        s = s + residual.data
        inputs = (x, gain, bias, residual)
    xhat = np.subtract(s, _row_sums(s) / d, order="C")
    rstd = 1.0 / np.sqrt(_row_dots(xhat, xhat) / d + _LN_EPS)
    xhat *= rstd
    y = xhat * gain.data
    y += bias.data
    out = _wrap(y)

    def bw():
        g = out.grad
        takers = [t for t in (x, residual) if t is not None and t.requires_grad]
        if takers:
            gy = np.multiply(g, gain.data, order="C")
            proj = _row_dots(gy, xhat) / d
            gy -= _row_sums(gy) / d
            gy -= xhat * proj
            gy *= rstd
            for i, t in enumerate(takers):        # the last one keeps gy
                t.accumulate_grad(gy, owned=i == len(takers) - 1)
        if gain.requires_grad:
            gain.accumulate_grad(_col_dots(g, xhat), owned=True)
        if bias.requires_grad:
            bias.accumulate_grad(_col_sums(g), owned=True)

    _record(inputs, out, bw)
    return out


# ---------------------------------------------------------------------------
# spectral primitives
# ---------------------------------------------------------------------------

def autocorrelation(x: np.ndarray, keep_state: bool
                    ) -> tuple[np.ndarray, Optional[tuple]]:
    """Clamped circular autocorrelation along axis -2 of [..., N, D], and the
    state ``autocorrelation_vjp`` needs, or None unless ``keep_state``.

    out[m] = max(0, N^(-1/2) * sum_n x[n] * x[(n+m) mod N]), and the
    unclamped sum is Re IDFT(|DFT x|^2)[m] under the orthonormal transforms
    of ``fft``.  With the symmetric DFT matrix written Mr + i*Mi, that is
    Mr((Mr x)^2 + (Mi x)^2).  The Hartley transform z = Hx, H = Mr - Mi,
    has z[k]^2 + z[-k]^2 = 2 |DFT x|^2[k], and Mr is even in k, so the lags
    are Mr(z^2) (Bracewell, 1983): two real left-multiplications on ``x``
    as it lies.  The state is z and the mask of unclamped lags, one array
    of x's size and one of booleans, so an untaped caller should not keep
    it.
    """
    n = x.shape[-2]
    z = fft.hartley_matrix(n) @ x
    acf = fft.real_dft_matrices(n)[0] @ (z * z)
    state = (z, acf > 0.0) if keep_state else None
    np.maximum(acf, 0.0, out=acf)
    return acf, state


def autocorrelation_vjp(g: np.ndarray, state: tuple) -> np.ndarray:
    """Adjoint of ``autocorrelation`` for the upstream grad ``g``, a fresh
    array.  With gk = g zeroed on the clamped lags, it is
    H(2z * Mr gk), since Mr and H are symmetric."""
    z, keep = state
    n = z.shape[-2]
    gz = fft.real_dft_matrices(n)[0] @ (g * keep)
    gz *= 2.0
    gz *= z
    return fft.hartley_matrix(n) @ gz


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


def _row_max(a: np.ndarray) -> np.ndarray:
    """Maxima over the short last axis of ``a``, keeping it with extent 1:
    one call per column, where a reduce over that axis would make one
    inner-loop call per row."""
    acc = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        np.maximum(acc, a[..., j], out=acc)
    return acc[..., None]


def _token_axes(ndim: int, token_axis: int
                ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose that moves ``token_axis`` of an ``ndim``-axis array to
    second-to-last, keeping the other axes in order, and its inverse: what
    np.moveaxis(a, token_axis, -2) and np.moveaxis(b, -2, token_axis)
    compute, without their per-call axis checks."""
    to_back = [a for a in range(ndim) if a != token_axis]
    to_back.insert(ndim - 2, token_axis)
    back = [0] * ndim
    for i, a in enumerate(to_back):
        back[a] = i
    return tuple(to_back), tuple(back)


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
    The query, key and value grads lie side by side in one [M, 3D] buffer,
    so the input grad, the three weight grads and the three bias grads are
    one GEMM, one GEMM and one sum.
    """
    x = _as_tensor(x)
    shape = x.data.shape
    d = shape[-1]
    heads = whole_number("heads", heads, at_least=1)
    if d % heads != 0:
        raise ConfigError(f"model dim {d} not divisible by {heads} heads")
    dh = d // heads
    scale = 1.0 / math.sqrt(dh)
    token_axis %= x.data.ndim
    if token_axis == x.data.ndim - 1:
        raise ContractError("attention tokens cannot lie along the feature "
                            "axis")
    wq, bq, wk, bk = params.wq, params.bq, params.wk, params.bk
    wv, bv, wo, bo = params.wv, params.bv, params.wo, params.bo
    x2 = x.data.reshape(-1, d)

    # [..., H, dh] with the tokens moved second-to-last is [..., H, S, dh]
    to_heads, from_heads = _token_axes(len(shape) + 1, token_axis)

    def split(a):                                     # [M, D] -> [..., H, S, dh]
        return a.reshape(*shape[:-1], heads, dh).transpose(to_heads)

    def merge(a):                                     # [..., H, S, dh] -> [M, D]
        return a.transpose(from_heads).reshape(-1, d)

    def project(w, b):
        a = x2 @ w.data
        a += b.data
        return split(a)

    q, k, v = project(wq, bq), project(wk, bk), project(wv, bv)
    # scores, then softmax in place: [..., H, S, S]
    p = q @ k.swapaxes(-1, -2)
    p *= scale
    p -= _row_max(p)
    np.exp(p, out=p)
    p /= _row_sums(p)
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
        to_back, back = _token_axes(len(shape), token_axis)
        keep_out = np.ascontiguousarray(_dropout_mask(
            tuple(shape[a] for a in to_back), dropout_p, training,
            rng).transpose(back))
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
            wo.accumulate_grad(merged.T @ g2, owned=True)
        if bo.requires_grad:
            bo.accumulate_grad(_col_sums(g), owned=True)
        gc = split(g2 @ wo.data.T)
        gp = gc @ v.swapaxes(-1, -2)
        if keep is not None:
            gp *= keep
            gp *= rescale
        gp -= _row_dots(gp, p)
        gp *= p
        gp *= scale
        # the query, key and value grads, merged in place into column
        # blocks of one [M, 3D] buffer
        qkv = np.empty((x2.shape[0], 3 * d))
        slot = qkv.reshape(*shape[:-1], 3, heads, dh)
        np.matmul(gp, k, out=split(slot[..., 0, :, :]))
        np.matmul(gp.swapaxes(-1, -2), q, out=split(slot[..., 1, :, :]))
        np.matmul(pd.swapaxes(-1, -2), gc, out=split(slot[..., 2, :, :]))
        projections = ((wq, bq), (wk, bk), (wv, bv))
        gw = x2.T @ qkv
        gb = _col_sums(qkv)
        for i, (w, b) in enumerate(projections):
            cols = slice(i * d, (i + 1) * d)
            if w.requires_grad:
                w.accumulate_grad(gw[:, cols])
            if b.requires_grad:
                b.accumulate_grad(gb[cols])
        if x.requires_grad:
            w_qkv = np.concatenate([w.data for w, _ in projections], axis=1)
            x.accumulate_grad((qkv @ w_qkv.T).reshape(shape), owned=True)

    _record((x, wq, bq, wk, bk, wv, bv, wo, bo), out, bw)
    return out
