"""Shared utilities for the test suite: gradient checks, slow oracles and
random tiny model configs."""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import json
import struct
from unittest import mock

import numpy as np
from hypothesis import strategies as st

import dctnet.model as model_module
from dctnet import fft, numeric_engine as engine
from dctnet.model import ModelConfig


def naive_dft(x, sign: int = -1):
    """O(n^2) orthonormal transform straight from the definition."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[-1]
    out = np.zeros_like(x)
    for j in range(n):
        acc = 0.0 + 0.0j
        for k in range(n):
            acc += x[..., k] * cmath.exp(sign * 2j * cmath.pi * j * k / n)
        out[..., j] = acc
    return out / np.sqrt(n)


def oracle_attention(x: np.ndarray, p, heads: int) -> np.ndarray:
    """Loop-based multi-head attention over [S, D] tokens, for one instance.

    Written independently of the engine: per-head slices, explicit softmax,
    no shared code paths.
    """
    s, d = x.shape
    dh = d // heads
    q = x @ p.wq.data + p.bq.data
    k = x @ p.wk.data + p.bk.data
    v = x @ p.wv.data + p.bv.data
    merged = np.zeros((s, d))
    for h_i in range(heads):
        sl = slice(h_i * dh, (h_i + 1) * dh)
        scores = (q[:, sl] @ k[:, sl].T) / np.sqrt(dh)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        w = e / e.sum(axis=1, keepdims=True)
        merged[:, sl] = w @ v[:, sl]
    return merged @ p.wo.data + p.bo.data


def assert_rows_stochastic(x: np.ndarray, p, heads: int,
                           token_axis: int = -2, atol: float = 1e-12) -> None:
    """Check through the output that attention weighs each row's values by
    non-negative weights summing to 1.

    With an identity output projection, each output row is its heads'
    weighted sums of the value rows.  Such weights keep it within each
    feature's range over the tokens, and give back the value itself when
    every token has the same one.
    """
    d = x.shape[-1]
    ident = dataclasses.replace(p, wo=engine.Tensor(np.eye(d)),
                                bo=engine.Tensor(np.zeros(d)))

    def attend(q):
        out = engine.multi_head_attention(engine.Tensor(x), q, heads,
                                          token_axis=token_axis).data
        assert np.all(np.isfinite(out))
        return np.moveaxis(out, token_axis, -2)

    values = np.moveaxis(x @ p.wv.data + p.bv.data, token_axis, -2)
    got = attend(ident)
    assert np.all(got >= values.min(axis=-2, keepdims=True) - atol)
    assert np.all(got <= values.max(axis=-2, keepdims=True) + atol)
    shared = attend(dataclasses.replace(ident,
                                        wv=engine.Tensor(np.zeros((d, d)))))
    np.testing.assert_allclose(shared, np.broadcast_to(p.bv.data, got.shape),
                               rtol=0, atol=atol)


def oracle_layer_norm(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                      eps: float = 1e-5) -> np.ndarray:
    """Last-axis standardisation with biased variance, straight numpy."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def reference_layer_norm(x, gain, bias, residual=None):
    """``engine.layer_norm`` as numpy's sum reductions write it: row means
    and variances by ``sum(axis=-1)``, gain and bias grads summed down one
    leading axis at a time.  The row and column kernels must stay within
    1e-13 relative of it."""
    x, gain, bias = (engine._as_tensor(t) for t in (x, gain, bias))
    inputs = (x, gain, bias)
    s = x.data
    if residual is not None:
        residual = engine._as_tensor(residual)
        s = s + residual.data
        inputs = (x, gain, bias, residual)
    d = s.shape[-1]
    xhat = s - s.sum(axis=-1, keepdims=True) / d
    rstd = 1.0 / np.sqrt((xhat * xhat).sum(axis=-1, keepdims=True) / d
                         + engine._LN_EPS)
    xhat *= rstd
    y = xhat * gain.data
    y += bias.data
    out = engine._wrap(y)

    def bw():
        g = out.grad
        takers = [t for t in (x, residual) if t is not None and t.requires_grad]
        if takers:
            gy = g * gain.data
            proj = (gy * xhat).sum(axis=-1, keepdims=True) / d
            gy -= gy.sum(axis=-1, keepdims=True) / d
            gy -= xhat * proj
            gy *= rstd
            for t in takers:
                t.accumulate_grad(gy)
        for t, grad in ((gain, g * xhat), (bias, g)):
            if t.requires_grad:
                while grad.ndim > 1:
                    grad = grad.sum(axis=0)
                t.accumulate_grad(grad)

    engine._record(inputs, out, bw)
    return out


def matmul(a, w, bias=None):
    """[..., K] @ [K, M] (+ bias [M]) as one tape node, on the affine map
    and adjoint that the patch embedding and the head share: every leading
    axis of ``a`` is batch, ``w`` and ``bias`` are shared."""
    a, w = engine._as_tensor(a), engine._as_tensor(w)
    bias = None if bias is None else engine._as_tensor(bias)
    out = engine._wrap(engine._affine(a.data, w, bias))

    def bw():
        ga = engine._affine_vjp(out.grad, a.data, w, bias, a.requires_grad)
        if ga is not None:
            a.accumulate_grad(ga, owned=True)

    engine._record((a, w) if bias is None else (a, w, bias), out, bw)
    return out


def weighted_sum(t, c):
    """sum(t * c) as one tape node, c broadcast to t's shape: the scalar
    loss the gradient checks put on a primitive's output."""
    c = np.broadcast_to(np.asarray(c.data if isinstance(c, engine.Tensor)
                                   else c, dtype=np.float64), t.shape)
    out = engine._wrap(np.asarray((t.data * c).sum()))

    def bw():
        t.accumulate_grad(c * out.grad, owned=True)

    engine._record((t,), out, bw)
    return out


def reference_autocorrelation(x: np.ndarray, keep_state: bool):
    """``engine.autocorrelation`` through the DFT's two real parts:
    Mr((Mr x)^2 + (Mi x)^2), clamped at 0, with the state (Mr x, Mi x,
    unclamped lags)."""
    mr, mi = fft.real_dft_matrices(x.shape[-2])
    re = mr @ x
    im = mi @ x
    acf = mr @ (re * re + im * im)
    state = (re, im, acf > 0.0) if keep_state else None
    return np.maximum(acf, 0.0), state


def reference_autocorrelation_vjp(g: np.ndarray, state) -> np.ndarray:
    """Adjoint of ``reference_autocorrelation``:
    Mr(gp * Mr x) + Mi(gp * Mi x) with gp = 2 Mr(g on the unclamped lags)."""
    re, im, keep = state
    mr, mi = fft.real_dft_matrices(re.shape[-2])
    gp = 2.0 * (mr @ (g * keep))
    return mr @ (gp * re) + mi @ (gp * im)


def assert_close_to_reference(got, want, rtol: float, name: str = "") -> None:
    """max|got - want| within ``rtol`` of max|want|: a relative bound on the
    whole array, which elementwise bounds would not give to entries that
    cancel to near zero."""
    err = float(np.max(np.abs(got - want), initial=0.0))
    scale = float(np.max(np.abs(want), initial=0.0))
    assert err <= rtol * scale, (
        f"{name}: max error {err:.3e} exceeds {rtol:g} x {scale:.3e}")


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar-valued f at x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return g


def check_gradients(build_loss, x0: np.ndarray, rtol: float = 1e-5,
                    atol: float = 1e-7, h: float = 1e-6) -> None:
    """Compare reverse-mode gradients of build_loss against finite differences.

    ``build_loss`` maps a Tensor to a scalar Tensor and must be deterministic.
    """
    check_gradients_jointly(build_loss, [x0], rtol=rtol, atol=atol, h=h)


def check_gradients_jointly(build_loss, arrays, rtol: float = 1e-5,
                            atol: float = 1e-7, h: float = 1e-6) -> None:
    """``check_gradients`` for a loss of several leaves, all taped at once.

    ``build_loss`` takes one Tensor per array; each leaf's reverse-mode
    gradient is compared with finite differences in that leaf alone.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    leaves = [engine.Tensor(a.copy(), requires_grad=True) for a in arrays]
    with engine.Tape() as tape:
        loss = build_loss(*leaves)
        engine.backward(loss, tape)
    for i, (leaf, a) in enumerate(zip(leaves, arrays)):
        assert leaf.grad is not None, f"no gradient reached leaf {i}"

        def f(arr, i=i):
            args = [engine.Tensor(arr if j == i else b)
                    for j, b in enumerate(arrays)]
            return float(build_loss(*args).data)

        expected = numeric_grad(f, a.copy(), h=h)
        np.testing.assert_allclose(leaf.grad, expected, rtol=rtol, atol=atol,
                                   err_msg=f"leaf {i}")


def rewrite_header(path, edit):
    """Replace a saved checkpoint's JSON header with ``edit(header)``."""
    raw = path.read_bytes()
    n = struct.unpack("<Q", raw[8:16])[0]
    header = edit(json.loads(raw[16:16 + n]))
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob
                     + raw[16 + n:])


def repeat_tensor(path, name, value):
    """List a saved checkpoint's tensor ``name`` a second time, at the end
    of the header and of the file, every entry of it ``value``."""
    shape = []

    def edit(header):
        entry, = (e for e in header["tensors"] if e["name"] == name)
        shape.extend(entry["shape"])
        header["tensors"].append(dict(entry))
        return header

    rewrite_header(path, edit)
    with open(path, "ab") as fh:
        fh.write(np.full(shape, value, dtype="<f8").tobytes())


@st.composite
def tiny_configs(draw):
    """Small valid ModelConfigs: every shape, depth and dropout field varies.

    latent_dim is at least 2, the smallest width a layer norm learns in.
    """
    heads = draw(st.integers(1, 2))
    patch_len = draw(st.integers(1, 4))
    return ModelConfig(
        channels=draw(st.integers(1, 3)),
        seq_len=draw(st.integers(patch_len, 10)),
        pred_len=draw(st.integers(1, 4)), patch_len=patch_len,
        stride=draw(st.integers(1, 4)),
        latent_dim=heads * draw(st.integers(2 // heads, 3)), heads=heads,
        depth=draw(st.integers(1, 2)),
        dropout=draw(st.sampled_from([0.0, 0.1, 0.5])),
        seed=draw(st.integers(0, 2**16)))


# the function in dctnet.model that each ablation switch bypasses
STAGE_FUNCTIONS = {"dbct": "fuse_branches", "gpaf": "global_patch_attention",
                   "fsc": "apply_correction"}


@contextlib.contextmanager
def stages_passing_input(stages, calls=None):
    """dctnet.model's function for each of ``stages`` replaced by one that
    returns its input, as a bypass does: the correction's with alpha
    exactly 1.  Each call of a replacement appends its stage to ``calls``."""
    def stand_in(which):
        def stage(h, *args, **kwargs):
            if calls is not None:
                calls.append(which)
            if which == "fsc":
                return h, engine._wrap(np.ones(h.shape[:2] + (1, 1)))
            return h
        return stage

    with contextlib.ExitStack() as stack:
        for which in stages:
            stack.enter_context(mock.patch.object(
                model_module, STAGE_FUNCTIONS[which], stand_in(which)))
        yield


def _with_metadata(**fields):
    def edit(header):
        header["metadata"].update(fields)
        return header
    return edit


def _metadata_is(value):
    def edit(header):
        header["metadata"] = value
        return header
    return edit


# checkpoint header edits that checkpoint_load refuses; each name starts
# with the record key it spoils (see RECORD_KEY)
BAD_METADATA = {
    "metadata_number": _metadata_is(7),
    "metadata_list": _metadata_is(["norm_mean", "norm_std"]),
    "mean_string": _with_metadata(norm_mean="0.0,0.0"),
    "mean_wrong_length": _with_metadata(norm_mean=[0.0, 0.0, 0.0]),
    "mean_nested": _with_metadata(norm_mean=[[0.0, 0.0]]),
    "mean_bool": _with_metadata(norm_mean=[True, 0.0]),
    "mean_huge_int": _with_metadata(norm_mean=[10**400, 0.0]),
    "std_nan": _with_metadata(norm_std=[float("nan"), 1.0]),
    "std_infinite": _with_metadata(norm_std=[float("inf"), 1.0]),
    "std_zero": _with_metadata(norm_std=[0.0, 1.0]),
    "std_negative": _with_metadata(norm_std=[1.0, -2.0]),
    "stride_string": _with_metadata(window_stride="x"),
    "stride_zero": _with_metadata(window_stride=0),
    "stride_float": _with_metadata(window_stride=1.5),
    "ratios_number": _with_metadata(split_ratios=5),
    "ratios_wrong_length": _with_metadata(split_ratios=[6.0, 2.0]),
    "ratios_nonpositive": _with_metadata(split_ratios=[6.0, 0.0, 2.0]),
}
RECORD_KEY = {"metadata": "metadata", "mean": "norm_mean", "std": "norm_std",
              "stride": "window_stride", "ratios": "split_ratios"}

# edits that load, since each key is checked on its own, but leave no
# statistics to forecast with
LACKS_STATS = {
    "std_missing": lambda h: {**h, "metadata": {
        k: v for k, v in h["metadata"].items() if k != "norm_std"}},
}


def retyped_shape(name, cast):
    """A header edit that stores each extent of tensor ``name`` as
    ``cast(extent)``."""
    def edit(header):
        for row in header["tensors"]:
            if row["name"] == name:
                row["shape"] = [cast(n) for n in row["shape"]]
        return header
    return edit


# tensor shapes that equal the saved ones as tuples, since 2.0 == 2, but
# are not lists of ints, which numpy's reshape refuses: case -> (tensor,
# header edit)
MISTYPED_SHAPES = {name: (name, retyped_shape(name, float))
                   for name in ("revin.gamma", "embed.weight")}


def reference_clip(grads: dict, max_norm) -> float:
    """Global-norm clipping one gradient array per parameter name: squares
    summed per tensor, the tensor sums added in order, each array replaced
    by its scaled copy when the norm exceeds ``max_norm``.  The flat
    ``trainer.clip_global_norm`` must give the same bits."""
    total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
    if max_norm is not None and total > max_norm and total > 0.0:
        scale = max_norm / total
        for name in grads:
            grads[name] = grads[name] * scale
    return total


@dataclasses.dataclass
class ReferenceAdam:
    """Adam (Kingma & Ba, 2015) with one m and v array per parameter name,
    stepping each tensor on its own.  The flat ``trainer.adam_step`` must
    give the same bits."""

    lr: float
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_params(cls, params: dict, lr: float) -> "ReferenceAdam":
        return cls(lr, {k: np.zeros_like(t.data) for k, t in params.items()},
                   {k: np.zeros_like(t.data) for k, t in params.items()})

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, tensor in params.items():
            g = grads[name]
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * (g * g)
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            tensor.data = tensor.data - self.lr * m_hat / (np.sqrt(v_hat)
                                                           + eps)
