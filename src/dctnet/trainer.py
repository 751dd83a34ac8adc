"""Losses, Adam, and the training loop.

Training is mini-batch gradient descent on MSE between denormalised
forecasts and raw-scale targets, with deterministic shuffling, gradient
clipping, validation after every epoch, best-parameter retention, and
patience-based early stopping.  Every random draw derives from the run
seed, so a rerun reproduces the loss trajectory bit for bit.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import model
from . import numeric_engine as engine
from .numeric_engine import Tape, Tensor, backward
from .data_io import WindowedDataset
from .errors import (ContractError, DataError, SingularityError, TrainingError,
                     finite_number, whole_number)
from .model import DCTNetParams, ModelConfig, forward
from .rng import make_rng

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
_SQRT_MAX = math.sqrt(np.finfo(np.float64).max)   # larger entries square to inf


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean squared error over every element; a differentiable scalar
    recorded as one tape node, whose adjoint is 2 * (pred - target) / n."""
    target = target if isinstance(target, Tensor) else Tensor(target)
    if pred.shape != target.shape:
        raise ContractError(
            f"prediction shape {pred.shape} != target shape {target.shape}"
        )
    diff = pred.data - target.data
    scale = 1.0 / diff.size
    loss = engine._wrap(np.asarray((diff * diff).sum() * scale))

    def bw():
        g = diff * (2.0 * (loss.grad * scale))
        if pred.requires_grad:
            pred.accumulate_grad(g, owned=not target.requires_grad)
        if target.requires_grad:
            target.accumulate_grad(-g, owned=True)

    engine._record((pred, target), loss, bw)
    return loss


@dataclass
class OptimizerState:
    """Adam learning rate, step count and moments.  ``m`` and ``v`` are one
    float64 vector each, laid out like ``flatten_grads``'s vector."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: dict[str, Tensor], lr: float) -> "OptimizerState":
        n = sum(t.data.size for t in params.values())
        return cls(lr=finite_number("learning rate", lr, at_least=0.0),
                   m=np.zeros(n), v=np.zeros(n))


def flatten_grads(params: dict[str, Tensor],
                  grads: dict[str, np.ndarray]) -> np.ndarray:
    """Each parameter's gradient raveled, concatenated in the registry order
    of ``params``: the one vector ``clip_global_norm`` and ``adam_step``
    take.  A missing gradient, or one whose shape is not its parameter's,
    is a ``ContractError``, since it would shift every later slice."""
    for name, tensor in params.items():
        if name not in grads:
            raise ContractError(f"no gradient supplied for {name!r}")
        got = np.shape(grads[name])
        if got != tensor.data.shape:
            raise ContractError(f"gradient for {name!r} is {got}, the "
                                f"parameter is {tensor.data.shape}")
    return np.concatenate([grads[k] for k in params], axis=None,
                          dtype=np.float64)


def adam_step(params: dict[str, Tensor], grad: np.ndarray,
              state: OptimizerState) -> None:
    """One Adam update over the flat gradient ``grad`` of ``params``.

    m, v and the parameter vector are fresh arrays each step, and every
    parameter's ``data`` is rebound to a view of its slice of the new
    parameter vector.  Long-lived arrays allocated this late in a step keep
    glibc from trimming the freed activations below them; updating in
    place made every step fault those pages back in.  Elementwise, each
    value is the per-tensor update's to the bit.
    """
    if grad.shape != state.m.shape:
        raise ContractError(f"gradient vector is {grad.shape}, the "
                            f"optimizer holds {state.m.shape}")
    state.t += 1
    b1, b2 = _ADAM_BETA1, _ADAM_BETA2
    m = b1 * state.m
    m += (1.0 - b1) * grad
    v = grad * grad
    v *= 1.0 - b2
    v += b2 * state.v
    state.m, state.v = m, v
    den = v / (1.0 - b2 ** state.t)
    np.sqrt(den, out=den)
    den += _ADAM_EPS
    step = m / (1.0 - b1 ** state.t)
    step *= state.lr
    step /= den
    theta = np.concatenate([t.data for t in params.values()], axis=None)
    theta -= step
    off = 0
    for tensor in params.values():
        n = tensor.data.size
        tensor.data = theta[off:off + n].reshape(tensor.data.shape)
        off += n


def _sum_of_squares(grad: np.ndarray, sizes: Sequence[int]) -> float:
    """Squares summed per slice, the slice sums added left to right."""
    sq = grad * grad
    total = 0.0
    off = 0
    for n in sizes:
        total += float(sq[off:off + n].sum())
        off += n
    return total


def clip_global_norm(grad: np.ndarray, sizes: Sequence[int],
                     max_norm: Optional[float]) -> float:
    """Scale the flat gradient in place so its L2 norm is at most max_norm.

    ``sizes`` are the lengths of its parameter slices, in order; the squares
    are summed per slice, as a per-tensor norm sums them.  Returns the
    pre-clip norm, and leaves ``grad`` as it is when that norm is not
    finite.  max_norm None disables clipping.  When the squares of
    finite entries overflow, the norm is taken of the vector scaled by a
    power of two that brings its largest entry below 1, and scaled back.
    """
    with np.errstate(over="ignore"):
        total = math.sqrt(_sum_of_squares(grad, sizes))
        if total == math.inf and np.isfinite(grad).all():
            _, k = np.frexp(np.abs(grad).max())
            total = float(np.ldexp(math.sqrt(_sum_of_squares(
                np.ldexp(grad, -k), sizes)), k))
    if max_norm is not None and max_norm < total < math.inf and total > 0.0:
        grad *= max_norm / total
    return total


@dataclass
class TrainSettings:
    """Loop hyperparameters; shuffling and dropout draw from the model
    config's seed, the one run seed."""

    lr: float = 1e-4
    epochs: int = 10
    batch_size: int = 32
    patience: int = 3
    clip_norm: Optional[float] = 5.0

    def __post_init__(self):
        self.epochs = whole_number("epochs", self.epochs, at_least=1)
        self.batch_size = whole_number("batch_size", self.batch_size,
                                       at_least=1)
        self.patience = whole_number("patience", self.patience, at_least=0)
        self.lr = finite_number("lr", self.lr, at_least=0.0)
        if self.clip_norm is not None:
            self.clip_norm = finite_number("clip_norm", self.clip_norm,
                                           above=0.0)


@dataclass
class TrainReport:
    """Loss trajectory and outcome of one fit call."""

    train_loss: list[float]
    val_mse: list[float]
    val_mae: list[float]
    best_epoch: int
    epochs_run: int
    seed: int
    config: dict


@dataclass
class EvalResult:
    """Aggregate metrics of eval-mode forwards over one dataset."""

    mse: float
    mae: float
    alpha_mean: float
    num_windows: int


def evaluate(params: DCTNetParams, cfg: ModelConfig, dataset: WindowedDataset,
             batch_size: int = 64) -> EvalResult:
    """MSE/MAE over every window of the dataset, plus the mean correction factor.

    Errors are summed per batch of ``batch_size`` windows, each one eval-mode
    ``forward``, which runs it in cache-sized blocks.  A forecast or a score
    that overflows float64 is a ``DataError`` naming the split.
    """
    batch_size = whole_number("batch_size", batch_size, at_least=1)
    _check_windows(dataset, cfg)
    sq_sum = abs_sum = alpha_sum = 0.0
    for start in range(0, len(dataset), batch_size):
        xb = dataset.inputs[start:start + batch_size]
        try:
            fc = forward(xb, params, cfg)
        except DataError as exc:
            raise DataError(f"{dataset.split} split, windows {start}-"
                            f"{start + len(xb) - 1}: {exc}") from exc
        # the values stay held by ``fc``: numpy would reuse a temporary's
        # buffer, and its layout, for ``err``, and the sums below would then
        # run in another order
        err = fc.values.data - dataset.targets[start:start + batch_size]
        sq_sum += float((err * err).sum())
        abs_sum += float(np.abs(err).sum())
        alpha_sum += float(np.sum(fc.alpha.data))
    if not np.isfinite(sq_sum):         # mae overflows only if mse does
        raise DataError(f"{dataset.split} split: mse overflows float64")
    count = dataset.targets.size
    return EvalResult(mse=sq_sum / count, mae=abs_sum / count,
                      alpha_mean=alpha_sum / (len(dataset) * cfg.channels),
                      num_windows=len(dataset))


def _check_windows(dataset: WindowedDataset, cfg: ModelConfig) -> None:
    """A ``DataError`` naming the split unless it holds windows, each
    [L, C] -> [T, C] as ``cfg`` runs them."""
    if len(dataset) == 0:
        raise DataError(f"{dataset.split} dataset has no windows")
    want = ((cfg.seq_len, cfg.channels), (cfg.pred_len, cfg.channels))
    got = (dataset.inputs.shape[1:], dataset.targets.shape[1:])
    if got != want:
        raise DataError(f"{dataset.split} windows are {got[0]} -> {got[1]}, "
                        f"config needs {want[0]} -> {want[1]}")


def _snapshot(params: DCTNetParams) -> dict[str, np.ndarray]:
    return {k: t.data.copy() for k, t in params.named_parameters().items()}


def _restore(params: DCTNetParams, snap: dict[str, np.ndarray]) -> None:
    for k, t in params.named_parameters().items():
        t.data = snap[k].copy()


def _train_step(params: DCTNetParams, cfg: ModelConfig, xb: np.ndarray,
                yb: np.ndarray, epoch: int, step: int
                ) -> tuple[list[Tape], float, np.ndarray]:
    """The tapes, loss and flat gradient of one train step on ``xb``, ``yb``.

    A batch of more windows than ``model._block_rows(cfg)``, the block an
    untaped ``forward`` would cut it into, runs as two halves on
    ``model._run_parts``'s threads.  Each half runs over shadow leaves of
    ``params`` and draws its dropout from its own stream; the halves'
    losses and gradients are weighted by rows / B and summed in half order.
    The split depends on shapes alone, so the result does not depend on the
    number of threads.  Any other batch runs as one part on ``params`` with
    the step's dropout stream.  The tapes hold the step's activations; the
    caller keeps them until its Adam update has run.
    """
    where = f"epoch {epoch}, step {step}"
    b = len(xb)
    if b <= model._block_rows(cfg):
        tape, loss, grad = _train_part(params, cfg, xb, yb, make_rng(
            cfg.seed, "dropout", epoch, step), where)
        return [tape], loss, grad
    half = (b + 1) // 2
    cuts = (slice(0, half), slice(half, b))
    shadows = [_shadow(params) for _ in cuts]
    (tape0, loss0, grad), (tape1, loss1, grad1) = model._run_parts(
        2, lambda i: _train_part(shadows[i], cfg, xb[cuts[i]], yb[cuts[i]],
                                 make_rng(cfg.seed, "dropout", epoch, step, i),
                                 where))
    w0, w1 = half / b, (b - half) / b
    grad *= w0
    grad += w1 * grad1
    return [tape0, tape1], w0 * loss0 + w1 * loss1, grad


def _shadow(params: DCTNetParams) -> DCTNetParams:
    """A copy of ``params`` whose leaf tensors are new but share the
    parameters' arrays, so that a part's gradients land on its own leaves.
    Made afresh each step, since Adam rebinds every parameter's array."""
    return copy.deepcopy(params, {id(t.data): t.data
                                  for t in params.registry.values()})


def _train_part(params: DCTNetParams, cfg: ModelConfig, x: np.ndarray,
                y: np.ndarray, rng: np.random.Generator, where: str
                ) -> tuple[Tape, float, np.ndarray]:
    """Forward, loss and backward of windows ``x`` on a tape of their own:
    the tape, the loss and the flat gradient of ``params``."""
    registry = params.named_parameters()
    with engine.Tape() as tape:
        try:
            fc = forward(x, params, cfg, training=True, rng=rng)
        except (DataError, SingularityError) as exc:
            raise TrainingError(f"{where}: {exc}") from exc
        loss = mse_loss(fc.values, y)
    loss_val = float(loss.data)
    if not np.isfinite(loss_val):
        raise TrainingError(f"{where}: non-finite loss")
    backward(loss, tape)
    return tape, loss_val, flatten_grads(registry, {
        k: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for k, t in registry.items()})


def fit(params: DCTNetParams, cfg: ModelConfig, train: WindowedDataset,
        val: WindowedDataset, settings: Optional[TrainSettings] = None,
        log: Optional[Callable[[str], None]] = print
        ) -> tuple[DCTNetParams, TrainReport]:
    """Train in place; parameters end at the best-validation snapshot.

    Epoch flow: shuffle train windows from the run seed, step Adam per
    mini-batch on clipped gradients (a large mini-batch runs as two halves,
    see ``_train_step``), then score the validation split in eval mode.
    The best validation MSE's parameters are kept; training stops early
    after ``patience`` consecutive epochs without improvement.
    A non-finite forecast, loss or pre-clip gradient norm, a clipped
    gradient entry whose square overflows float64, or a revin gain too
    small to invert, raises ``TrainingError`` naming the epoch and step (or
    the epoch's validation), before Adam touches the parameters or its
    moments; so does a validation score that overflows float64.
    """
    settings = settings or TrainSettings()
    for ds in (train, val):
        _check_windows(ds, cfg)
    registry = params.named_parameters()
    sizes = [t.data.size for t in registry.values()]
    opt = OptimizerState.for_params(registry, settings.lr)
    emit = log if log is not None else (lambda _msg: None)

    train_losses: list[float] = []
    val_mses: list[float] = []
    val_maes: list[float] = []
    best_mse = np.inf
    best_epoch = -1
    best_snap = _snapshot(params)
    stale = 0

    for epoch in range(settings.epochs):
        order = make_rng(cfg.seed, "shuffle", epoch).permutation(len(train))
        loss_sum = 0.0
        seen = 0
        for step, start in enumerate(range(0, len(order), settings.batch_size)):
            idx = order[start:start + settings.batch_size]
            xb = train.inputs[idx]
            yb = train.targets[idx]
            for t in registry.values():
                t.zero_grad()
            # the step starts; its parts record on tapes of their own
            with Tape():
                tapes = None    # frees the last step's, kept until its Adam
                tapes, loss_val, grad = _train_step(params, cfg, xb, yb,
                                                    epoch, step)
            where = f"epoch {epoch}, step {step}"
            norm = clip_global_norm(grad, sizes, settings.clip_norm)
            if not np.isfinite(norm):
                raise TrainingError(f"{where}: non-finite gradient norm")
            # no entry exceeds the clipped norm, so only a norm past
            # _SQRT_MAX needs the pass that finds the largest entry
            if (min(norm, settings.clip_norm or math.inf) > _SQRT_MAX
                    and np.abs(grad).max() > _SQRT_MAX):
                raise TrainingError(
                    f"{where}: gradient entries past {_SQRT_MAX:.3g} (norm "
                    f"{norm:.3e}) overflow Adam's second moment")
            adam_step(registry, grad, opt)
            loss_sum += loss_val * len(idx)
            seen += len(idx)
        epoch_loss = loss_sum / seen
        train_losses.append(epoch_loss)

        try:
            score = evaluate(params, cfg, val, batch_size=settings.batch_size)
        except (DataError, SingularityError) as exc:
            raise TrainingError(f"epoch {epoch}, validation: {exc}") from exc
        val_mses.append(score.mse)
        val_maes.append(score.mae)
        emit(f"epoch {epoch}: train_loss={epoch_loss:.6f} "
             f"val_mse={score.mse:.6f} val_mae={score.mae:.6f}")

        if score.mse < best_mse:
            best_mse = score.mse
            best_epoch = epoch
            best_snap = _snapshot(params)
            stale = 0
        else:
            stale += 1
        if stale >= settings.patience:
            emit(f"stopping after epoch {epoch}: {stale} epoch(s) without "
                 f"improvement, patience {settings.patience}")
            break

    _restore(params, best_snap)
    report = TrainReport(
        train_loss=train_losses, val_mse=val_mses, val_mae=val_maes,
        best_epoch=best_epoch, epochs_run=len(train_losses),
        seed=cfg.seed, config=cfg.to_dict())
    return params, report
