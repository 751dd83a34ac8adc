"""Timing hooks placed around dctnet's public functions from outside.

Nothing under ``src/`` knows about these hooks.  Each hook replaces a
module attribute for the duration of a ``with`` block and restores it on
exit, so an untraced stretch of a run executes the library's own functions.

``StepClock`` is the only hook the timed run uses: it notes when each
train step's tape opens and when its Adam update returns, and keeps every
step's loss.  ``Tracer`` records a span per call into each module's public
functions; the traced run uses it.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterator, Optional

import dctnet.data_io
import dctnet.fft
import dctnet.model
import dctnet.numeric_engine
import dctnet.trainer


@contextlib.contextmanager
def patched(replacements: list[tuple[object, str, object]]) -> Iterator[None]:
    """Set ``module.attr = value`` for each triple; restore all on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, value in replacements:
            setattr(mod, attr, value)
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


class StepClock:
    """Duration and loss of every train step that ``fit`` runs.

    A step starts when ``fit`` opens its tape and ends when ``adam_step``
    returns; loss, backward and clipping fall in between.
    """

    def __init__(self):
        self.step_seconds: list[float] = []
        self.losses: list[float] = []
        self._opened = 0.0

    def hooks(self) -> list[tuple[object, str, object]]:
        clock = self
        trainer = dctnet.trainer
        base_tape, base_adam, base_loss = (trainer.Tape, trainer.adam_step,
                                           trainer.mse_loss)

        class ClockedTape(base_tape):
            def __enter__(self):
                clock._opened = time.perf_counter()
                return super().__enter__()

        def adam_step(*args, **kwargs):
            out = base_adam(*args, **kwargs)
            clock.step_seconds.append(time.perf_counter() - clock._opened)
            return out

        def mse_loss(*args, **kwargs):
            out = base_loss(*args, **kwargs)
            clock.losses.append(float(out.data))
            return out

        return [(trainer, "Tape", ClockedTape), (trainer, "adam_step", adam_step),
                (trainer, "mse_loss", mse_loss)]


# A span is [name, parent index or -1, start ns, end ns, tape nodes, bytes].
NAME, PARENT, START, END, NODES, BYTES = range(6)


class Tracer:
    """In-memory spans of calls into dctnet's public functions.

    ``model`` and ``trainer`` import their stage and step functions by
    name, so the hooks replace those names in the importing module.
    ``numeric_engine`` reaches the transforms through the ``fft`` module,
    so ``fft.dft`` and ``fft.idft`` are replaced there.  Stage spans also
    record how many nodes the active tape gained during the call.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn: Callable, count_tape: bool = False,
              measure: Optional[Callable] = None) -> Callable:
        spans, stack = self.spans, self._stack
        active_tape = dctnet.numeric_engine.active_tape

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0, 0, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            tape = active_tape() if count_tape else None
            before = len(tape) if tape is not None else 0
            rec[START] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
            if tape is not None:
                rec[NODES] = len(tape) - before
            if measure is not None:
                measure(rec, args, out)
            return out

        return wrapper

    def hooks(self) -> list[tuple[object, str, object]]:
        """Replacements that route every traced call through a span."""
        data_io, fft, model, trainer = (dctnet.data_io, dctnet.fft,
                                        dctnet.model, dctnet.trainer)

        def tape_length(rec, args, _out):
            rec[NODES] = len(args[1])

        def output_bytes(rec, _args, out):
            rec[BYTES] = out.nbytes

        out = []
        for fn in ("load_csv", "make_windows", "checkpoint_save",
                   "checkpoint_load"):
            out.append((data_io, fn, self._wrap(f"data_io.{fn}",
                                                getattr(data_io, fn))))
        stages = {"revin_normalize": "revin.normalize",
                  "revin_denormalize": "revin.denormalize",
                  "segment_patches": "patch_embed.segment",
                  "embed_patches": "patch_embed.embed",
                  "fuse_branches": "dual_branch.fuse",
                  "global_patch_attention": "global_fusion.attend",
                  "apply_correction": "spectral_correction.apply"}
        for fn, name in stages.items():
            out.append((model, fn, self._wrap(name, getattr(model, fn),
                                              count_tape=True)))
        for mod in (model, trainer):
            out.append((mod, "forward", self._wrap(
                "model.forward", getattr(mod, "forward"), count_tape=True)))
        out.append((trainer, "mse_loss", self._wrap(
            "trainer.loss", trainer.mse_loss, count_tape=True)))
        out.append((trainer, "backward", self._wrap(
            "numeric_engine.backward", trainer.backward, measure=tape_length)))
        for fn, name in (("clip_global_norm", "trainer.clip"),
                         ("adam_step", "trainer.adam"),
                         ("evaluate", "trainer.evaluate"),
                         ("fit", "trainer.fit")):
            out.append((trainer, fn, self._wrap(name, getattr(trainer, fn))))
        for fn in ("dft", "idft"):
            out.append((fft, fn, self._wrap(f"fft.{fn}", getattr(fft, fn),
                                            measure=output_bytes)))
        return out

    def self_ns(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [rec[END] - rec[START] for rec in self.spans]
        for rec in self.spans:
            if rec[PARENT] >= 0:
                own[rec[PARENT]] -= rec[END] - rec[START]
        return own

    def ancestry(self, index: int) -> Iterator[str]:
        """Names of a span's ancestors, nearest first."""
        parent = self.spans[index][PARENT]
        while parent >= 0:
            yield self.spans[parent][NAME]
            parent = self.spans[parent][PARENT]
