"""The three benchmark workloads: set-up, timed closed loop, output checks.

Each workload is one caller in a closed loop: the next call into the
library starts only after the previous one returned.  The workload seed
feeds the synthetic series' noise; the model and training seeds stay 0,
so the library sees only the generated data change with the seed.

All library calls go through module attributes (``dctnet.trainer.fit``
rather than a name imported once), so the hooks in ``spans`` reach them.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import dctnet.data_io as data_io
import dctnet.model as model
import dctnet.trainer as trainer
from dctnet.data_io import NormStats, SynthParams, WindowedDataset
from dctnet.model import ModelConfig
from dctnet.trainer import TrainSettings

from reference import Reference
from spans import (BYTES, END, NAME, NODES, PARENT, START, StepClock,
                   Tracer, patched)

SETUPS = 5              # set-ups per run; setup_s is their median
FORECAST_BLOCK = 128    # B=1 forecast calls between two evaluate passes
EVAL_BATCH = 64         # batch size of evaluate on forecast_c21
CHECKPOINT_ORIGINS = 8  # origins re-forecast from the in-memory params
REL_TOL = 1e-10         # batched vs stacked B=1 forwards


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # synth_series kind
    channels: int
    rows: int
    synth: SynthParams
    ratios: tuple                  # train/val/test split proportions
    model: dict                    # ModelConfig fields besides channels
    train: Optional[dict] = None   # TrainSettings fields; None: inference only
    baseline: str = ""             # forecast test_mse must beat after fit


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train_c7",
        kind="sine", channels=7, rows=797, synth=SynthParams(noise=0.1),
        # 128 train windows (4 full batches), 32 val and 64 test windows
        ratios=(319.0, 223.0, 255.0),
        model={},
        train={"epochs": 2, "patience": 2, "batch_size": 32},
        baseline="zero"),
    Workload(
        name="train_small",
        kind="freq_shift", channels=2, rows=1500,
        # the period change at row 1350 lies inside the 1200..1499 test span
        synth=SynthParams(period=24.0, period2=16.0, shift_row=1350,
                          noise=0.05),
        ratios=(6.0, 2.0, 2.0),
        model={"pred_len": 24, "latent_dim": 16, "heads": 2},
        train={"epochs": 4, "patience": 4, "batch_size": 32, "lr": 1e-3},
        # after the shift the model is not expected to beat the zero
        # forecast (criterion 7 compares against the bypassed correction)
        baseline="persistence"),
    Workload(
        name="forecast_c21",
        kind="sine_trend", channels=21, rows=2235,
        synth=SynthParams(noise=0.1),
        ratios=(6.0, 2.0, 2.0),     # 447 test rows, 256 test windows
        model={}),
)}


@dataclass
class Tally:
    """Operations attempted and failed; an output check that fails counts."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.problems.append(why)


@dataclass
class Side:
    """Throughput and per-operation latency of one kind of unit.

    Each unit's timings are kept raw and scaled by the reference factor
    measured around that unit (see ``reference``).
    """

    rates: list = field(default_factory=list)        # windows/s per unit
    op_seconds: list = field(default_factory=list)
    raw_rates: list = field(default_factory=list)
    raw_op_seconds: list = field(default_factory=list)

    def add(self, factor: float, rate: Optional[float],
            op_seconds: list) -> None:
        if rate is not None:
            self.raw_rates.append(rate)
            self.rates.append(rate / factor)
        self.raw_op_seconds.extend(op_seconds)
        self.op_seconds.extend(t * factor for t in op_seconds)

    def summary(self, raw: bool = False) -> dict:
        """Median windows/s and latency percentiles; NaN when nothing ran."""
        rates = self.raw_rates if raw else self.rates
        ms = np.asarray(self.raw_op_seconds if raw else self.op_seconds) * 1e3
        out = {f"op_ms_p{q}": float(np.percentile(ms, q)) if ms.size
               else math.nan for q in (50, 90, 99)}
        out.update(windows_per_s=statistics.median(rates) if rates
                   else math.nan, ops=int(ms.size), units=len(rates))
        return out


@dataclass
class Outcome:
    tally: Tally
    plain: Side
    traced: Side
    test_mse: float


def _head(ds: WindowedDataset, n: int) -> WindowedDataset:
    return WindowedDataset(ds.inputs[:n], ds.targets[:n], ds.split, ds.stats)


def _load_series(w: Workload, seed: int, csv_path: Path):
    table = data_io.synth_series(w.kind, w.rows, w.channels, seed, w.synth)
    data_io.save_csv(table, csv_path)
    table = data_io.load_csv(csv_path)
    cfg = ModelConfig(channels=table.channels, **w.model)
    splits = data_io.split_chronological(table, w.ratios,
                                         min_rows=cfg.seq_len + cfg.pred_len)
    return cfg, splits, data_io.compute_stats(splits[0])


def _windows(split, cfg: ModelConfig, stats: NormStats, tag: str):
    return data_io.make_windows(split, cfg.seq_len, cfg.pred_len, stats,
                                split_tag=tag)


def setup_train(w: Workload, seed: int, work: Path) -> dict:
    """Data through the public I/O path, then one warm-up train step."""
    cfg, splits, stats = _load_series(w, seed, work / f"{w.name}.csv")
    train, val, test = (_windows(s, cfg, stats, tag) for s, tag in
                        zip(splits, ("train", "val", "test")))
    settings = TrainSettings(**w.train)
    warm = TrainSettings(**dict(w.train, epochs=1, patience=1))
    trainer.fit(model.init_params(cfg), cfg, _head(train, settings.batch_size),
                _head(val, settings.batch_size), warm, log=None)
    return {"cfg": cfg, "train": train, "val": val, "test": test,
            "settings": settings}


def setup_forecast(w: Workload, seed: int, work: Path) -> dict:
    """Data, a checkpoint written and read back, one warm-up forecast."""
    cfg, splits, stats = _load_series(w, seed, work / f"{w.name}.csv")
    params = model.init_params(cfg)
    ckpt = work / f"{w.name}.dct"
    data_io.checkpoint_save(params, cfg, ckpt, metadata={
        "norm_mean": stats.mean.tolist(), "norm_std": stats.std.tolist()})
    loaded, cfg, meta = data_io.checkpoint_load(ckpt)
    stats = NormStats(mean=np.asarray(meta["norm_mean"]),
                      std=np.asarray(meta["norm_std"]))
    test = _windows(splits[2], cfg, stats, "test")
    model.forward(test.inputs[:1], loaded, cfg, training=False)
    return {"cfg": cfg, "params": loaded, "fresh": params, "test": test}


def _baseline_mse(kind: str, ds: WindowedDataset) -> float:
    if kind == "zero":
        guess = np.zeros_like(ds.targets)
    else:                                   # persistence of the last input
        guess = np.broadcast_to(ds.inputs[:, -1:, :], ds.targets.shape)
    return float(np.mean((ds.targets - guess) ** 2))


def _report_exception(tally: Tally, ops: int, what: str) -> None:
    traceback.print_exc(file=sys.stderr)
    tally.fail(ops, f"{what} raised {sys.exc_info()[1]!r}")


def _units(tracer: Optional[Tracer], seconds: float):
    """Unit indices until time is up; a traced run alternates untraced and
    traced units and runs at least one of each."""
    deadline = time.perf_counter() + seconds
    unit = 0
    while unit < (2 if tracer else 1) or time.perf_counter() < deadline:
        yield tracer is not None and unit % 2 == 1
        unit += 1


def run_train(w: Workload, st: dict, seconds: float, tracer: Optional[Tracer],
              reference: Reference) -> Outcome:
    """Repeated fits from the same initial parameters until time is up.

    Checks: every step's loss is finite, each fit runs every planned step,
    every fit ends at bitwise the same parameters, and the test MSE after
    fit beats the workload's baseline forecast.
    """
    cfg, train, settings = st["cfg"], st["train"], st["settings"]
    steps = math.ceil(len(train) / settings.batch_size) * settings.epochs
    tally, sides = Tally(), {False: Side(), True: Side()}
    clock = StepClock()
    final_params, test_mse = None, math.nan
    before = reference.measure()
    with patched(clock.hooks()):
        for traced in _units(tracer, seconds):
            first_step, first_loss = len(clock.step_seconds), len(clock.losses)
            params = model.init_params(cfg)
            tally.attempted += steps
            with patched(tracer.hooks() if traced else []):
                started = time.perf_counter()
                try:
                    params, report = trainer.fit(params, cfg, train, st["val"],
                                                 settings, log=None)
                    elapsed = time.perf_counter() - started
                except Exception:
                    _report_exception(tally, steps, "fit")
                    report = None
            after = reference.measure()
            factor, before = reference.factor(before, after), after
            if report is None:
                continue
            losses = clock.losses[first_loss:]
            done = len(clock.step_seconds) - first_step
            if done != steps or report.epochs_run != settings.epochs:
                tally.fail(steps, f"fit ran {done} of {steps} steps")
                continue
            if not np.all(np.isfinite(losses)):
                tally.fail(steps, "non-finite training loss")
                continue
            final = {k: t.data for k, t in params.named_parameters().items()}
            if final_params is None:
                final_params = final
                test_mse = trainer.evaluate(params, cfg, st["test"]).mse
                base = _baseline_mse(w.baseline, st["test"])
                if not test_mse < base:
                    tally.fail(steps, f"test_mse {test_mse} does not beat "
                                      f"the {w.baseline} forecast {base}")
            elif any(not np.array_equal(final[k], final_params[k])
                     for k in final_params):
                tally.fail(steps, "fit is not deterministic")
                continue
            sides[traced].add(factor, len(train) * settings.epochs / elapsed,
                              clock.step_seconds[first_step:])
    return Outcome(tally, sides[False], sides[True], test_mse)


def run_forecast(w: Workload, st: dict, seconds: float,
                 tracer: Optional[Tracer], reference: Reference) -> Outcome:
    """B=1 forecasts at consecutive test origins, then an evaluate pass.

    Checks: a revisited origin repeats its forecast bitwise, batched
    forwards match the stacked B=1 forecasts within REL_TOL, the in-memory
    parameters forecast bitwise like the loaded checkpoint, and every
    evaluate pass gives the same MSE, which matches the B=1 forecasts.
    """
    cfg, params, test = st["cfg"], st["params"], st["test"]
    n = len(test)
    batches = math.ceil(n / EVAL_BATCH)
    tally, sides = Tally(), {False: Side(), True: Side()}
    stored: dict[int, np.ndarray] = {}
    mses: list[float] = []
    origin = 0
    before = reference.measure()
    for traced in _units(tracer, seconds):
        op_seconds, rate = [], None
        with patched(tracer.hooks() if traced else []):
            for _ in range(FORECAST_BLOCK):
                i, origin = origin, (origin + 1) % n
                tally.attempted += 1
                started = time.perf_counter()
                try:
                    fc = model.forward(test.inputs[i:i + 1], params, cfg,
                                       training=False)
                except Exception:
                    _report_exception(tally, 1, f"forecast at origin {i}")
                    continue
                op_seconds.append(time.perf_counter() - started)
                values = fc.values.data
                if values.shape != (1, cfg.pred_len, cfg.channels):
                    tally.fail(1, f"forecast shape {values.shape}")
                elif i not in stored:
                    stored[i] = values[0]
                elif not np.array_equal(values[0], stored[i]):
                    tally.fail(1, f"forecast at origin {i} did not repeat")
            tally.attempted += batches
            started = time.perf_counter()
            try:
                score = trainer.evaluate(params, cfg, test,
                                         batch_size=EVAL_BATCH)
                rate = n / (time.perf_counter() - started)
                mses.append(score.mse)
            except Exception:
                _report_exception(tally, batches, "evaluate")
        after = reference.measure()
        factor, before = reference.factor(before, after), after
        sides[traced].add(factor, rate, op_seconds)

    try:
        _check_forecasts(st, stored, mses, tally)
    except Exception:
        _report_exception(tally, 1, "output checks")
    return Outcome(tally, sides[False], sides[True],
                   mses[0] if mses else math.nan)


def _check_forecasts(st: dict, stored: dict, mses: list, tally: Tally) -> None:
    cfg, test = st["cfg"], st["test"]
    if len(set(mses)) > 1:
        tally.fail(1, f"evaluate passes disagree: {sorted(set(mses))}")
    origins = sorted(stored)
    for lo in range(0, len(origins), EVAL_BATCH):
        chunk = origins[lo:lo + EVAL_BATCH]
        tally.attempted += 1
        batched = model.forward(test.inputs[chunk], st["params"], cfg).values.data
        stacked = np.stack([stored[i] for i in chunk])
        err = np.max(np.abs(batched - stacked)) / np.max(np.abs(stacked))
        if not err <= REL_TOL:
            tally.fail(1, f"batched forward differs from B=1 by {err:.3g} rel")
    for i in origins[:CHECKPOINT_ORIGINS]:
        tally.attempted += 1
        fresh = model.forward(test.inputs[i:i + 1], st["fresh"], cfg).values.data
        if not np.array_equal(fresh[0], stored[i]):
            tally.fail(1, f"loaded checkpoint forecasts differently at {i}")
    if mses and len(origins) == len(test):
        stacked = np.stack([stored[i] for i in origins])
        mse = float(np.mean((stacked - test.targets) ** 2))
        if not abs(mse - mses[0]) <= REL_TOL * abs(mses[0]):
            tally.fail(1, f"evaluate mse {mses[0]} != B=1 mse {mse}")


# Stage metric -> span names whose time and tape nodes it sums.
STAGES = {
    "revin": ("revin.normalize", "revin.denormalize"),
    "patch_embed": ("patch_embed.segment", "patch_embed.embed"),
    "dual_branch": ("dual_branch.fuse",),
    "global_fusion": ("global_fusion.attend",),
    "spectral_correction": ("spectral_correction.apply",),
}
TRAINER_SPANS = {"trainer.loss_ms": "trainer.loss",
                 "trainer.clip_ms": "trainer.clip",
                 "trainer.adam_ms": "trainer.adam"}
DATA_IO = ("load_csv", "make_windows", "checkpoint_save", "checkpoint_load")


def layer_metrics(tracer: Tracer, timed_from: int, op_root: str,
                  setups: int) -> tuple[dict, dict]:
    """Per-layer numbers from the spans, per operation of the workload.

    An operation is a train step (spans under ``trainer.fit`` outside its
    validation ``evaluate``) or a B=1 forecast (a root ``model.forward``).
    ``data_io`` numbers are per set-up.  Also returns a per-span table
    (time, self time, tape nodes per operation) for the baseline note.
    """
    spans, own = tracer.spans, tracer.self_ns()
    total, self_total, nodes, calls, nbytes = (defaultdict(int) for _ in
                                               range(5))
    tape_lengths, val_eval_ns, setup_ns = [], 0, defaultdict(int)
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        chain = list(tracer.ancestry(i))
        if i < timed_from:
            setup_ns[rec[NAME]] += dur
            continue
        if (chain[-1] if chain else rec[NAME]) != op_root:
            continue
        if "trainer.evaluate" in chain:
            continue
        if rec[NAME] == "trainer.evaluate":
            val_eval_ns += dur
            continue
        total[rec[NAME]] += dur
        self_total[rec[NAME]] += own[i]
        nodes[rec[NAME]] += rec[NODES]
        calls[rec[NAME]] += 1
        nbytes[rec[NAME]] += rec[BYTES]
        if rec[NAME] == "numeric_engine.backward":
            tape_lengths.append(rec[NODES])
    if op_root == "model.forward":
        ops = sum(1 for i in range(timed_from, len(spans))
                  if spans[i][NAME] == op_root and spans[i][PARENT] < 0)
    else:
        ops = calls["numeric_engine.backward"]
    ops = max(ops, 1)

    def ms(ns: float) -> float:
        return ns / 1e6 / ops

    fft = ("fft.dft", "fft.idft")
    out = {"numeric_engine.backward_ms": ms(total["numeric_engine.backward"]),
           "numeric_engine.tape_nodes":
               float(statistics.median(tape_lengths)) if tape_lengths else 0.0}
    for stage, names in STAGES.items():
        out[f"{stage}.fwd_ms"] = ms(sum(total[s] for s in names))
        out[f"{stage}.tape_nodes"] = sum(nodes[s] for s in names) / ops
    out["fft.calls"] = sum(calls[s] for s in fft) / ops
    out["fft.ms"] = ms(sum(total[s] for s in fft))
    out["fft.bytes_computed"] = sum(nbytes[s] for s in fft) / ops
    out["model.forward_ms"] = ms(total["model.forward"])
    out["model.self_ms"] = ms(self_total["model.forward"])
    for metric, name in TRAINER_SPANS.items():
        out[metric] = ms(total[name])
    out["trainer.val_eval_ms"] = ms(val_eval_ns)
    for fn in DATA_IO:
        out[f"data_io.{fn}_ms"] = setup_ns[f"data_io.{fn}"] / 1e6 / setups
    table = {name: {"ms": ms(total[name]), "self_ms": ms(self_total[name]),
                    "calls": calls[name] / ops, "tape_nodes": nodes[name] / ops}
             for name in sorted(total)}
    table["_ops"] = ops
    if tape_lengths and len(set(tape_lengths)) > 1:
        table["_tape_lengths_vary"] = sorted(set(tape_lengths))
    return out, table


def run(name: str, seed: int, seconds: float, trace: bool,
        work: Path) -> dict:
    """Set up SETUPS times, run the timed loop, and collect every number."""
    w = WORKLOADS[name]
    tracer = Tracer() if trace else None
    reference = Reference()
    setup = setup_train if w.train else setup_forecast
    setup_raw, setup_scaled = [], []
    before = reference.measure()
    with patched(tracer.hooks() if tracer else []):
        for _ in range(SETUPS):
            started = time.perf_counter()
            state = setup(w, seed, work)
            took = time.perf_counter() - started
            after = reference.measure()
            setup_raw.append(took)
            setup_scaled.append(took * reference.factor(before, after))
            before = after
    gc.collect()
    timed_from = len(tracer.spans) if tracer else 0
    loop = run_train if w.train else run_forecast
    outcome = loop(w, state, seconds, tracer, reference)
    plain = outcome.plain.summary()
    raw = outcome.plain.summary(raw=True)
    raw["setup_s"] = statistics.median(setup_raw)
    result = {
        "workload": name, "seed": seed, "seconds": seconds,
        "tally": outcome.tally, "untraced": plain, "untraced_raw": raw,
        "samples": {"op_ms_raw": [t * 1e3 for t in
                                  outcome.plain.raw_op_seconds],
                    "unit_windows_per_s_raw": outcome.plain.raw_rates,
                    "setup_s_raw": setup_raw,
                    "reference_ms": [t * 1e3 for t in reference.seconds]},
        "end_to_end": {
            "windows_per_s": plain["windows_per_s"],
            "op_ms_p50": plain["op_ms_p50"],
            "op_ms_p90": plain["op_ms_p90"],
            "test_mse": outcome.test_mse,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": _peak_rss_mb(),
        },
    }
    if tracer:
        root = "trainer.fit" if w.train else "model.forward"
        layers, table = layer_metrics(tracer, timed_from, root, SETUPS)
        traced = outcome.traced.summary()
        layers["trace.op_ms_p50_overhead"] = \
            traced["op_ms_p50"] - plain["op_ms_p50"]
        layers["trace.windows_per_s_overhead"] = \
            traced["windows_per_s"] - plain["windows_per_s"]
        result.update(per_layer=layers, span_table=table, traced=traced,
                      spans=tracer.spans)
    return result


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
