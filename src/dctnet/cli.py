"""Batch command-line interface.

Subcommands: train, eval, forecast, ablate, synth.  Machine-readable
output (reports as JSON, forecasts as CSV) goes to standard output or the
--out target; progress and diagnostics go to standard error, errors only
under --quiet.  Exit codes: 0 success, 1 internal or training failure, 2
usage or data errors.

The config file has optional sections "model", "train" and "data", and a
"seed" key; every field is optional.  A section's flags (``_FLAGS``) are
laid over its file values, and the section is then built and checked by
its own dataclass: ``ModelConfig``, ``TrainSettings``, ``DataSettings``.
So a setting resolves from its flag, then the file, then the dataclass
default.  --preset drops the file's "ratios"; in the file, "ratios" beat
"preset".  The top-level "seed" (or --seed) is the one run seed: it seeds
initialisation, shuffling and dropout alike.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .data_io import (SPLIT_PRESETS, SYNTH_KINDS, DataSettings, SynthParams,
                      atomic_write, checkpoint_load, checkpoint_save,
                      load_csv, run_record, run_settings, save_csv,
                      synth_series)
from .errors import (CheckpointError, ConfigError, DataError, DCTNetError,
                     TrainingError, from_fields, whole_number)
from .model import (ABLATION_STAGES, ModelConfig, _one_blas_thread,
                    ablation_variant, forward, init_params)
from .trainer import TrainSettings, evaluate, fit

logger = logging.getLogger("dctnet")

_JSON_KW = dict(sort_keys=True, indent=2, allow_nan=False)
# (flag, field) pairs of each config section; a given flag beats the file
_FLAGS = {
    "model": (("seq_len", "seq_len"), ("horizon", "pred_len")),
    "train": (("epochs", "epochs"), ("lr", "lr"), ("batch_size", "batch_size"),
              ("patience", "patience")),
    "data": (("data", "path"), ("preset", "preset"),
             ("window_stride", "window_stride")),
}


def _emit_json(payload: dict, out_path: Optional[Path] = None) -> None:
    text = json.dumps(payload, **_JSON_KW) + "\n"
    if out_path is not None:
        with atomic_write(out_path, encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _setup_logging(args) -> None:
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    logger.handlers.clear()
    logger.addHandler(handler)
    logger.setLevel(logging.ERROR if args.quiet else logging.INFO)


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:       # bad JSON, or an int past the digit limit
        raise ConfigError(f"config file {p} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    unknown = set(cfg) - {"model", "train", "data", "seed"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for name in ("model", "train", "data"):
        section = cfg.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be a JSON "
                              f"object, got {type(section).__name__}")
        if name != "data" and "seed" in section:
            raise ConfigError(f"{name}.seed is not a setting; the run seed "
                              f"is the top-level \"seed\" or --seed")
    # checked here because a --data flag would hide it from DataSettings
    data = cfg.get("data", {})
    if not isinstance(data.get("path", ""), str):
        raise ConfigError(f"data.path must be a string, got {data['path']!r}")
    return cfg


def _resolve_seed(args, file_cfg: dict) -> int:
    if args.seed is not None:
        return args.seed
    return whole_number("seed", file_cfg.get("seed", 0))


def _section(args, file_cfg: dict, name: str) -> dict:
    """The file's ``name`` section with each given flag laid over its field."""
    section = dict(file_cfg.get(name, {}))
    section.update((field, getattr(args, flag)) for flag, field in _FLAGS[name]
                   if getattr(args, flag) is not None)
    return section


def _resolve_run(args):
    """(data settings, table, model config, train settings, windows) of a
    ``train`` or ``ablate`` run; windows are the (train, val, test) sets."""
    file_cfg = _load_config_file(args.config)
    seed = _resolve_seed(args, file_cfg)
    data = _section(args, file_cfg, "data")
    if args.preset is not None:     # else the file's ratios would beat it
        data.pop("ratios", None)
    data = from_fields(DataSettings, "data", data)
    if not data.path:
        raise ConfigError("no data file given (flag --data or config data.path)")
    table = load_csv(data.path)
    model = _section(args, file_cfg, "model")
    if "channels" in model and whole_number(
            "model.channels", model["channels"]) != table.channels:
        raise DataError(
            f"config expects {model['channels']} channels, data has "
            f"{table.channels}"
        )
    cfg = ModelConfig.from_dict(dict(model, channels=table.channels,
                                     seed=seed))
    settings = from_fields(TrainSettings, "train",
                           _section(args, file_cfg, "train"))
    return (data, table, cfg, settings,
            data.windows(table, cfg.seq_len, cfg.pred_len))


def _train_once(cfg: ModelConfig, settings: TrainSettings, datasets,
                label: str = ""):
    train_ds, val_ds, test_ds = datasets
    params = init_params(cfg)
    tag = f"[{label}] " if label else ""
    params, report = fit(params, cfg, train_ds, val_ds, settings,
                         log=lambda msg: logger.info("%s%s", tag, msg))
    score = evaluate(params, cfg, test_ds, batch_size=settings.batch_size)
    return params, report, score


def _baselines(dataset, prefix: str = "") -> dict:
    """MSE of the zero forecast and of persistence (each window's last input,
    repeated) on ``dataset``'s windows, keyed ``<prefix>zero_mse`` and
    ``<prefix>persistence_mse``; ``None`` where one overflows float64."""
    guesses = {"zero_mse": 0.0, "persistence_mse": dataset.inputs[:, -1:, :]}
    out = {}
    for name, guess in guesses.items():
        with np.errstate(over="ignore"):
            err = dataset.targets - guess
            mse = float(np.mean(err * err))
        out[prefix + name] = mse if np.isfinite(mse) else None
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    data, table, cfg, settings, windows = _resolve_run(args)
    data_path = Path(data.path)
    train_ds, val_ds, test_ds = windows
    logger.info("training on %s: %d/%d/%d windows, %d channels, horizon %d",
                data_path.name, len(train_ds), len(val_ds), len(test_ds),
                cfg.channels, cfg.pred_len)
    params, report, test_score = _train_once(cfg, settings, windows)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint.dct"
    checkpoint_save(params, cfg, ckpt_path, metadata=run_record(
        train_ds.stats, data, dataset=data_path.stem,
        channel_names=table.channel_names, best_epoch=report.best_epoch,
        best_val_mse=report.val_mse[report.best_epoch]))
    payload = dict(dataclasses.asdict(report),
                   dataset=data_path.stem,
                   test_mse=test_score.mse, test_mae=test_score.mae,
                   checkpoint=str(ckpt_path), **_baselines(test_ds, "test_"))
    _emit_json(payload, out_dir / "train_report.json")
    logger.info("checkpoint written to %s", ckpt_path)
    return 0


def _load_eval_inputs(args):
    params, cfg, metadata = checkpoint_load(args.checkpoint)
    table = load_csv(args.data)
    if table.channels != cfg.channels:
        raise DataError(
            f"data has {table.channels} channels, checkpoint expects "
            f"{cfg.channels}"
        )
    stats, split = run_settings(metadata, cfg.channels)
    if stats is None:
        raise CheckpointError("checkpoint metadata lacks normalization "
                              "statistics")
    return params, cfg, table, stats, split


def cmd_eval(args) -> int:
    params, cfg, table, stats, split = _load_eval_inputs(args)
    dataset, = split.windows(table, cfg.seq_len, cfg.pred_len, stats,
                             which=(args.split,))
    score = evaluate(params, cfg, dataset)
    logger.info("%s split: %d windows, mse %.6f, mae %.6f, mean alpha %.4f",
                args.split, score.num_windows, score.mse, score.mae,
                score.alpha_mean)
    _emit_json({
        "mse": score.mse,
        "mae": score.mae,
        "horizon": cfg.pred_len,
        "dataset": Path(args.data).stem,
        "config": cfg.to_dict(),
        "seed": cfg.seed,
        "split": args.split,
        "alpha_mean": score.alpha_mean,
        "num_windows": score.num_windows,
        **_baselines(dataset),
    })
    return 0


def cmd_forecast(args) -> int:
    params, cfg, table, stats, _split = _load_eval_inputs(args)
    rows = table.rows
    if rows < cfg.seq_len:
        raise DataError(
            f"data has {rows} rows; a forecast needs at least seq_len = "
            f"{cfg.seq_len}"
        )
    if args.origin is not None:
        origin = args.origin
    elif rows >= cfg.seq_len + cfg.pred_len:
        origin = rows - cfg.pred_len
    else:
        origin = rows
    if origin < cfg.seq_len or origin > rows:
        raise DataError(
            f"forecast origin {origin} needs between {cfg.seq_len} and "
            f"{rows} observed rows"
        )
    window = stats.apply(table.values[origin - cfg.seq_len:origin])
    try:
        fc = forward(window[None], params, cfg, training=False)
        pred = stats.invert(fc.values.data[0])              # [T, C] raw scale
        if not np.all(np.isfinite(pred)):
            raise DataError("raw-scale forecast overflows float64")
    except DataError as exc:
        raise DataError(f"forecast from row {origin}: {exc}") from exc
    truth = table.values[origin:origin + cfg.pred_len]
    has_truth = truth.shape[0] > 0

    header = ["step"]
    if has_truth:
        header += [f"truth_{c}" for c in table.channel_names]
    header += [f"pred_{c}" for c in table.channel_names]
    lines = [header]
    for t in range(cfg.pred_len):
        row = [str(t)]
        if has_truth:
            row += [repr(float(v)) for v in truth[t]] if t < truth.shape[0] \
                else [""] * cfg.channels
        row += [repr(float(v)) for v in pred[t]]
        lines.append(row)

    logger.info("forecast from row %d over %d steps; mean alpha %.4f",
                origin, cfg.pred_len, float(np.mean(fc.alpha.data)))
    if args.out is not None:
        with atomic_write(args.out, newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(lines)
    else:
        csv.writer(sys.stdout).writerows(lines)
    return 0


def cmd_ablate(args) -> int:
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    data, _table, cfg, settings, windows = _resolve_run(args)
    # every variant is built before anything trains, and at least one is:
    # ablation_variant refuses a cfg that bypasses a stage, so "full" is the
    # full model
    if not variants:
        raise ConfigError("--variants names no stage to bypass")
    for v in variants:
        if variants.count(v) > 1:
            raise ConfigError(f"--variants lists {v!r} more than once")

    rows = []
    runs = [(cfg, "full")] + [(ablation_variant(cfg, v), f"w/o-{v.upper()}")
                              for v in variants]
    for variant_cfg, label in runs:
        logger.info("=== training %s ===", label)
        _params, report, score = _train_once(variant_cfg, settings, windows,
                                             label=label)
        rows.append({
            "name": label,
            "mse": score.mse,
            "mae": score.mae,
            "alpha_mean": score.alpha_mean,
            "best_epoch": report.best_epoch,
        })
        logger.info("%s: test mse %.6f mae %.6f", label, score.mse, score.mae)

    _emit_json({
        "dataset": Path(data.path).stem,
        "horizon": cfg.pred_len,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        "variants": rows,
        **_baselines(windows[2], "test_"),
    }, Path(args.out) if args.out else None)
    return 0


def cmd_synth(args) -> int:
    params = from_fields(SynthParams, "synth", {
        f.name: getattr(args, f.name) for f in dataclasses.fields(SynthParams)
        if getattr(args, f.name) is not None})
    table = synth_series(args.kind, args.rows, args.channels, args.seed,
                         params)
    save_csv(table, args.out)
    logger.info("wrote %d rows x %d channels to %s", table.rows,
                table.channels, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dctnet",
        description="Train, evaluate, and run the dual-branch "
                    "channel-temporal forecaster.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true",
                        help="errors only on standard error")
    sub = parser.add_subparsers(dest="command", required=True)

    run_common = argparse.ArgumentParser(add_help=False)
    run_common.add_argument("--config", help="JSON config file")
    run_common.add_argument("--data", help="input CSV")
    run_common.add_argument("--seed", type=int, help="run seed")
    run_common.add_argument("--horizon", type=int, help="prediction length T")
    run_common.add_argument("--seq-len", type=int, dest="seq_len",
                            help="history length L")
    run_common.add_argument("--epochs", type=int)
    run_common.add_argument("--lr", type=float)
    run_common.add_argument("--batch-size", type=int, dest="batch_size")
    run_common.add_argument("--patience", type=int)
    run_common.add_argument("--preset", choices=sorted(SPLIT_PRESETS),
                            help="split ratios: ett 6:2:2, standard 7:1:2")
    run_common.add_argument("--window-stride", type=int, dest="window_stride",
                            help="offset between consecutive windows")

    p = sub.add_parser("train", parents=[common, run_common],
                       help="train a model and write checkpoint + report")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common],
                       help="score a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", choices=("train", "val", "test"),
                   default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("forecast", parents=[common],
                       help="emit a T-step forecast as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="output CSV (default: standard output)")
    p.add_argument("--origin", type=int,
                   help="row the forecast starts at (default: last window "
                        "with ground truth)")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("ablate", parents=[common, run_common],
                       help="train the full model against bypass variants")
    p.add_argument("--variants", default=",".join(ABLATION_STAGES),
                   help="comma list from dbct,gpaf,fsc")
    p.add_argument("--out", help="also write the comparison JSON here")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("synth", parents=[common],
                       help="generate a synthetic series CSV")
    p.add_argument("--kind", required=True, choices=SYNTH_KINDS)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--channels", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    shape = SynthParams()       # a shape flag left out takes its default
    for name in ("period", "amplitude", "noise", "slope", "magnitude",
                 "period2"):
        p.add_argument(f"--{name}", type=float,
                       help=f"default {getattr(shape, name)}")
    p.add_argument("--shift-row", type=int, dest="shift_row",
                   help="default: half the rows")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _setup_logging(args)
    try:
        with _one_blas_thread(), np.errstate(all="ignore"):
            return args.func(args)      # overflows are named by the checks
    except (ConfigError, DataError, CheckpointError, OSError,
            MemoryError) as exc:           # a size too large to allocate
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 1
    except DCTNetError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
