"""Data ingestion, windowing, synthesis, and checkpoint persistence.

CSV tables come in with an optional header and an optional leading
timestamp column, which is skipped; numeric columns become channels.
Splits are chronological, standardisation statistics come from the train
split only, and sliding windows pair an L-step history with the T steps
after it.
Checkpoints are a single self-describing binary file: magic, version,
JSON header, then named float64 tensors.  Files are written through
``atomic_write``, so a failed write leaves the previous file in place.
Their metadata is the run record that ``run_record`` writes: the train
split's ``norm_mean`` and ``norm_std`` and the ``split_ratios`` and
``window_stride`` it was cut with, which ``checkpoint_load`` checks and
``run_settings`` reads, plus facts such as ``dataset`` and ``best_epoch``.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import os
import secrets
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Optional

import numpy as np

from .errors import CheckpointError, ConfigError, DataError, finite_number, \
    whole_number
from .model import DCTNetParams, ModelConfig, init_params
from .revin import MIN_GAIN
from .rng import make_rng

SPLIT_PRESETS = {"ett": (6.0, 2.0, 2.0), "standard": (7.0, 1.0, 2.0)}
SYNTH_KINDS = ("sine", "sine_trend", "level_shift", "freq_shift")

_MAGIC = b"DCTN"
_VERSION = 1


@contextlib.contextmanager
def atomic_write(path, binary: bool = False, **open_kwargs) -> Iterator[IO]:
    """Open a temp file beside ``path``; replace ``path`` with it on success.

    Readers see either the old file or the complete new one.  If the body
    raises, the temporary file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb" if binary else "x", **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


@dataclass
class SeriesTable:
    """One multivariate series: [rows, C] values plus channel names."""

    values: np.ndarray
    channel_names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"table values must be 2-D, got {self.values.shape}")
        if len(self.channel_names) != self.values.shape[1]:
            raise DataError(
                f"{len(self.channel_names)} channel names for "
                f"{self.values.shape[1]} columns"
            )

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class NormStats:
    """Per-channel mean/std captured on the train split.

    ``apply`` and ``invert`` compute (x - mean) / std and z * std + mean on
    each channel's values and statistics times 2^-k, where 2^k bounds its
    |mean| and std, as ``compute_stats`` scales: a value whose distance from
    the mean overflows float64 still standardises.  Wherever the unscaled
    formulas neither overflow nor underflow, the results are theirs to the
    bit.
    """

    mean: np.ndarray
    std: np.ndarray

    def _scaled(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each channel's k, and its mean and std times 2^-k."""
        _, k = np.frexp(np.maximum(np.abs(self.mean), np.abs(self.std)))
        return k, np.ldexp(self.mean, -k), np.ldexp(self.std, -k)

    def apply(self, values: np.ndarray) -> np.ndarray:
        k, mean, std = self._scaled()
        out = np.ldexp(values, -k)
        out -= mean
        out /= std
        return out

    def invert(self, values: np.ndarray) -> np.ndarray:
        k, mean, std = self._scaled()
        out = values * std
        out += mean
        return np.ldexp(out, k)


@dataclass
class WindowedDataset:
    """Stacked (input, target) windows of one split, already standardised."""

    inputs: np.ndarray     # [W, L, C]
    targets: np.ndarray    # [W, T, C]
    split: str
    stats: NormStats

    def __post_init__(self):
        ins, outs = np.shape(self.inputs), np.shape(self.targets)
        if (len(ins) != 3 or len(outs) != 3 or ins[0] != outs[0]
                or ins[2] != outs[2]):
            raise DataError(f"{self.split} windows: inputs {ins} and targets "
                            f"{outs} are not [W, L, C] and [W, T, C]")

    def __len__(self) -> int:
        return self.inputs.shape[0]


def _parse_cell(text: str) -> Optional[float]:
    try:
        v = float(text)
    except ValueError:
        return None
    return v


def load_csv(path) -> SeriesTable:
    """Read a comma-separated series; channels are the numeric columns.

    A first row with no numeric cell is a header, and a non-numeric first
    cell in the first data row marks a leading timestamp column, which is
    skipped.  A leading UTF-8 byte-order mark is not part of the first cell.
    A cell is whatever ``float()`` accepts; NaN and Inf are refused.  Blank
    lines are skipped, and an error names the file line and column.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"data file not found: {path}")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)         # line_num: the row's file line
            rows = [(reader.line_num, row) for row in reader if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot parse {path} as UTF-8 CSV: {exc}") from exc
    if not rows:
        raise DataError(f"empty data file: {path}")
    width = len(rows[0][1])
    for line, row in rows:
        if len(row) != width:
            raise DataError(
                f"ragged row {line}: {len(row)} cells, expected {width}"
            )

    has_header = all(_parse_cell(c) is None for c in rows[0][1])
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise DataError(f"no data rows in {path}")

    first_channel = 1 if _parse_cell(data_rows[0][1][0]) is None else 0
    if width - first_channel < 1:
        raise DataError(f"no numeric columns in {path}")

    shape = (len(data_rows), width - first_channel)
    try:
        values = np.fromiter(map(float, itertools.chain.from_iterable(
            row[first_channel:] for _, row in data_rows)),
            np.float64, count=shape[0] * shape[1]).reshape(shape)
    except ValueError:                      # a cell float() refuses
        values = None
    if values is None or not np.isfinite(values).all():
        for line, row in data_rows:                 # name the first bad cell
            for j, cell in enumerate(row[first_channel:]):
                v = _parse_cell(cell)
                if v is None or not np.isfinite(v):
                    raise DataError(
                        f"non-numeric value {cell!r} at row {line}, "
                        f"column {first_channel + j + 1}"
                    )
        raise DataError(f"cannot read {path} as numbers")

    if has_header:
        names = [c.strip() for c in rows[0][1][first_channel:]]
    else:
        names = [f"ch{j}" for j in range(width - first_channel)]
    return SeriesTable(values=values, channel_names=names)


def save_csv(table: SeriesTable, path) -> None:
    """Write a table with header; each float as its shortest round-trip
    ``repr``, the bytes the csv module writes for it.

    Only the header, whose names may need quoting, goes through
    ``csv.writer``; a float's ``repr`` never needs quoting, so the data rows
    are joined directly, one row at a time.
    """
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(table.channel_names)
        fh.writelines(",".join(map(repr, row.tolist())) + "\r\n"
                      for row in table.values)


def _positive_ratios(name: str, r) -> tuple[float, float, float]:
    if not (isinstance(r, (list, tuple)) and len(r) == 3):
        raise ConfigError(f"{name} must be three positive numbers, got {r!r}")
    return tuple(finite_number(name, v, above=0.0) for v in r)


def split_chronological(table: SeriesTable, ratios: tuple[float, float, float],
                        min_rows: int = 0
                        ) -> tuple[SeriesTable, SeriesTable, SeriesTable]:
    """Cut into contiguous train/val/test by floor on cumulative proportions.

    The remainder lands in test.  ``min_rows`` (typically L+T) makes a
    too-short split a hard error naming the offending split.
    """
    ratios = _positive_ratios("ratios", ratios)
    total = sum(ratios)
    n = table.rows
    cut1 = int(n * ratios[0] / total)
    cut2 = int(n * (ratios[0] + ratios[1]) / total)
    bounds = {"train": (0, cut1), "val": (cut1, cut2), "test": (cut2, n)}
    parts = []
    for name, (lo, hi) in bounds.items():
        if hi - lo < max(min_rows, 1):
            raise DataError(
                f"{name} split has {hi - lo} rows, needs at least "
                f"{max(min_rows, 1)}"
            )
        parts.append(SeriesTable(values=table.values[lo:hi],
                                 channel_names=list(table.channel_names)))
    return tuple(parts)


@dataclass(frozen=True)
class DataSettings:
    """The ``data`` settings of a run: its series file and how it is cut.

    ``ratios`` (train:val:test weights) win over ``preset``.  A checkpoint
    stores the resulting ``split_ratios`` and ``window_stride``.
    """

    path: Optional[str] = None
    ratios: Optional[tuple[float, float, float]] = None
    preset: str = "ett"
    window_stride: int = 1

    def __post_init__(self):
        if self.ratios is not None:
            object.__setattr__(self, "ratios",
                               _positive_ratios("ratios", self.ratios))
        if not isinstance(self.preset, str) or \
                self.preset not in SPLIT_PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; choose from "
                              f"{sorted(SPLIT_PRESETS)}")
        object.__setattr__(self, "window_stride", whole_number(
            "window_stride", self.window_stride, at_least=1))

    @property
    def split_ratios(self) -> tuple[float, float, float]:
        return self.ratios or SPLIT_PRESETS[self.preset]

    def windows(self, table: SeriesTable, seq_len: int, pred_len: int,
                stats: Optional[NormStats] = None,
                which=("train", "val", "test")) -> tuple[WindowedDataset, ...]:
        """Windows of ``table``'s ``which`` splits cut by these settings,
        standardised by ``stats`` (by default the train split's)."""
        splits = dict(zip(("train", "val", "test"), split_chronological(
            table, self.split_ratios, min_rows=seq_len + pred_len)))
        stats = compute_stats(splits["train"]) if stats is None else stats
        return tuple(make_windows(splits[tag], seq_len, pred_len, stats,
                                  stride=self.window_stride, split_tag=tag)
                     for tag in which)


def compute_stats(table: SeriesTable) -> NormStats:
    """Per-channel mean/std of one split; zero spread falls back to std 1.

    Each channel's statistics are taken on its values times 2^-k, where
    2^k bounds its largest |value|, and scaled back, so finite values give
    finite statistics.  Scaling by a power of two is exact: wherever the
    unscaled formulas do not overflow, the statistics are theirs to the bit.
    """
    _, k = np.frexp(np.abs(table.values).max(axis=0, initial=0.0))
    scaled = np.ldexp(table.values, -k)
    mean = np.ldexp(scaled.mean(axis=0), k)
    std = np.ldexp(scaled.std(axis=0), k)
    std = np.where(std == 0.0, 1.0, std)
    return NormStats(mean=mean, std=std)


def make_windows(split: SeriesTable, seq_len: int, pred_len: int,
                 stats: NormStats, stride: int = 1,
                 split_tag: str = "train") -> WindowedDataset:
    """Standardise, then slide (L history, T target) pairs across the split.

    A channel that does not standardise to finite values, because its
    statistics are not finite or a standardised value overflows float64,
    is a ``DataError``.
    """
    seq_len = whole_number("seq_len", seq_len, at_least=1)
    pred_len = whole_number("pred_len", pred_len, at_least=1)
    stride = whole_number("stride", stride, at_least=1)
    n = split.rows
    need = seq_len + pred_len
    if n < need:
        raise DataError(
            f"{split_tag} split has {n} rows, needs at least {need} "
            f"for one window"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        values = stats.apply(split.values)
    bad = np.flatnonzero(~np.isfinite(values).all(axis=0))
    if bad.size:
        c = bad[0]
        raise DataError(
            f"{split_tag} split: channel {split.channel_names[c]!r} does not "
            f"standardise to finite values (mean {stats.mean[c]:g}, std "
            f"{stats.std[c]:g})")
    windows = np.lib.stride_tricks.sliding_window_view(
        values, need, axis=0)[::stride].swapaxes(1, 2)      # [W, L+T, C]
    inputs = windows[:, :seq_len].copy()
    targets = windows[:, seq_len:].copy()
    return WindowedDataset(inputs=inputs, targets=targets, split=split_tag,
                           stats=stats)


@dataclass(frozen=True)
class SynthParams:
    """Shape of generated series; fields are used per kind as documented."""

    period: float = 24.0
    amplitude: float = 1.0
    noise: float = 0.0
    slope: float = 0.001
    shift_row: Optional[int] = None
    magnitude: float = 1.0
    period2: float = 12.0

    def __post_init__(self):
        checked = dict(
            {name: finite_number(name, getattr(self, name))
             for name in ("amplitude", "slope", "magnitude")},
            period=finite_number("period", self.period, above=0.0),
            period2=finite_number("period2", self.period2, above=0.0),
            noise=finite_number("noise", self.noise, at_least=0.0),
            shift_row=None if self.shift_row is None else
            whole_number("shift_row", self.shift_row))
        for name, value in checked.items():
            object.__setattr__(self, name, value)       # the class is frozen


def synth_series(kind: str, rows: int, channels: int, seed: int,
                 params: Optional[SynthParams] = None) -> SeriesTable:
    """Deterministic synthetic series for smoke tests and ablations.

    sine: amplitude * sin(2*pi*t/period + phase_c) + noise, where channel c
    leads by phase 2*pi*c/C (channel 0 has zero phase, matching the closed
    form sin(2*pi*t/period)).  sine_trend adds slope*t.  level_shift adds
    magnitude from shift_row on (default midpoint).  freq_shift switches
    the period to period2 at shift_row.
    """
    if kind not in SYNTH_KINDS:
        raise ConfigError(f"unknown kind {kind!r}; choose from {SYNTH_KINDS}")
    rows = whole_number("rows", rows, at_least=1)
    channels = whole_number("channels", channels, at_least=1)
    seed = whole_number("seed", seed)
    if rows * channels > np.iinfo(np.intp).max // 8:    # np.arange would wrap
        raise ConfigError(f"{rows} rows x {channels} channels exceed "
                          f"numpy's array size limit")
    p = params or SynthParams()
    shift = p.shift_row if p.shift_row is not None else rows // 2
    t = np.arange(rows, dtype=np.float64)[:, None]
    phase = 2.0 * np.pi * np.arange(channels)[None, :] / channels

    if kind == "freq_shift":
        period = np.where(t < shift, p.period, p.period2)
        base = p.amplitude * np.sin(2.0 * np.pi * t / period + phase)
    else:
        base = p.amplitude * np.sin(2.0 * np.pi * t / p.period + phase)
        if kind == "sine_trend":
            base = base + p.slope * t
        elif kind == "level_shift":
            base = base + p.magnitude * (t >= shift)

    if p.noise > 0:
        base = base + p.noise * make_rng(seed, "synth", kind).standard_normal(
            (rows, channels))
    if not np.all(np.isfinite(base)):
        raise ConfigError("synth parameters overflow float64")
    names = [f"ch{j}" for j in range(channels)]
    return SeriesTable(values=base, channel_names=names)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def run_record(stats: NormStats, data: DataSettings, **facts) -> dict:
    """A checkpoint's metadata: ``facts`` plus the statistics and split
    settings a forecast from it needs."""
    return dict(facts, norm_mean=stats.mean.tolist(),
                norm_std=stats.std.tolist(),
                split_ratios=list(data.split_ratios),
                window_stride=data.window_stride)


def run_settings(metadata: dict, channels: int
                 ) -> tuple[Optional[NormStats], DataSettings]:
    """The train-split statistics (None unless both are stored) and split
    settings of a run record; each key is checked on its own."""
    try:
        stats = {}
        for key, above in (("norm_mean", None), ("norm_std", 0.0)):
            if key in metadata:
                v = metadata[key]
                if not (isinstance(v, list) and len(v) == channels):
                    raise ConfigError(f"{key} must be a list of {channels} "
                                      f"finite numbers")
                stats[key] = np.array([finite_number(key, x, above=above)
                                       for x in v])
        ratios = metadata.get("split_ratios")
        split = DataSettings(
            ratios=None if ratios is None else
            _positive_ratios("split_ratios", ratios),
            window_stride=metadata.get("window_stride", 1))
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint metadata {exc}") from exc
    return (NormStats(mean=stats["norm_mean"], std=stats["norm_std"])
            if len(stats) == 2 else None), split


def checkpoint_save(params: DCTNetParams, cfg: ModelConfig, path,
                    metadata: Optional[dict] = None) -> None:
    """Write magic, version, JSON header, then named float64 tensor bytes.

    The header is serialized with sorted keys, so two identical states
    produce identical files byte for byte.
    """
    registry = params.named_parameters()
    header = {
        "config": cfg.to_dict(),
        "metadata": metadata or {},
        "tensors": [{"name": k, "shape": list(t.data.shape)}
                    for k, t in registry.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with atomic_write(path, binary=True) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IQ", _VERSION, len(blob)))
        fh.write(blob)
        for t in registry.values():
            fh.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())


def checkpoint_load(path) -> tuple[DCTNetParams, ModelConfig, dict]:
    """Rebuild (params, config, metadata as saved); every mismatch, in the
    run record too, names its offender."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:4] != _MAGIC:
        raise CheckpointError(f"{path} is not a checkpoint file")
    version, blob_len = struct.unpack("<IQ", raw[4:16])
    if version != _VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version}, expected {_VERSION}"
        )
    if len(raw) < 16 + blob_len:
        raise CheckpointError(f"truncated checkpoint header in {path}")
    try:
        header = json.loads(raw[16:16 + blob_len].decode())
    except ValueError as exc:       # bad UTF-8 or JSON, or an int too long
        raise CheckpointError(f"corrupt checkpoint header in {path}: {exc}")
    try:
        cfg = ModelConfig.from_dict(header["config"])
        stored = {}
        for entry in header["tensors"]:
            name, shape = entry["name"], entry["shape"]
            # (2.0,) == (2,), so a float extent would pass the shape check
            # below and fail in numpy's reshape
            if not (isinstance(shape, list) and all(
                    type(n) is int and n >= 0 for n in shape)):
                raise CheckpointError(
                    f"checkpoint parameter {name!r} has shape {shape!r}, "
                    f"not a list of non-negative integers")
            if name in stored:      # else the later entry would win
                raise CheckpointError(
                    f"checkpoint lists parameter {name!r} twice")
            stored[name] = tuple(shape)
        metadata = header.get("metadata", {})
        if not isinstance(metadata, dict):
            raise TypeError(f"metadata must be an object, got "
                            f"{type(metadata).__name__}")
    except (KeyError, TypeError, ValueError, ConfigError) as exc:
        raise CheckpointError(
            f"malformed checkpoint header in {path}: {exc!r}") from exc
    run_settings(metadata, cfg.channels)

    params = init_params(cfg)
    registry = params.named_parameters()
    for name in registry:
        if name not in stored:
            raise CheckpointError(f"checkpoint missing parameter {name!r}")
    for name, shape in stored.items():
        if name not in registry:
            raise CheckpointError(f"checkpoint has unknown parameter {name!r}")
        if shape != registry[name].shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {shape}, config requires "
                f"{registry[name].shape}"
            )

    offset = 16 + blob_len
    for entry in header["tensors"]:
        name, shape = entry["name"], tuple(entry["shape"])
        nbytes = 8 * int(np.prod(shape, dtype=np.int64))
        chunk = raw[offset:offset + nbytes]
        if len(chunk) < nbytes:
            raise CheckpointError(
                f"truncated checkpoint: parameter {name!r} is incomplete"
            )
        values = np.frombuffer(chunk, dtype="<f8").reshape(shape)
        if not np.all(np.isfinite(values)):
            raise CheckpointError(
                f"checkpoint parameter {name!r} holds NaN/Inf values")
        registry[name].data = values.copy()
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(
            f"checkpoint has {len(raw) - offset} trailing bytes"
        )
    small = np.flatnonzero(np.abs(params.revin.gamma.data) < MIN_GAIN)
    if small.size:
        raise CheckpointError(
            f"checkpoint parameter 'revin.gamma' entry {small[0]} has "
            f"|value| < {MIN_GAIN:g} and cannot be inverted")
    return params, cfg, metadata
