"""Property tests over ``cli.main``: whatever config file, checkpoint or
command line a user hands it, a run ends with exit 0, 1 or 2 and a named
error, never an escaped exception, a numpy warning or an "internal error",
and its JSON output is strict.

Runs are in process on a micro model and a few hundred synthetic rows, so
a case takes milliseconds; shape settings that would ask for large
allocations or long training are kept small.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings, \
    strategies as st

from dctnet.cli import main
from dctnet.data_io import SYNTH_KINDS, checkpoint_load, checkpoint_save, \
    load_csv, save_csv
from dctnet.model import ModelConfig, init_params

from helpers import BAD_METADATA, LACKS_STATS, rewrite_header

MICRO = {"model": {"seq_len": 16, "pred_len": 4, "patch_len": 8,
                   "stride": 4, "latent_dim": 4, "heads": 2},
         "train": {"epochs": 1, "batch_size": 16}}

# data variants: the synth series, its test split's ch0 at 1e300 (the
# forecast overflows there), and ch1 held at 1e200 (every forecast does)
DATA_EDITS = {
    "sine": lambda v: None,
    "huge_tail": lambda v: v.__setitem__((slice(-20, None), 0), 1e300),
    "const_huge": lambda v: v.__setitem__((slice(None), 1), 1e200),
}
FINITE_EXTREMES = st.one_of(
    st.sampled_from([1.7e308, -1.7e308, 1.5e308, 1e308, -1e300, 5e-324]),
    st.floats(-1.7e308, 1.7e308))


@st.composite
def extreme_data(draw):
    """(channel, first row, value, wave): the synth series with one
    channel's rows from the first on set to a finite value up to +-1.7e308,
    or to that value times sin(t / 5) when ``wave``."""
    return (draw(st.integers(0, 1)), draw(st.integers(0, 159)),
            draw(FINITE_EXTREMES), draw(st.booleans()))


def data_path(root, data) -> str:
    """The CSV of a ``DATA_EDITS`` name, or one written for an
    ``extreme_data`` draw."""
    if isinstance(data, str):
        return str(root / f"{data}.csv")
    channel, first, value, wave = data
    table = load_csv(root / "sine.csv")
    rows = np.arange(table.rows - first)
    table.values[first:, channel] = value * np.sin(rows / 5.0) if wave \
        else value
    save_csv(table, root / "extreme.csv")
    return str(root / "extreme.csv")


# (section, key): real keys, plus misspellings of some; section None is
# the top level
KEYS = [(section, key) for section, keys in {
    "model": ["seq_len", "pred_len", "patch_len", "stride", "latent_dim",
              "heads", "depth", "dropout", "revin_eps", "correction",
              "channels", "disable_fsc", "seq_lne", "dropuot"],
    "train": ["lr", "epochs", "batch_size", "patience", "clip_norm", "lrr",
              "epoch"],
    "data": ["ratios", "preset", "window_stride", "path", "ratio",
             "windowstride"],
}.items() for key in keys] + [(None, "seed"), (None, "sed")]
# the largest value each of these may take: more trains longer or
# allocates more, which is a cost, not a contract question
CAPS = {"epochs": 2, "latent_dim": 16, "depth": 2, "heads": 16}

VALUES = st.one_of(
    st.sampled_from(["x", "", "2", [], [1], [1, 1], [6, 2, 2], {},
                     {"eps": -1.0}, {"eps": float("nan")}, True, None,
                     "ett", "standard"]),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.integers(-3, 24),
    st.floats(-10.0, 10.0, allow_nan=False),
    st.sampled_from([1e300, -1e300, 2**63, -2**63 - 1, 10**400,
                     -10**400]),
)


def _within_caps(entry) -> bool:
    (_section, key), value = entry
    return not (key in CAPS and isinstance(value, int)
                and value > CAPS[key])


@st.composite
def config_files(draw):
    """The micro config with up to three keys set to drawn values."""
    cfg = json.loads(json.dumps(MICRO))
    edits = draw(st.lists(st.tuples(st.sampled_from(KEYS), VALUES)
                          .filter(_within_caps), max_size=3))
    for (section, key), value in edits:
        (cfg.setdefault(section, {}) if section else cfg)[key] = value
    return cfg


def _strict(text: str):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


def check_run(argv):
    """Run ``main`` as a user would, with numpy's warnings at their defaults
    (pytest turns a ``RuntimeWarning`` into a failure), and assert the CLI
    contract; returns the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--quiet"])
        except SystemExit as exc:           # argparse refused the arguments
            assert exc.code == 2 and ": error: " in err.getvalue()
            event(f"{argv[0]} usage error")
            return 2
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2)
    assert not err.getvalue().startswith("internal error"), err.getvalue()
    if code != 0:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(("error: ", "training failed: "))
    elif argv[0] in ("train", "eval", "ablate"):
        _strict(out.getvalue())
    return code


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    """Synth data variants and a micro checkpoint trained on the plain one."""
    root = tmp_path_factory.mktemp("fuzz")
    sine = root / "sine.csv"
    assert main(["synth", "--kind", "sine", "--rows", "160", "--channels",
                 "2", "--noise", "0.1", "--out", str(sine), "--quiet"]) == 0
    for name, edit in DATA_EDITS.items():
        table = load_csv(sine)
        edit(table.values)
        save_csv(table, root / f"{name}.csv")
    (root / "micro.json").write_text(json.dumps(MICRO))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--config", str(root / "micro.json"),
                     "--data", str(sine), "--out", str(root / "run"),
                     "--quiet"]) == 0
    return root


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestConfigFuzz:
    @FUZZ
    @given(cfg=config_files(), data=st.one_of(
        st.sampled_from(sorted(DATA_EDITS)), extreme_data()))
    @example(cfg=MICRO, data="huge_tail")
    @example(cfg=MICRO, data=(0, 0, 1.7e308, False))
    @example(cfg={**MICRO, "train": {"lr": 10**400}}, data="sine")
    @example(cfg={**MICRO, "model": {**MICRO["model"], "stride": 2**63}},
             data="sine")
    @example(cfg={**MICRO, "model": {**MICRO["model"], "heads": True}},
             data="sine")
    @example(cfg={**MICRO, "model": {**MICRO["model"],
                                     "disable_fsc": float("nan")}},
             data="sine")
    def test_train_contract(self, fuzzdir, cfg, data):
        path = fuzzdir / "cfg.json"
        path.write_text(json.dumps(cfg))
        check_run(["train", "--config", str(path),
                   "--data", data_path(fuzzdir, data),
                   "--out", str(fuzzdir / "out")])


TENSORS = list(init_params(ModelConfig(channels=2, **MICRO["model"]))
               .named_parameters())


def _huge_spread(header):
    header["metadata"]["norm_std"] = [1e300, 1.0]
    return header


# header edits that leave the metadata valid but extreme
EXTREME_METADATA = {"huge_spread": _huge_spread}
METADATA_EDITS = {**BAD_METADATA, **LACKS_STATS, **EXTREME_METADATA}
# (key, channel, value) stored in place of one statistic: a positive
# subnormal or huge spread, or a huge mean
EXTREME_STATS = st.one_of(
    st.tuples(st.just("norm_std"), st.integers(0, 1), st.one_of(
        st.sampled_from([5e-324, 1e-310, 1e300, 1.7e308]),
        st.floats(5e-324, 2.2e-308), st.floats(1e300, 1.7e308))),
    st.tuples(st.just("norm_mean"), st.integers(0, 1), st.one_of(
        st.sampled_from([1.7e308, -1.7e308]), st.floats(-1.7e308, 1.7e308))))


def _store(key, channel, value):
    def edit(header):
        header["metadata"][key][channel] = value
        return header
    return edit


class TestCheckpointFuzz:
    @FUZZ
    @given(command=st.sampled_from(["eval", "forecast"]),
           data=st.one_of(st.just("sine"), st.sampled_from(sorted(DATA_EDITS)),
                          extreme_data()),
           metadata=st.one_of(st.none(), st.sampled_from(
               sorted(METADATA_EDITS)), EXTREME_STATS),
           scale=st.one_of(st.none(), st.tuples(
               st.sampled_from(TENSORS),
               st.sampled_from([-1.0, 1e10, 1e100, 1e200, 1e300]))),
           zero_gains=st.one_of(st.just([]), st.lists(
               st.integers(0, 1), min_size=1, max_size=2)))
    @example(command="eval", data="const_huge", metadata=None, scale=None,
             zero_gains=[])
    @example(command="forecast", data="const_huge", metadata=None,
             scale=None, zero_gains=[])
    @example(command="eval", data="sine", metadata=None,
             scale=("head.bias", 1e300), zero_gains=[])
    @example(command="forecast", data="sine", metadata="huge_spread",
             scale=("head.bias", 1e13), zero_gains=[])
    @example(command="eval", data="sine", metadata=("norm_std", 0, 1e-310),
             scale=None, zero_gains=[])
    @example(command="forecast", data="sine",
             metadata=("norm_std", 0, 1e-310), scale=None, zero_gains=[])
    @example(command="eval", data=(1, 0, 1.7e308, True), metadata=None,
             scale=None, zero_gains=[])
    def test_eval_and_forecast_contract(self, fuzzdir, command, data,
                                        metadata, scale, zero_gains):
        params, cfg, meta = checkpoint_load(fuzzdir / "run" / "checkpoint.dct")
        registry = params.named_parameters()
        if scale is not None:
            with np.errstate(over="ignore"):
                registry[scale[0]].data = registry[scale[0]].data * scale[1]
        registry["revin.gamma"].data[zero_gains] = 0.0
        ckpt = fuzzdir / "fuzzed.dct"
        checkpoint_save(params, cfg, ckpt, metadata=meta)
        if isinstance(metadata, str):
            rewrite_header(ckpt, METADATA_EDITS[metadata])
        elif metadata is not None:
            rewrite_header(ckpt, _store(*metadata))
        code = check_run([command, "--checkpoint", str(ckpt),
                          "--data", data_path(fuzzdir, data)])
        if metadata in (*BAD_METADATA, *LACKS_STATS) or zero_gains:
            assert code == 2


# --variants lists: real stages, repeats, blanks, wrong case and typos
VARIANT_LISTS = st.lists(st.sampled_from(
    ["dbct", "gpaf", "fsc", " fsc ", "", "FSC", "dcbt"]), max_size=3).map(
        ",".join)


class TestAblateFuzz:
    @settings(FUZZ, max_examples=60)
    @given(cfg=st.one_of(st.just(MICRO), config_files()),
           variants=VARIANT_LISTS,
           data=st.one_of(st.sampled_from(sorted(DATA_EDITS)),
                          extreme_data()))
    @example(cfg=MICRO, variants="fsc,fsc", data="sine")
    @example(cfg=MICRO, variants=",", data="huge_tail")
    def test_ablate_contract(self, fuzzdir, cfg, variants, data):
        path = fuzzdir / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = fuzzdir / "ablate.json"
        out.unlink(missing_ok=True)
        code = check_run(["ablate", "--config", str(path),
                          "--data", data_path(fuzzdir, data),
                          "--variants", variants, "--out", str(out)])
        if code == 0:
            rows = _strict(out.read_text())["variants"]
            assert rows[0]["name"] == "full"
            assert len(rows) == 1 + sum(1 for v in variants.split(",")
                                        if v.strip())
        else:
            assert not out.exists()


# sizes past the address space fail to allocate at once, whatever the
# machine; sizes between a few hundred and those are left out, since they
# could allocate for real
HUGE_SIZES = st.sampled_from([2**50, 2**62, 2**63 - 1, 2**63, 10**400,
                              -2**63])
SYNTH_FLOATS = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1e-320", "1e308",
                     "x"]),
    st.floats(-100.0, 100.0).map(repr))
SYNTH_FLAGS = {
    "--channels": st.one_of(st.integers(-1, 4), HUGE_SIZES),
    "--seed": st.sampled_from([-1, 0, 7, 2**64, -10**30]),
    "--shift-row": st.sampled_from([-5, 0, 10, 2**63]),
    **{flag: SYNTH_FLOATS for flag in (
        "--period", "--period2", "--amplitude", "--noise", "--slope",
        "--magnitude")},
}


class TestSynthFuzz:
    @settings(FUZZ, max_examples=150)
    @given(kind=st.sampled_from([*SYNTH_KINDS, "sawtooth"]),
           rows=st.one_of(st.integers(-1, 200), HUGE_SIZES),
           flags=st.dictionaries(st.sampled_from(sorted(SYNTH_FLAGS)),
                                 st.just(None), max_size=2).flatmap(
               lambda d: st.fixed_dictionaries(
                   {k: SYNTH_FLAGS[k] for k in d})))
    @example(kind="sine", rows=2**63 - 1, flags={})
    @example(kind="sine", rows=5, flags={"--channels": 2**63 - 1})
    @example(kind="sine", rows=10**400, flags={})
    @example(kind="sine", rows=2**50, flags={})
    @example(kind="sine", rows=10, flags={"--period": "0"})
    @example(kind="sine", rows=10, flags={"--noise": "nan"})
    def test_synth_contract(self, fuzzdir, kind, rows, flags):
        out = fuzzdir / "synth.csv"
        out.unlink(missing_ok=True)
        argv = ["synth", "--kind", kind, "--rows", str(rows),
                "--out", str(out)]
        for flag, value in flags.items():
            argv += [flag, str(value)]
        if check_run(argv) == 0:
            table = load_csv(out)
            assert table.rows == rows
            assert table.channels == int(flags.get("--channels", 1))
        else:
            assert not out.exists()
