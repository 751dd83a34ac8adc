"""dctnet benchmark: one workload per process, one caller in a closed loop.

    python3 dctbench/run.py --workload train_c7 --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the library from ``src/``.
With ``--trace 0`` it reports the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a separate traced run.  The last line of stdout
is one JSON object; the lines before it show every number with its unit
and the machine.  A fuller record (and, when traced, every span) goes to
``.bench_out/`` under the repository root.  See README.md beside this file
for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, description); the keys of the JSON line for each mode
END_TO_END = {
    "windows_per_s": ("1/s", "train windows x epochs / fit time "
                             "(train_*), test windows / evaluate time "
                             "(forecast_c21); median over units, scaled"),
    "op_ms_p50": ("ms", "median latency of one operation, a train step "
                        "or a B=1 forecast call; scaled"),
    "op_ms_p90": ("ms", "90th percentile of the same latencies; scaled"),
    "test_mse": ("mse", "evaluate(...).mse on the test split"),
    "setup_s": ("s", "median set-up time, warm-up call included; scaled"),
    "peak_rss_mb": ("MB", "peak resident memory of the process"),
}
PER_LAYER = {
    "numeric_engine.backward_ms": ("ms", "reverse tape replay"),
    "numeric_engine.tape_nodes": ("count", "len(tape) per train step"),
    "dual_branch.fwd_ms": ("ms", "fuse_branches forward"),
    "dual_branch.tape_nodes": ("count", "nodes recorded by fuse_branches"),
    "global_fusion.fwd_ms": ("ms", "global_patch_attention forward"),
    "global_fusion.tape_nodes": ("count", "nodes recorded by GPAF"),
    "spectral_correction.fwd_ms": ("ms", "apply_correction forward"),
    "spectral_correction.tape_nodes": ("count", "nodes recorded by FSC"),
    "fft.calls": ("count", "dft and idft calls, backward included"),
    "fft.ms": ("ms", "time in dft and idft"),
    "fft.bytes_computed": ("bytes", "bytes of transform output"),
    "revin.fwd_ms": ("ms", "revin normalize + denormalize"),
    "patch_embed.fwd_ms": ("ms", "segment_patches + embed_patches"),
    "model.forward_ms": ("ms", "whole forward"),
    "model.self_ms": ("ms", "forward minus its stages"),
    "trainer.loss_ms": ("ms", "mse_loss"),
    "trainer.clip_ms": ("ms", "clip_global_norm"),
    "trainer.adam_ms": ("ms", "adam_step"),
    "trainer.val_eval_ms": ("ms", "validation evaluate inside fit"),
    "data_io.load_csv_ms": ("ms", "per set-up"),
    "data_io.make_windows_ms": ("ms", "per set-up"),
    "data_io.checkpoint_save_ms": ("ms", "per set-up"),
    "data_io.checkpoint_load_ms": ("ms", "per set-up"),
    "trace.op_ms_p50_overhead": ("ms", "traced minus untraced op_ms_p50"),
    "trace.windows_per_s_overhead": ("1/s", "traced minus untraced "
                                            "windows_per_s"),
}


def pin_blas_threads() -> int:
    """One BLAS thread, set before numpy loads.

    The benchmark is one caller in a closed loop.  A second BLAS thread
    barely speeds up these small GEMMs, spins on the other core, and makes
    timings track whatever else runs on the machine.
    """
    for var in BLAS_ENV:
        os.environ[var] = "1"
    return 1


def blas_runtime(np) -> dict:
    """BLAS name and version from numpy's build, threads from the library."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "threads": None}
    import ctypes
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine(np, blas_threads_set: int) -> dict:
    blas = blas_runtime(np)
    return {"cores": os.cpu_count(), "usable_cores":
            len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas["name"],
            "blas_version": blas["version"],
            "blas_threads": blas["threads"] if blas["threads"] is not None
            else blas_threads_set,
            "platform": platform.platform(), "git_commit": git_commit()}


def import_library():
    """Import dctnet from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import dctnet
    if Path(dctnet.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"dctnet resolved to {dctnet.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    threads = pin_blas_threads()
    try:
        import_library()
    except ImportError as exc:
        print(f"cannot import dctnet from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    import numpy as np
    import reference
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), out_dir)
    result["machine"] = machine(np, threads)
    tally = result.pop("tally")
    result.update(attempted=tally.attempted, failed=tally.failed,
                  problems=tally.problems)
    spec = PER_LAYER if args.trace else END_TO_END
    values = result["per_layer" if args.trace else "end_to_end"]
    metrics = {k: {"value": values[k], "unit": unit}
               for k, (unit, _) in spec.items()}
    correct = tally.failed == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "parent", "start_ns", "end_ns", "tape_nodes",
                        "bytes"], "spans": spans}))
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))

    for key, value in result["machine"].items():
        print(f"machine.{key}: {value}")
    timed = result["untraced"]
    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s, "
          f"{timed['ops']} operations in {timed['units']} units")
    for name, (unit, what) in spec.items():
        print(f"{name} = {values[name]:.6g} {unit}  ({what})")
    print(f"op_ms_p99 = {timed['op_ms_p99']:.6g} ms  (not gated: "
          f"{timed['ops'] // 100} samples lie beyond it)")
    raw = result["untraced_raw"]
    print("unscaled: " + ", ".join(
        f"{k} = {raw[k]:.6g}" for k in ("windows_per_s", "op_ms_p50",
                                        "op_ms_p90", "op_ms_p99", "setup_s")))
    ref_ms = result["samples"]["reference_ms"]
    print(f"reference kernel: median {statistics.median(ref_ms):.4g} ms over "
          f"{len(ref_ms)} measurements, range {min(ref_ms):.4g}.."
          f"{max(ref_ms):.4g}; timings above are scaled to "
          f"{reference.NOMINAL_S * 1e3:g} ms")
    print(f"failed_frac = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for problem in tally.problems[:10]:
        print(f"problem: {problem}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
