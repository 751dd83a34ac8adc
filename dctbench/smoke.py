"""Fast smoke check of the benchmark: every workload, both modes, short runs.

    python3 dctbench/smoke.py [--seconds 1]

Run from the repository root.  Fails (exit 1) when a run exits non-zero,
reports ``correct: false``, or leaves out, adds, mislabels or gives a
non-finite value for any metric that BENCHMARK.json names.  It also checks
that the benchmark refuses to run, without printing a result, in a copy
that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600


def run(cwd: Path, workload: str, seconds: str, trace: int
        ) -> subprocess.CompletedProcess:
    spec = json.loads((cwd / "BENCHMARK.json").read_text())
    return subprocess.run(spec["command"] + [
        "--workload", workload, "--seed", "0", "--seconds", seconds,
        "--trace", str(trace)], cwd=cwd, capture_output=True, text=True,
        timeout=TIMEOUT)


def check_result(proc: subprocess.CompletedProcess, expected: dict) -> list:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-800:]}"]
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return [f"last line is not JSON: {exc}"]
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"missing {sorted(set(expected) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            errors.append(f"{name}: unit {entry.get('unit')!r}, not {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{name}: value {value!r}")
    return errors


def check_bare_copy() -> list:
    """Without the library next to it the benchmark must fail quietly."""
    bare = ROOT / ".bench_out" / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    workload = spec["workloads"][0]["name"]
    proc = run(bare, workload, "1", 0)
    shutil.rmtree(bare)
    errors = []
    if proc.returncode == 0:
        errors.append("bare copy: exit code 0")
    if '"metrics"' in proc.stdout:
        errors.append("bare copy: printed a result")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", default="1")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {trace: {m["name"]: m["unit"] for m in spec[key]}
                for trace, key in ((0, "end_to_end"), (1, "per_layer"))}
    failures = check_bare_copy()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            errors = check_result(run(ROOT, workload, args.seconds, trace),
                                  expected[trace])
            status = "ok" if not errors else "FAIL"
            print(f"{workload} trace={trace}: {status}", flush=True)
            failures += [f"{workload} trace={trace}: {e}" for e in errors]
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
