#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark: tiny graphs, a few seconds in all.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it runs perfbench/run.py with --tiny,
once untraced and once traced, and asserts that the run exits 0, that the
last line is the JSON result with exactly the keys correct, attempted,
failed and metrics, that every end-to-end (untraced) or per-layer (traced)
metric named in BENCHMARK.json is in it with its unit and is also printed
as a `metric NAME VALUE UNIT` line, and that error_rate is 0.  It also
checks that the benchmark fails without printing a result in a directory
holding only BENCHMARK.json and perfbench/.  Exits 0 when all checks pass.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS = 4


def run(cwd, *args):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(workload, trace, wanted, failures):
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", str(SECONDS),
               "--trace", str(trace), "--tiny")
    tag = f"{workload} trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        failures.append(f"{tag}: exit {proc.returncode}\n{proc.stderr[-1500:]}")
        return
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{tag}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        failures.append(f"{tag}: correct {result.get('correct')} failed {result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        failures.append(f"{tag}: attempted {result.get('attempted')}")
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = (float(parts[2]), parts[3])
    if printed.get("error_rate") != (0.0, "ratio"):
        failures.append(f"{tag}: error_rate line {printed.get('error_rate')}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(wanted):
        failures.append(f"{tag}: JSON metrics differ from BENCHMARK.json: "
                        f"extra {sorted(set(metrics) - set(wanted))}, "
                        f"missing {sorted(set(wanted) - set(metrics))}")
    for name, unit in wanted.items():
        got = metrics.get(name, {})
        value = got.get("value")
        if got.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{tag}: {name} in JSON is {got}, want unit {unit}")
        if name not in printed or printed[name][1] != unit:
            failures.append(f"{tag}: no `metric {name} VALUE {unit}` line")


def check_no_sources(failures):
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", "serve-gnm2k", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    if proc.returncode == 0 or "{" in proc.stdout:
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        check_run(workload, 0, end_to_end, failures)
        check_run(workload, 1, per_layer, failures)
        print(f"{workload}: checked", flush=True)
    check_no_sources(failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
