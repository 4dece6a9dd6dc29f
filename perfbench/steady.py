#!/usr/bin/env python3
"""Run one workload several times and report how steady each metric is.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--seed0 1]
                                [--seconds S] [--trace 0|1] [--out FILE]

Runs perfbench/run.py once per seed (seed0, seed0+1, ...) from the checkout
root and prints, for each metric, the median and quartiles of its values
(Python's statistics.quantiles(values, n=4)), the spread (q3 - q1) / median,
and the metric's bound from BENCHMARK.json with a verdict: `ok` below a
third of the bound, `wide` below the bound, `OVER` beyond it.  --out saves
every run's result as JSON.  Exits non-zero when a run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"steady.py: run with seed {seed} failed (exit {proc.returncode})")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    results = []
    for i in range(args.runs):
        seed = args.seed0 + i
        result = run_once(args.workload, seed, seconds, args.trace)
        results.append({"seed": seed, **result})
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")

    print(f"\n{args.workload}: {args.runs} runs, {seconds} s each, trace {args.trace}")
    print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        q1, med, q3, rel = spread(values) if len(values) > 1 else (values[0],) * 3 + (0.0,)
        bound = bounds.get(name)
        verdict = "-" if bound is None else "ok" if rel < bound / 3 else "wide" if rel <= bound else "OVER"
        bound_text = "-" if bound is None else f"{bound:.2f}"
        print(f"{name + ' [' + unit + ']':<28}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{rel:>9.3f}{bound_text:>7}  {verdict}")
    return 0 if all(r["correct"] and r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
