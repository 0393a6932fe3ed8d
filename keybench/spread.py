#!/usr/bin/env python3
"""Runs a workload over several seeds and reports each metric's spread.

    python3 keybench/spread.py --workload e2e --runs 10 [--first-seed 1]
        [--seconds 10] [--trace 0|1]

For every metric it prints the median of the runs and the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median, next to the metric's bound from BENCHMARK.json. A run that fails
its output checks stops the sweep.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines or \
                not json.loads(lines[-1])["correct"]:
            sys.exit(f"seed {seed}: run failed\n{out.stdout}{out.stderr}")
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s")
    print(f"{'metric':34} {'median':>14} {'iqr/median':>11} {'bound':>6}")
    for name, series in values.items():
        med = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:34} {med:14.6g} {spread:11.4f} "
              f"{'' if bound is None else f'{bound:6.2f}'}")


if __name__ == "__main__":
    main()
