#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the command in BENCHMARK.json once per seed on one workload and
prints, per metric, the median of the runs and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median. End-to-end metrics are compared against their bound.

    python3 perfbench/spread.py --workload plan_mix --seeds 1-10
    python3 perfbench/spread.py --workload plan_mix --seeds 1-5 --trace 1
    python3 -m unittest discover -s perfbench -p spread.py   # self-tests

Run from the repository root. Builds into .bench_build unless
CARGO_TARGET_DIR is set.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import unittest


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True, timeout=900)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: incorrect run:\n{out.stdout}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in args.seeds:
        runs.append(run_once(bench, args.workload, seed, args.trace))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    print(f"\n{args.workload}: {len(runs)} runs")
    worst = 0.0
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        s = spread(values) if len(values) > 1 and median else 0.0
        bound = bounds.get(name)
        note = ""
        if bound is not None and args.trace == 0:
            note = f"bound {bound}, spread/bound {s / bound:.2f}"
            if name != "setup_s":
                worst = max(worst, s / bound)
        print(f"  {name:<28} median {median:<14.6g} spread {s:.4f}  {note}")
    if args.trace == 0:
        print(f"worst spread/bound (setup_s excluded): {worst:.2f}")


class SpreadTest(unittest.TestCase):
    def test_spread_matches_quartiles(self):
        # quantiles([1..9], n=4) = [2.5, 5, 7.5]; (7.5 - 2.5) / 5 = 1
        self.assertAlmostEqual(spread([1, 2, 3, 4, 5, 6, 7, 8, 9]), 1.0)
        self.assertEqual(spread([4.0] * 10), 0.0)

    def test_seed_range(self):
        self.assertEqual(seed_range("3-5"), [3, 4, 5])
        self.assertEqual(seed_range("7"), [7])


if __name__ == "__main__":
    main()
