#!/usr/bin/env python3
"""Interleaved A/B of two checkouts with the repository benchmark.

    python3 perfbench/ab.py --a <checkout A> --b <checkout B> --workload <name>

A and B are two source trees (e.g. `git worktree add ../a <parent>` and the
change). Both must hold the same perfbench/ directory: copy the benchmark of
one into the other before comparing, so only the program differs. Pair i of
PAIRS runs both sides on run seed FIRST_SEED + i for BENCHMARK.json's
run_seconds, alternating which side runs first. Both sides must give the same
model-output digest for every simulator seed of the pair (read from each
side's run record); otherwise the script stops with a non-zero exit. For
every end-to-end metric it prints each side's median and quartiles, the share
of pairs the change (B) wins, and the verdict of the rule in
perfbench/README.md ("Claiming a gain").
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
FIRST_SEED = 101


def run(checkout, workload, seed, seconds):
    """Runs one --trace 0 benchmark run; returns (metrics, digests by
    simulator seed)."""
    out = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: incorrect run at seed {seed}")
    with open(os.path.join(checkout, ".bench_build", "records",
                           f"{workload}-seed{seed}-trace0.json")) as f:
        digests = {sim["seed"]: sim["digest"]
                   for sim in json.load(f)["simulations"]}
    return result["metrics"], digests


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--a", required=True, help="parent checkout")
    parser.add_argument("--b", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                           "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]

    a_runs, b_runs = [], []
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        order = [("a", args.a), ("b", args.b)]
        if i % 2:
            order.reverse()
        digests = {}
        for side, checkout in order:
            metrics, digests[side] = run(checkout, args.workload, seed,
                                         seconds)
            (a_runs if side == "a" else b_runs).append(metrics)
            print(f"pair {i} seed {seed} {side}: " +
                  ", ".join(f"{k}={v['value']:.6g}" for k, v in
                            metrics.items()), flush=True)
        if digests["a"] != digests["b"]:
            sys.exit(f"seed {seed}: model outputs differ, A {digests['a']} "
                     f"vs B {digests['b']}")

    for name, direction in better.items():
        a = [m[name]["value"] for m in a_runs]
        b = [m[name]["value"] for m in b_runs]
        qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
        sign = 1 if direction == "higher" else -1
        wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
        gain = sign * (statistics.median(b) - statistics.median(a))
        claim = wins >= 0.9 * len(a) and gain > qa[2] - qa[0]
        print(f"{name}: A median {statistics.median(a):.6g} "
              f"[{qa[0]:.6g}, {qa[2]:.6g}]  B median "
              f"{statistics.median(b):.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
              f"B wins {wins}/{len(a)}  "
              f"{'GAIN' if claim else 'no claim'}")


if __name__ == "__main__":
    main()
