#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics over several seeds.

    python3 perfbench/tools/spread.py --workload pa_synth --seeds 1-10

Run from the root of a checkout. Runs perfbench/run.py once per seed,
sequentially, for BENCHMARK.json's run_seconds, and prints each run's
result line. Then, for each end-to-end metric, it prints the median and the
spread (the distance between the first and third quartiles,
statistics.quantiles(values, n=4), as a share of the median) next to a
third of the metric's bound. Exits 1 when a run fails or a spread is wider
than a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5",
                        help="a range 'A-B' or a list 'A,B,C'")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    runs = []
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        last = done.stdout.rstrip("\n").split("\n")[-1]
        print(f"seed {seed}: exit {done.returncode} {last}", flush=True)
        if done.returncode != 0:
            ok = False
            continue
        runs.append(json.loads(last)["metrics"])

    if len(runs) < 2:
        sys.exit(1)
    for name, bound in bounds.items():
        med, rel = spread([r[name]["value"] for r in runs])
        good = rel <= bound / 3
        ok = ok and good
        print(f"{name:14s} median {med:12.6g}  spread {rel:6.3f}  "
              f"bound/3 {bound / 3:.3f} {'ok' if good else 'TOO WIDE'}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
