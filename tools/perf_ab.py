#!/usr/bin/env python3
"""Paired A/B runs of the repository benchmark: a base revision against the
current checkout, on the same seeds, in interleaved pairs.

    python3 tools/perf_ab.py --base HEAD~1 --workload cp_synth --seeds 1-5

Runs in the checkout that holds this script. Checks the base revision out into a git
worktree under a temporary directory (removed on exit), then, per seed,
runs perfbench/run.py --trace 0 for BENCHMARK.json's run_seconds in both
trees. Which side runs first alternates from pair to pair, so a drift in
the host's speed lands on both sides alike. Every result line is printed.
Then, per end-to-end metric: both medians, their ratio (change / base), the
change's wins out of the pairs (ties count for neither side; the direction
is the metric's `better` in BENCHMARK.json), the base's quartile spread
next to the metric's bound, and whether a gain may be claimed: at least
ten pairs, the change wins at least nine tenths of them, and its median
is better than the base's by more than the distance between the base's
quartiles. Adds no bounds of its own: exits 1 when any run fails, else 0.

Each run gets its own process group. SIGTERM or SIGINT kills the running
group (the benchmark and any compiler it started) and removes the base
worktree before exiting.
"""

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench" / "tools"))

from spread import parse_seeds, spread  # noqa: E402

SIDES = ("base", "change")

# The run.py process in flight, killed with its group on SIGTERM/SIGINT.
RUNNING = []


def run_order(pair_index):
    """Sides in the order they run for pair @p pair_index: the base first
    on even pairs, the change first on odd ones."""
    return SIDES if pair_index % 2 == 0 else SIDES[::-1]


def change_wins(base, change, better):
    """Pairs in which the change is strictly better; ties count for
    neither side."""
    if better == "lower":
        return sum(1 for b, c in zip(base, change) if c < b)
    return sum(1 for b, c in zip(base, change) if c > b)


def claim_holds(base, change, better):
    """The rule for claiming a gain: at least ten pairs, the change wins at
    least nine tenths of them, and the medians differ in the change's
    favour by more than the base's quartile distance (q3 - q1)."""
    if len(base) < 10:
        return False
    q1, _, q3 = statistics.quantiles(base, n=4)
    gain = statistics.median(base) - statistics.median(change)
    if better == "higher":
        gain = -gain
    wins = change_wins(base, change, better)
    return 10 * wins >= 9 * len(base) and gain > q3 - q1


def summarize(pairs, end_to_end):
    """One report line per end-to-end metric over completed @p pairs, each
    a {"base": metrics, "change": metrics} dict of result-line metrics."""
    lines = []
    for metric in end_to_end:
        name = metric["name"]
        base = [p["base"][name]["value"] for p in pairs]
        change = [p["change"][name]["value"] for p in pairs]
        base_med = statistics.median(base)
        change_med = statistics.median(change)
        ratio = change_med / base_med if base_med else float("inf")
        wins = change_wins(base, change, metric["better"])
        rel = spread(base)[1] if len(base) >= 2 else float("nan")
        claim = claim_holds(base, change, metric["better"])
        lines.append(
            f"{name:12s} base {base_med:11.6g}  change {change_med:11.6g}  "
            f"ratio {ratio:6.3f}  wins {wins}/{len(pairs)} "
            f"({metric['better']} is better)  base spread {rel:6.3f}  "
            f"bound {metric['bound']:.3f}  claim {'yes' if claim else 'no'}")
    return lines


def run_side(tree, workload, seed, seconds):
    """One untraced benchmark run in @p tree; returns (metrics or None,
    the result line)."""
    with subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=tree, stdout=subprocess.PIPE, text=True,
            start_new_session=True) as proc:
        RUNNING.append(proc)
        try:
            stdout, _ = proc.communicate()
        finally:
            RUNNING.remove(proc)
    last = stdout.rstrip("\n").split("\n")[-1]
    if proc.returncode != 0:
        return None, f"exit {proc.returncode} {last}"
    try:
        return json.loads(last)["metrics"], last
    except (json.JSONDecodeError, KeyError):
        return None, f"no result line: {last}"


def stop(signum, _frame):
    """Kill the run in flight with its whole process group, then unwind:
    run_side's Popen reaps it, and main's cleanup removes the worktree."""
    for proc in RUNNING:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="revision to compare against (default HEAD)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5",
                        help="a range 'A-B' or a list 'A,B,C'")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)

    ok = True
    pairs = []
    with tempfile.TemporaryDirectory(prefix="perf_ab_") as tmp:
        base_tree = pathlib.Path(tmp) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base_tree),
                        args.base], cwd=ROOT, check=True)
        trees = {"base": base_tree, "change": ROOT}
        try:
            for index, seed in enumerate(parse_seeds(args.seeds)):
                pair = {}
                for side in run_order(index):
                    metrics, line = run_side(trees[side], args.workload, seed,
                                             bench["run_seconds"])
                    print(f"seed {seed} {side}: {line}", flush=True)
                    if metrics is None:
                        ok = False
                    else:
                        pair[side] = metrics
                if len(pair) == len(SIDES):
                    pairs.append(pair)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force",
                            str(base_tree)], cwd=ROOT)

    if pairs:
        for line in summarize(pairs, bench["end_to_end"]):
            print(line)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
