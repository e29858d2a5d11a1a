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
is the metric's `better` in BENCHMARK.json), and the base's quartile
spread next to the metric's bound. Adds no bounds of its own: exits 1 when
any run fails, else 0.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench" / "tools"))

from spread import parse_seeds, spread  # noqa: E402

SIDES = ("base", "change")


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
        lines.append(
            f"{name:12s} base {base_med:11.6g}  change {change_med:11.6g}  "
            f"ratio {ratio:6.3f}  wins {wins}/{len(pairs)} "
            f"({metric['better']} is better)  base spread {rel:6.3f}  "
            f"bound {metric['bound']:.3f}")
    return lines


def run_side(tree, workload, seed, seconds):
    """One untraced benchmark run in @p tree; returns (metrics or None,
    the result line)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    last = done.stdout.rstrip("\n").split("\n")[-1]
    if done.returncode != 0:
        return None, f"exit {done.returncode} {last}"
    try:
        return json.loads(last)["metrics"], last
    except (json.JSONDecodeError, KeyError):
        return None, f"no result line: {last}"


def main():
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
