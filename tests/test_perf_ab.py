"""Tests for tools/perf_ab.py, the paired A/B helper for the repository
benchmark: the run order alternates from pair to pair, wins count strictly
better pairs in the metric's direction (ties for neither side), the
summary reports medians, ratio, wins, the base's spread and the claim
verdict per end-to-end metric, and a SIGTERM mid-run leaves no process
and no worktree behind. Everything but the SIGTERM test runs in-process on
synthetic results; that one drives the script against a throwaway git
repository whose benchmark is a sleeping stub.
"""

import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import perf_ab  # noqa: E402


def metrics(**values):
    """A result line's metrics section: {name: {"value": v, "unit": u}}."""
    return {name: {"value": v, "unit": "s"} for name, v in values.items()}


class RunOrderTest(unittest.TestCase):
    def test_sides_alternate_from_pair_to_pair(self):
        orders = [perf_ab.run_order(i) for i in range(4)]
        self.assertEqual(orders[0], ("base", "change"))
        self.assertEqual(orders[1], ("change", "base"))
        self.assertEqual(orders[2], orders[0])
        self.assertEqual(orders[3], orders[1])

    def test_each_pair_runs_both_sides_once(self):
        for i in range(5):
            self.assertEqual(sorted(perf_ab.run_order(i)),
                             ["base", "change"])


class WinCountTest(unittest.TestCase):
    def test_lower_is_better(self):
        base = [1.0, 2.0, 3.0, 4.0]
        change = [0.5, 2.5, 3.0, 3.9]
        # 0.5 < 1.0 and 3.9 < 4.0 win; 2.5 loses; 3.0 == 3.0 is a tie.
        self.assertEqual(perf_ab.change_wins(base, change, "lower"), 2)

    def test_higher_is_better(self):
        base = [10.0, 10.0, 10.0]
        change = [11.0, 9.0, 10.0]
        self.assertEqual(perf_ab.change_wins(base, change, "higher"), 1)

    def test_ties_count_for_neither_side(self):
        same = [1.0, 2.0, 3.0]
        self.assertEqual(perf_ab.change_wins(same, same, "lower"), 0)
        self.assertEqual(perf_ab.change_wins(same, same, "higher"), 0)


LINE_RE = re.compile(
    r"^(\S+)\s+base\s+(\S+)\s+change\s+(\S+)\s+ratio\s+(\S+)\s+"
    r"wins (\d+)/(\d+) \((\w+) is better\)\s+base spread\s+(\S+)\s+"
    r"bound (\S+)\s+claim (yes|no)$")


def parse(line):
    """The fields of one summary line, numbers as floats."""
    match = LINE_RE.match(line)
    assert match, line
    name, base, change, ratio, wins, n, better, spread, bound, claim = \
        match.groups()
    return {"name": name, "base": float(base), "change": float(change),
            "ratio": float(ratio), "wins": int(wins), "pairs": int(n),
            "better": better, "spread": float(spread),
            "bound": float(bound), "claim": claim == "yes"}


class SummaryTest(unittest.TestCase):
    END_TO_END = [
        {"name": "job_s_p50", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "jobs_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.25},
    ]

    def test_medians_ratio_wins_and_spread(self):
        pairs = [
            {"base": metrics(job_s_p50=2.0, jobs_per_s=0.5),
             "change": metrics(job_s_p50=1.0, jobs_per_s=1.0)},
            {"base": metrics(job_s_p50=2.0, jobs_per_s=0.5),
             "change": metrics(job_s_p50=1.0, jobs_per_s=1.0)},
            {"base": metrics(job_s_p50=2.0, jobs_per_s=0.5),
             "change": metrics(job_s_p50=2.0, jobs_per_s=0.5)},
        ]
        job, rate = [parse(line) for line in
                     perf_ab.summarize(pairs, self.END_TO_END)]
        self.assertEqual(job["name"], "job_s_p50")
        self.assertEqual((job["base"], job["change"]), (2.0, 1.0))
        self.assertEqual(job["ratio"], 0.5)
        # Two pairs won, the third a tie.
        self.assertEqual((job["wins"], job["pairs"]), (2, 3))
        self.assertEqual(job["better"], "lower")
        # Identical base runs: zero spread, printed next to the bound.
        self.assertEqual((job["spread"], job["bound"]), (0.0, 0.25))
        self.assertEqual(rate["ratio"], 2.0)
        self.assertEqual((rate["wins"], rate["better"]), (2, "higher"))

    def test_base_spread_is_the_quartile_distance_over_the_median(self):
        pairs = [{"base": metrics(job_s_p50=b, jobs_per_s=1.0),
                  "change": metrics(job_s_p50=b, jobs_per_s=1.0)}
                 for b in (1.0, 2.0, 3.0, 4.0, 5.0)]
        job, _ = [parse(line) for line in
                  perf_ab.summarize(pairs, self.END_TO_END)]
        q1, _, q3 = statistics.quantiles([1.0, 2.0, 3.0, 4.0, 5.0], n=4)
        self.assertAlmostEqual(job["spread"], (q3 - q1) / 3.0, places=3)
        self.assertEqual(job["wins"], 0)

    def test_single_pair_has_no_spread(self):
        pairs = [{"base": metrics(job_s_p50=2.0, jobs_per_s=0.5),
                  "change": metrics(job_s_p50=3.0, jobs_per_s=0.25)}]
        job, _ = [parse(line) for line in
                  perf_ab.summarize(pairs, self.END_TO_END)]
        self.assertEqual((job["wins"], job["pairs"]), (0, 1))
        self.assertTrue(math.isnan(job["spread"]))



class ClaimTest(unittest.TestCase):
    # Ten base runs with quartiles 2.75 and 8.25: a distance of 5.5.
    BASE = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]

    def test_nine_wins_inside_the_quartile_distance_is_no_claim(self):
        # 9/10 pairs won, but the median moves by 1.0 < 5.5.
        change = [b - 1.0 for b in self.BASE[:9]] + [11.0]
        self.assertEqual(perf_ab.change_wins(self.BASE, change, "lower"), 9)
        self.assertFalse(perf_ab.claim_holds(self.BASE, change, "lower"))

    def test_ten_wins_outside_the_quartile_distance_is_a_claim(self):
        change = [b - 6.0 for b in self.BASE]
        self.assertTrue(perf_ab.claim_holds(self.BASE, change, "lower"))
        higher = [b + 6.0 for b in self.BASE]
        self.assertTrue(perf_ab.claim_holds(self.BASE, higher, "higher"))
        # The same moves in the wrong direction claim nothing.
        self.assertFalse(perf_ab.claim_holds(self.BASE, change, "higher"))

    def test_fewer_than_ten_pairs_is_no_claim(self):
        base = self.BASE[:9]
        change = [b - 100.0 for b in base]
        self.assertFalse(perf_ab.claim_holds(base, change, "lower"))

    def test_summary_prints_the_verdict(self):
        end_to_end = [{"name": "job_s_p50", "better": "lower",
                       "bound": 0.25}]
        pairs = [{"base": metrics(job_s_p50=b),
                  "change": metrics(job_s_p50=b - 6.0)} for b in self.BASE]
        self.assertTrue(parse(perf_ab.summarize(pairs, end_to_end)[0])
                        ["claim"])


STUB_RUN = """import os, pathlib, time
pathlib.Path(os.environ["PERF_AB_STUB_PID"]).write_text(str(os.getpid()))
time.sleep(120)
"""


@unittest.skipUnless(shutil.which("git"), "needs git")
class StopTest(unittest.TestCase):
    def git(self, repo, *args):
        return subprocess.run(
            ["git", "-c", "user.name=perf-ab-test",
             "-c", "user.email=perf-ab-test@localhost",
             "-c", "commit.gpgsign=false", *args],
            cwd=repo, check=True, stdout=subprocess.PIPE, text=True).stdout

    def test_sigterm_kills_the_run_and_removes_the_worktree(self):
        with tempfile.TemporaryDirectory(prefix="perf_ab_test_") as tmp:
            repo = Path(tmp) / "repo"
            (repo / "tools").mkdir(parents=True)
            (repo / "perfbench" / "tools").mkdir(parents=True)
            shutil.copy(REPO_ROOT / "tools" / "perf_ab.py", repo / "tools")
            shutil.copy(REPO_ROOT / "perfbench" / "tools" / "spread.py",
                        repo / "perfbench" / "tools")
            (repo / "perfbench" / "run.py").write_text(STUB_RUN)
            (repo / "BENCHMARK.json").write_text(
                '{"run_seconds": 1, "end_to_end": []}')
            self.git(repo, "init", "-q")
            self.git(repo, "add", "-A")
            self.git(repo, "commit", "-q", "-m", "stub benchmark")

            pid_file = Path(tmp) / "stub.pid"
            env = dict(os.environ, PERF_AB_STUB_PID=str(pid_file))
            ab = subprocess.Popen(
                [sys.executable, str(repo / "tools" / "perf_ab.py"),
                 "--workload", "stub", "--seeds", "1"],
                cwd=repo, env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            try:
                deadline = time.monotonic() + 60
                while not pid_file.exists() or not pid_file.read_text():
                    self.assertIsNone(ab.poll(), "perf_ab exited early")
                    self.assertLess(time.monotonic(), deadline)
                    time.sleep(0.05)
                stub_pid = int(pid_file.read_text())
                ab.send_signal(signal.SIGTERM)
                self.assertEqual(ab.wait(timeout=60), 128 + signal.SIGTERM)
            finally:
                if ab.poll() is None:
                    ab.kill()
                    ab.wait()

            with self.assertRaises(ProcessLookupError):
                os.kill(stub_pid, 0)
            trees = self.git(repo, "worktree", "list").splitlines()
            self.assertEqual(len(trees), 1, trees)


if __name__ == "__main__":
    unittest.main()
