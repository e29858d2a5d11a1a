"""Tests for the run-history registry and the trace tools.

Exercises tools/mfbo_runs.py (artifact summarization, JSONL upsert
semantics keyed by bench/mode/seed/git-sha, Markdown report rendering),
tools/trace_validate.py (accepting a well-formed trace, rejecting each
class of schema violation the bench `--timeline` contract pins) and
tools/run_report.py's grouping of a `--trace` JSONL stream into runs.
Everything runs in-process against synthetic artifacts — no bench
binaries needed.
"""

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import mfbo_runs  # noqa: E402
import run_report  # noqa: E402
import trace_validate  # noqa: E402


def artifact(seed=1, objective=2.5, alloc=4096) -> dict:
    """A minimal but representative mfbo --out artifact."""
    return {
        "bench": "table1",
        "mode": "quick",
        "seed": seed,
        "runs": 3,
        "algorithms": [
            {
                "name": "Ours",
                "objectives": [objective, objective + 0.1, objective - 0.1],
                "reach_costs": [10.0, 12.0, 11.0],
                "wall_times": [0.5, 0.6, 0.4],
                "successes": 3,
                "total_runs": 3,
            }
        ],
        "metrics": {
            "peak_rss_bytes": 1 << 24,
            "spans": {
                "children": {
                    "mfbo": {
                        "count": 3,
                        "counters": {"alloc_count": 4, "alloc_bytes": alloc},
                        "children": {
                            "acq_high": {
                                "count": 30,
                                "counters": {
                                    "alloc_count": 8,
                                    "alloc_bytes": 2 * alloc,
                                },
                            }
                        },
                    }
                }
            },
        },
    }


def run_tool(module, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = module.main(argv)
    return code, out.getvalue()


class SummarizeArtifact(unittest.TestCase):
    def test_summary_extracts_key_stats_and_phases(self):
        record = mfbo_runs.summarize_artifact(artifact(), Path("a.json"))
        self.assertEqual(record["key"]["bench"], "table1")
        self.assertEqual(record["key"]["seed"], 1)
        ours = record["algorithms"]["Ours"]
        self.assertAlmostEqual(ours["median_objective"], 2.5)
        self.assertAlmostEqual(ours["avg_sims"], 11.0)
        self.assertEqual(ours["success_rate"], 1.0)
        # Phase rows: the top-level span and its direct child, with
        # subtree alloc sums.
        self.assertIn("mfbo", record["phases"])
        self.assertIn("mfbo/acq_high", record["phases"])
        self.assertEqual(record["phases"]["mfbo"]["alloc_bytes"], 3 * 4096)
        self.assertEqual(record["total_alloc_bytes"], 3 * 4096)
        self.assertEqual(record["peak_rss_bytes"], 1 << 24)

    def test_artifact_without_key_fields_exits_2(self):
        with contextlib.redirect_stderr(io.StringIO()):
            with self.assertRaises(SystemExit) as caught:
                mfbo_runs.summarize_artifact({"bench": "x"}, Path("a.json"))
        self.assertEqual(caught.exception.code, 2)


class AppendUpsert(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.dir = Path(self.tmp.name)
        self.index = self.dir / "runs" / "index.jsonl"

    def append(self, doc, sha):
        path = self.dir / "artifact.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = run_tool(
            mfbo_runs,
            ["append", str(path), "--index", str(self.index),
             "--git-sha", sha],
        )
        self.assertEqual(code, 0, out)
        return out

    def records(self):
        return [
            json.loads(line)
            for line in self.index.read_text().splitlines()
            if line.strip()
        ]

    def test_append_creates_index_and_same_key_replaces(self):
        out = self.append(artifact(objective=2.5), "abc1234")
        self.assertIn("appended", out)
        # Same (bench, mode, seed, sha): upsert, not duplicate.
        out = self.append(artifact(objective=9.9), "abc1234")
        self.assertIn("replaced", out)
        records = self.records()
        self.assertEqual(len(records), 1)
        self.assertAlmostEqual(
            records[0]["algorithms"]["Ours"]["median_objective"], 9.9
        )

    def test_distinct_keys_accumulate_history(self):
        self.append(artifact(seed=1), "abc1234")
        self.append(artifact(seed=2), "abc1234")
        self.append(artifact(seed=1), "def5678")
        self.assertEqual(len(self.records()), 3)

    def test_report_renders_tables_trends_and_phases(self):
        self.append(artifact(objective=2.5, alloc=1024), "abc1234")
        self.append(artifact(objective=2.0, alloc=4096), "def5678")
        code, out = run_tool(
            mfbo_runs, ["report", "--index", str(self.index)]
        )
        self.assertEqual(code, 0)
        self.assertIn("# mfbo run history", out)
        self.assertIn("## table1 · quick · seed 1", out)
        self.assertIn("abc1234", out)
        self.assertIn("def5678", out)
        self.assertIn("median objective", out)  # trend sparklines
        self.assertIn("Latest record, per-phase attribution:", out)
        self.assertIn("mfbo/acq_high", out)

    def test_report_on_missing_index_is_empty_but_ok(self):
        code, out = run_tool(
            mfbo_runs, ["report", "--index", str(self.index)]
        )
        self.assertEqual(code, 0)
        self.assertIn("no runs recorded", out)
        self.assertIn("does not exist", out)

    def test_bench_filter_excludes_other_benches(self):
        self.append(artifact(), "abc1234")
        code, out = run_tool(
            mfbo_runs,
            ["report", "--index", str(self.index), "--bench", "ablation"],
        )
        self.assertEqual(code, 0)
        self.assertIn("no runs recorded for bench 'ablation'", out)


class TraceValidate(unittest.TestCase):
    @staticmethod
    def trace(events):
        return {"traceEvents": events}

    @staticmethod
    def event(name, ph, ts=None, pid=1, tid=1):
        out = {"name": name, "ph": ph, "pid": pid, "tid": tid, "cat": "span"}
        if ts is not None:
            out["ts"] = ts
        return out

    def test_valid_nested_trace_passes(self):
        doc = self.trace([
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "mfbo"}},
            self.event("outer", "B", 0.0),
            self.event("inner", "B", 5.0),
            self.event("inner", "E", 9.0),
            self.event("outer", "E", 12.0),
        ])
        self.assertEqual(trace_validate.validate(doc, []), [])
        self.assertEqual(trace_validate.validate(doc, ["outer"]), [])

    def test_each_violation_class_is_rejected(self):
        cases = {
            "not an object": ["not", "a", "dict"],
            "empty traceEvents": self.trace([]),
            "unbalanced B": self.trace([self.event("a", "B", 0.0)]),
            "E without B": self.trace([self.event("a", "E", 0.0)]),
            "name mismatch": self.trace([
                self.event("a", "B", 0.0),
                self.event("b", "E", 1.0),
            ]),
            "backwards ts": self.trace([
                self.event("a", "B", 5.0),
                self.event("a", "E", 1.0),
            ]),
            "bad phase": self.trace([self.event("a", "Q", 0.0)]),
            "missing ts": self.trace([
                self.event("a", "B"),
                self.event("a", "E", 1.0),
            ]),
        }
        for label, doc in cases.items():
            with self.subTest(case=label):
                self.assertNotEqual(trace_validate.validate(doc, []), [])

    def test_require_span_flags_absent_phase(self):
        doc = self.trace([
            self.event("outer", "B", 0.0),
            self.event("outer", "E", 1.0),
        ])
        problems = trace_validate.validate(doc, ["mfbo"])
        self.assertTrue(any("mfbo" in p for p in problems))

    def test_cli_accept_and_reject(self):
        with tempfile.TemporaryDirectory() as tmp:
            good = Path(tmp) / "good.json"
            good.write_text(json.dumps(self.trace([
                self.event("outer", "B", 0.0),
                self.event("outer", "E", 1.0),
            ])))
            bad = Path(tmp) / "bad.json"
            bad.write_text(json.dumps(self.trace([
                self.event("outer", "B", 0.0),
            ])))
            code, _ = run_tool(trace_validate, [str(good), "--quiet"])
            self.assertEqual(code, 0)
            with contextlib.redirect_stderr(io.StringIO()):
                code, _ = run_tool(trace_validate, [str(bad)])
            self.assertEqual(code, 1)
            with contextlib.redirect_stderr(io.StringIO()):
                code = trace_validate.main([str(Path(tmp) / "missing.json")])
            self.assertEqual(code, 2)


class RunReportTrace(unittest.TestCase):
    @staticmethod
    def start(seed):
        return {"type": "run_start", "algo": "mfbo", "seed": seed}

    @staticmethod
    def iteration(n):
        return {"type": "iteration", "iter": n, "cost": float(n),
                "best_objective": 1.0 / n}

    @staticmethod
    def end():
        return {"type": "run_end", "best_objective": 0.5}

    def report(self, events) -> tuple[int, str]:
        """run_report.py --trace over @p events: exit code and stderr."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "trace.jsonl"
            path.write_text("".join(json.dumps(e) + "\n" for e in events))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = run_report.main(["--trace", str(path)])
                except SystemExit as exit_:
                    code = exit_.code
            return code, err.getvalue()

    def test_contiguous_runs_and_a_crashed_final_run_are_grouped(self):
        events = [self.start(1000), self.iteration(1), self.iteration(2),
                  self.end(), self.start(1001), self.iteration(1)]
        runs = run_report.group_runs(
            [(f"t:{i + 1}", e) for i, e in enumerate(events)])
        self.assertEqual([r["start"]["seed"] for r in runs], [1000, 1001])
        self.assertEqual([len(r["iterations"]) for r in runs], [2, 1])
        self.assertIsNone(runs[1]["end"])
        self.assertEqual(self.report(events), (0, ""))

    def test_interleaved_runs_exit_2_naming_the_line(self):
        # Two runs writing one sink at once: the second run_start lands
        # inside the first run.
        code, err = self.report([self.start(1000), self.start(1001),
                                 self.iteration(1), self.end(),
                                 self.iteration(1), self.end()])
        self.assertEqual(code, 2)
        self.assertIn("trace.jsonl:2: run_start inside the run from", err)
        self.assertIn("trace.jsonl:1", err)

    def test_event_outside_any_run_exits_2_naming_the_line(self):
        code, err = self.report([self.start(1000), self.iteration(1),
                                 self.end(), self.iteration(2)])
        self.assertEqual(code, 2)
        self.assertIn("trace.jsonl:4: iteration event outside any run", err)


if __name__ == "__main__":
    unittest.main(verbosity=2)
