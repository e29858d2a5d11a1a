"""Tests for the health/flight-recorder artifact validator.

Drives tools/health_validate.py in-process on synthetic inputs: a
well-formed mfbo-health document, a well-formed exposition, and a
well-formed flightrec dump must all validate clean, and each class of
schema violation the contract pins (broken envelope, non-monotone
quantiles, unlabelled samples, seq regressions within a session,
unlabelled events, mode/timestamp mismatches, missing required kinds, no
identifiable in-flight session) must be rejected with a non-zero exit.
No C++ binaries needed.
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

import health_validate  # noqa: E402


def session(sid="s0", **overrides) -> dict:
    doc = {
        "session": sid,
        "algo": "mfbo",
        "status": "running",
        "steps": 4,
        "iterations": 2,
        "checkpoint_age_steps": 1,
        "cost_spent": 1.5,
        "cost_budget": 2.5,
        "budget_fraction": 0.6,
        "steps_per_sec": 12.0,
        "step_latency": {
            "count": 4,
            "total_s": 0.33,
            "p50_s": 0.05,
            "p90_s": 0.1,
            "p99_s": 0.1,
        },
    }
    doc.update(overrides)
    return doc


def health_doc(**overrides) -> dict:
    doc = {
        "format": "mfbo-health",
        "version": 2,
        "rounds": 3,
        "sessions": [session("s0"), session("s1", status="done")],
        "pool": {
            "workers": 4,
            "regions": 10,
            "pooled_regions": 6,
            "chunks": 40,
            "queue_depth": 0,
        },
        "eventlog": {
            "enabled": True,
            "recorded": 99,
            "dropped": 0,
        },
    }
    doc.update(overrides)
    return doc


PROM_TEXT = """\
# TYPE mfbo_rounds_total counter
mfbo_rounds_total 3
# TYPE mfbo_sessions gauge
mfbo_sessions 2
# TYPE mfbo_session_steps_total counter
mfbo_session_steps_total{session="s0",algo="mfbo"} 4
# TYPE mfbo_session_step_latency_seconds summary
mfbo_session_step_latency_seconds{session="s0",quantile="0.5"} 0.05
mfbo_session_step_latency_seconds_sum{session="s0"} 0.33
mfbo_session_step_latency_seconds_count{session="s0"} 4
"""


def event(seq, kind, ts=None, sid=None, **rest) -> dict:
    doc = {"seq": seq, "kind": kind}
    if ts is not None:
        doc["ts_ns"] = ts
    if sid is not None:
        doc["session"] = sid
    doc.update(rest)
    return doc


def flightrec_lines(events, deterministic=False, **header_overrides):
    header = {
        "format": "mfbo-flightrec",
        "version": 2,
        "pid": 1234,
        "deterministic": deterministic,
        "ring_capacity": 256,
        "recorded": len(events),
        "dropped": 0,
        "events": len(events),
    }
    header.update(header_overrides)
    return [json.dumps(header)] + [json.dumps(e) for e in events]


def wall_events():
    return [
        event(0, "session_create", ts=10, sid="s0", a="mfbo"),
        event(1, "engine_transition", ts=20, sid="s0",
              a="propose", b="await_results"),
        event(2, "fidelity_decision", ts=30, sid="s0", a="high"),
        event(3, "checkpoint_persist", ts=40, sid="s0", v0=1),
        event(4, "session_step", ts=50, sid="s0", v0=2),
    ]


def run_cli(argv):
    """Invoke health_validate.main, capturing output; returns (rc, text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = health_validate.main(argv)
    return rc, out.getvalue() + err.getvalue()


class HealthDocumentTest(unittest.TestCase):
    def test_well_formed_document_is_clean(self):
        self.assertEqual(health_validate.validate_health(health_doc()), [])

    def test_broken_envelope_is_rejected(self):
        problems = health_validate.validate_health(
            health_doc(format="other", version=3))
        self.assertTrue(any("format" in p for p in problems))
        self.assertTrue(any("version" in p for p in problems))

    def test_missing_slo_field_is_rejected(self):
        doc = health_doc()
        del doc["sessions"][0]["checkpoint_age_steps"]
        problems = health_validate.validate_health(doc)
        self.assertTrue(any("checkpoint_age_steps" in p for p in problems))

    def test_non_monotone_quantiles_are_rejected(self):
        doc = health_doc()
        doc["sessions"][0]["step_latency"]["p90_s"] = 0.01
        problems = health_validate.validate_health(doc)
        self.assertTrue(any("monotone" in p for p in problems))

    def test_unknown_status_is_rejected(self):
        problems = health_validate.validate_health(
            health_doc(sessions=[session(status="zombie")]))
        self.assertTrue(any("zombie" in p for p in problems))

    def test_version_one_document_is_rejected(self):
        problems = health_validate.validate_health(health_doc(version=1))
        self.assertTrue(any("version" in p for p in problems))

    def test_missing_pool_and_eventlog_are_rejected(self):
        doc = health_doc()
        del doc["pool"]
        del doc["eventlog"]
        problems = health_validate.validate_health(doc)
        self.assertTrue(any("pool" in p for p in problems))
        self.assertTrue(any("eventlog" in p for p in problems))


class PromExpositionTest(unittest.TestCase):
    def test_well_formed_exposition_is_clean(self):
        self.assertEqual(health_validate.validate_prom(PROM_TEXT), [])

    def test_sample_without_type_header_is_rejected(self):
        problems = health_validate.validate_prom("mystery_metric 1\n")
        self.assertTrue(any("no TYPE header" in p for p in problems))

    def test_declared_but_never_sampled_family_is_rejected(self):
        problems = health_validate.validate_prom(
            "# TYPE mfbo_ghost gauge\n"
            "# TYPE mfbo_real gauge\nmfbo_real 1\n")
        self.assertTrue(any("never sampled" in p for p in problems))

    def test_bad_label_set_is_rejected(self):
        problems = health_validate.validate_prom(
            "# TYPE m gauge\nm{session=unquoted} 1\n")
        self.assertTrue(problems)

    def test_non_numeric_value_is_rejected(self):
        problems = health_validate.validate_prom(
            "# TYPE m gauge\nm{s=\"x\"} not-a-number\n")
        self.assertTrue(any("non-numeric" in p for p in problems))

    def test_duplicate_type_header_is_rejected(self):
        problems = health_validate.validate_prom(
            "# TYPE m gauge\n# TYPE m counter\nm 1\n")
        self.assertTrue(any("duplicate TYPE" in p for p in problems))


class FlightrecTest(unittest.TestCase):
    def check(self, lines, kinds=(), inflight=False):
        return health_validate.validate_flightrec(
            lines, list(kinds), inflight)

    def test_well_formed_wall_clock_dump_is_clean(self):
        self.assertEqual(self.check(flightrec_lines(wall_events())), [])

    def test_well_formed_deterministic_dump_is_clean(self):
        events = [event(0, "session_create", sid="s0"),
                  event(1, "session_step", sid="s0", v0=1)]
        self.assertEqual(
            self.check(flightrec_lines(events, deterministic=True)), [])

    def test_bad_header_envelope_is_rejected(self):
        lines = flightrec_lines(wall_events(), format="nope", version=9)
        problems = self.check(lines)
        self.assertTrue(any("format" in p for p in problems))
        self.assertTrue(any("version" in p for p in problems))

    def test_event_count_mismatch_is_rejected(self):
        lines = flightrec_lines(wall_events())
        header = json.loads(lines[0])
        header["events"] = 99
        lines[0] = json.dumps(header)
        problems = self.check(lines)
        self.assertTrue(any("claims 99" in p for p in problems))

    def test_seq_regression_is_rejected(self):
        events = wall_events()
        events[2]["seq"] = 0
        problems = self.check(flightrec_lines(events))
        self.assertTrue(any("not increasing" in p for p in problems))

    def test_seq_counts_per_session(self):
        # Each journal numbers its own events: a second session's window
        # starts again at 0.
        events = wall_events() + [
            event(0, "session_create", ts=15, sid="s1", a="mfbo"),
            event(1, "engine_transition", ts=25, sid="s1"),
        ]
        self.assertEqual(self.check(flightrec_lines(events)), [])

    def test_event_without_session_is_rejected(self):
        events = [event(0, "session_step", ts=1, v0=1)]
        problems = self.check(flightrec_lines(events))
        self.assertTrue(any("missing string 'session'" in p
                            for p in problems))

    def test_unknown_kind_is_rejected(self):
        events = [event(0, "teleport", ts=1, sid="s0")]
        problems = self.check(flightrec_lines(events))
        self.assertTrue(any("teleport" in p for p in problems))

    def test_pool_dispatch_is_no_longer_a_kind(self):
        events = [event(0, "pool_dispatch", ts=1, sid="s0", v0=8)]
        problems = self.check(flightrec_lines(events))
        self.assertTrue(any("pool_dispatch" in p for p in problems))

    def test_version_one_dump_is_rejected(self):
        problems = self.check(flightrec_lines(wall_events(), version=1))
        self.assertTrue(any("version" in p for p in problems))

    def test_deterministic_dump_with_timestamps_is_rejected(self):
        lines = flightrec_lines(wall_events(), deterministic=True)
        problems = self.check(lines)
        self.assertTrue(any("carries ts_ns" in p for p in problems))

    def test_wall_clock_dump_without_timestamps_is_rejected(self):
        events = [event(0, "session_step", sid="s0")]
        problems = self.check(flightrec_lines(events))
        self.assertTrue(any("missing ts_ns" in p for p in problems))

    def test_required_kind_gate(self):
        lines = flightrec_lines(wall_events())
        self.assertEqual(self.check(lines, kinds=["checkpoint_persist"]),
                         [])
        problems = self.check(lines, kinds=["contract_violation"])
        self.assertTrue(any("contract_violation" in p for p in problems))

    def test_inflight_gate_accepts_identifiable_session(self):
        self.assertEqual(
            self.check(flightrec_lines(wall_events()), inflight=True), [])

    def test_inflight_gate_rejects_an_empty_window(self):
        problems = self.check(flightrec_lines([]), inflight=True)
        self.assertTrue(any("names no session" in p for p in problems))

    def test_inflight_gate_needs_an_engine_transition(self):
        events = [event(0, "session_step", ts=1, sid="s0", v0=1)]
        problems = self.check(flightrec_lines(events), inflight=True)
        self.assertTrue(any("engine_transition" in p for p in problems))

    def test_inflight_gate_follows_the_newest_stamp(self):
        # s1's window comes last in the file, but s0 recorded last: the
        # gate judges s0, which has a transition.
        s1 = [event(0, "session_step", ts=12, sid="s1", v0=1)]
        self.assertEqual(
            self.check(flightrec_lines(wall_events() + s1), inflight=True),
            [])
        # Once s1 holds the newest stamp, its missing transition counts.
        s1[0]["ts_ns"] = 60
        problems = self.check(flightrec_lines(wall_events() + s1),
                              inflight=True)
        self.assertTrue(any("'s1'" in p for p in problems))

    def test_inflight_gate_takes_the_last_line_when_deterministic(self):
        s0 = [event(0, "engine_transition", sid="s0")]
        s1 = [event(0, "session_step", sid="s1", v0=1)]
        self.assertEqual(
            self.check(flightrec_lines(s1 + s0, deterministic=True),
                       inflight=True), [])
        problems = self.check(flightrec_lines(s0 + s1, deterministic=True),
                              inflight=True)
        self.assertTrue(any("'s1'" in p for p in problems))


class CliTest(unittest.TestCase):
    def test_all_three_inputs_validate_together(self):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "health.json").write_text(json.dumps(health_doc()))
            (root / "health.json.prom").write_text(PROM_TEXT)
            (root / "flightrec.1.jsonl").write_text(
                "\n".join(flightrec_lines(wall_events())) + "\n")
            rc, text = run_cli([
                "--health", str(root / "health.json"),
                "--prom", str(root / "health.json.prom"),
                "--flightrec", str(root / "flightrec.1.jsonl"),
                "--require-kind", "checkpoint_persist",
                "--require-inflight",
            ])
            self.assertEqual(rc, 0, text)
            self.assertIn("OK", text)

    def test_invalid_input_exits_one(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "health.json"
            path.write_text(json.dumps({"format": "wrong"}))
            rc, text = run_cli(["--health", str(path)])
            self.assertEqual(rc, 1)
            self.assertIn("problem", text)

    def test_missing_file_exits_two(self):
        rc, _ = run_cli(["--health", "/nonexistent/health.json"])
        self.assertEqual(rc, 2)


if __name__ == "__main__":
    unittest.main()
