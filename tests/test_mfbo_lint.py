"""Fixture-driven tests for tools/mfbo_lint.

Runs the lint engine against tests/lint_fixtures (a miniature repo root)
and asserts that every rule fires on its bad fixture, stays silent on the
clean twin, and that suppressions / baselines behave as documented. Also
smoke-tests the CLI against the real repository, which must be clean.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE_ROOT = REPO_ROOT / "tests" / "lint_fixtures"
sys.path.insert(0, str(REPO_ROOT / "tools"))

from mfbo_lint.config import Config, Coupling, HotPath  # noqa: E402
from mfbo_lint.engine import LintEngine, list_rules  # noqa: E402

# Every rule with a firing fixture, and where it must fire.
EXPECTED = {
    ("D001", "src/demo/d001_random.cpp"),
    ("D002", "src/demo/d002_clock.cpp"),
    ("D002", "src/demo/d002_dump_clock.cpp"),
    ("D003", "src/demo/d003_unordered.cpp"),
    ("D004", "src/demo/d004_thread.cpp"),
    ("D005", "src/demo/d005_static.cpp"),
    ("C001", "src/demo/c001_contract.cpp"),
    ("E001", "src/demo/e001_sidestate.cpp"),
    ("C002", "src/demo/c002_assert.cpp"),
    ("C003", "src/demo/c003_catch.cpp"),
    ("O001", "src/demo/o001_nodumpspan.cpp"),
    ("O001", "src/demo/o001_nospan.cpp"),
    ("O002", "src/demo/o002_unlisted.cpp"),
    ("O003", "src/demo/o003_nojournal.cpp"),
    ("O003", "src/demo/o003_uncoupled.cpp"),
    ("S001", "src/demo/s001_stale.cpp"),
    ("S002", "src/demo/s002_malformed.cpp"),
}


def fixture_config() -> Config:
    """The fixture root registers its own hot paths (one file that misses
    its span, one clean twin that opens it), its own observability
    couplings (one deleted hook site, one intact), and a clock allowlist
    entry so the D002 recorder exemption is exercised."""
    return Config(
        hot_paths=(
            HotPath("src/demo/o001_nospan.cpp", "demo_phase"),
            HotPath("src/demo_clean/o001_span.cpp", "demo_phase"),
            # Flight-recorder dump-path pair: registered span missing on
            # the firing fixture, opened on the clean twin.
            HotPath("src/demo/o001_nodumpspan.cpp", "flightrec_dump"),
            HotPath("src/demo_clean/o001_dumpspan.cpp", "flightrec_dump"),
        ),
        couplings=(
            Coupling(
                "src/demo/o003_uncoupled.cpp",
                "emitHook",
                "frame close must dispatch the emit hook",
            ),
            Coupling(
                "src/demo_clean/o003_coupled.cpp",
                "emitHook",
                "frame close must dispatch the emit hook",
            ),
            # Journal hook-site pair, mirroring the real eventlog
            # couplings (kSessionStep, JournalScope, ...).
            Coupling(
                "src/demo/o003_nojournal.cpp",
                "journalHook",
                "engine advances must be journalled",
            ),
            Coupling(
                "src/demo_clean/o003_journal.cpp",
                "journalHook",
                "engine advances must be journalled",
            ),
        ),
        clock_allowed=(
            "src/demo_clean/d002_exempt_recorder.cpp",
            "src/demo_clean/d002_exempt_dump.cpp",
        ),
        engine_state_files=(
            "src/demo/e001_sidestate.cpp",
            "src/demo_clean/e001_transition.cpp",
        ),
    )


def run_fixture(baseline_path=None) -> dict:
    engine = LintEngine(FIXTURE_ROOT, fixture_config())
    return engine.run(baseline_path=baseline_path)


class FixtureFindings(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.report = run_fixture()
        cls.found = {
            (f["rule"], f["path"]) for f in cls.report["findings"]
        }

    def test_every_rule_fires_on_its_fixture(self):
        for rule, path in sorted(EXPECTED):
            with self.subTest(rule=rule):
                self.assertIn((rule, path), self.found)

    def test_no_unexpected_findings(self):
        self.assertEqual(self.found, EXPECTED)

    def test_clean_twins_stay_silent(self):
        noisy = [
            f
            for f in self.report["findings"]
            if f["path"].startswith("src/demo_clean/")
        ]
        self.assertEqual(noisy, [])

    def test_wellformed_suppression_silences_without_s001(self):
        path = "src/demo/suppressed_ok.cpp"
        self.assertFalse(any(p == path for _, p in self.found))
        self.assertGreaterEqual(self.report["suppressed_count"], 1)

    def test_reasonless_suppression_suppresses_but_errors(self):
        # The D005 in s002_malformed.cpp is silenced by its (reason-less)
        # annotation, which itself surfaces as S002 — a typo or a lazy
        # suppression can never pass quietly.
        path = "src/demo/s002_malformed.cpp"
        self.assertNotIn(("D005", path), self.found)
        self.assertIn(("S002", path), self.found)

    def test_report_shape(self):
        for key in (
            "version",
            "root",
            "files_scanned",
            "findings",
            "baselined",
            "suppressed_count",
            "counts_by_rule",
            "ok",
        ):
            self.assertIn(key, self.report)
        self.assertFalse(self.report["ok"])
        self.assertGreater(self.report["files_scanned"], 20)


class BaselineBehaviour(unittest.TestCase):
    def test_baseline_absorbs_and_flags_stale(self):
        with tempfile.NamedTemporaryFile(
            "w", suffix=".txt", delete=False
        ) as tmp:
            tmp.write("# transition entries\n")
            tmp.write("C001 src/demo/c001_contract.cpp\n")
            tmp.write("D001 src/demo/no_such_file.cpp\n")
            baseline = Path(tmp.name)
        try:
            report = run_fixture(baseline_path=baseline)
            found = {(f["rule"], f["path"]) for f in report["findings"]}
            base = {(f["rule"], f["path"]) for f in report["baselined"]}
            self.assertIn(("C001", "src/demo/c001_contract.cpp"), base)
            self.assertNotIn(("C001", "src/demo/c001_contract.cpp"), found)
            self.assertIn("B001", {r for r, _ in found})
        finally:
            baseline.unlink()


class RuleRegistry(unittest.TestCase):
    def test_every_documented_rule_is_registered(self):
        ids = {rule_id for rule_id, _ in list_rules()}
        for rule_id in sorted({r for r, _ in EXPECTED} | {"B001"}):
            self.assertIn(rule_id, ids)


class CliSmoke(unittest.TestCase):
    def _run(self, *args):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "tools"))
        return subprocess.run(
            [sys.executable, "-m", "mfbo_lint", *args],
            cwd=REPO_ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )

    def test_real_repo_is_clean(self):
        with tempfile.TemporaryDirectory() as tmp:
            report_path = Path(tmp) / "report.json"
            proc = self._run("--json", str(report_path))
            self.assertEqual(
                proc.returncode, 0, proc.stdout + proc.stderr
            )
            report = json.loads(report_path.read_text())
            self.assertTrue(report["ok"])
            self.assertEqual(report["findings"], [])

    def test_list_rules(self):
        proc = self._run("--list-rules")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        for rule_id in ("D001", "C001", "O001", "S001", "B001"):
            self.assertIn(rule_id, proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
