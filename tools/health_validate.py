#!/usr/bin/env python3
"""Validate mfbo health snapshots and flight-recorder dumps.

Three input kinds, any combination:

  * --health FILE     the "mfbo-health" v2 JSON document written by
                      SessionManager::healthJson() / the micro_sessions
                      --health flag. Pins the envelope, the per-session
                      SLO fields (steps, iterations, checkpoint age,
                      cost budget fraction, step-latency quantiles),
                      and the pool/eventlog sections.
  * --prom FILE       the Prometheus-style exposition written next to
                      the JSON (FILE.prom). Pins the text format: every
                      sample line parses as `name{labels} value`, every
                      family has exactly one `# TYPE` header, quantile
                      summaries carry _sum and _count.
  * --flightrec FILE  a flightrec.<pid>.jsonl black-box dump (v2: one
                      window per session journal). Pins the header line
                      (format/version/counters), every event line
                      (known kind, session label, seq strictly
                      increasing within its session), and the mode
                      contract: deterministic dumps carry no ts_ns,
                      wall-clock dumps stamp every event.

Gates for CI:

  * --require-kind KIND   (repeatable) at least one event of KIND must
                          be present in the flight-recorder dump.
  * --require-inflight    the dump must identify what the fleet was
                          doing when it stopped: the newest event (the
                          largest ts_ns; the last line of a
                          deterministic dump) names a session, and an
                          engine_transition for that session appears
                          in the window.

Exit status: 0 valid, 1 invalid, 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

EVENT_KINDS = {
    "session_create",
    "session_step",
    "session_done",
    "session_destroy",
    "engine_transition",
    "fidelity_decision",
    "checkpoint_persist",
    "checkpoint_restore",
    "contract_violation",
    "custom",
}

SESSION_NUMBER_FIELDS = (
    "steps",
    "iterations",
    "checkpoint_age_steps",
    "cost_spent",
    "cost_budget",
    "budget_fraction",
    "steps_per_sec",
)

LATENCY_FIELDS = ("count", "total_s", "p50_s", "p90_s", "p99_s")

POOL_FIELDS = ("workers", "regions", "pooled_regions", "chunks",
               "queue_depth")

EVENTLOG_FIELDS = ("recorded", "dropped")

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>\S+)$")
_ONE_LABEL = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
LABELS_RE = re.compile(rf"^{_ONE_LABEL}(?:,{_ONE_LABEL})*$")


def is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_health(doc: object) -> list[str]:
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["health document is not a JSON object"]
    if doc.get("format") != "mfbo-health":
        problems.append("health: format is not 'mfbo-health'")
    if doc.get("version") != 2:
        problems.append("health: version is not 2")
    if not is_number(doc.get("rounds")):
        problems.append("health: missing numeric 'rounds'")

    sessions = doc.get("sessions")
    if not isinstance(sessions, list):
        problems.append("health: missing 'sessions' array")
        sessions = []
    for i, session in enumerate(sessions):
        where = f"health: sessions[{i}]"
        if not isinstance(session, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("session", "algo", "status"):
            if not isinstance(session.get(key), str) or not session[key]:
                problems.append(f"{where}: missing string '{key}'")
        if session.get("status") not in ("running", "paused", "done", None):
            problems.append(f"{where}: unknown status "
                            f"'{session['status']}'")
        for key in SESSION_NUMBER_FIELDS:
            if not is_number(session.get(key)):
                problems.append(f"{where}: missing numeric '{key}'")
        latency = session.get("step_latency")
        if not isinstance(latency, dict):
            problems.append(f"{where}: missing 'step_latency' object")
        else:
            for key in LATENCY_FIELDS:
                if not is_number(latency.get(key)):
                    problems.append(
                        f"{where}: step_latency missing numeric '{key}'")
            quantiles = [latency.get(k) for k in ("p50_s", "p90_s", "p99_s")]
            if all(is_number(q) for q in quantiles) and not (
                    quantiles[0] <= quantiles[1] <= quantiles[2]):
                problems.append(f"{where}: latency quantiles not monotone")

    pool = doc.get("pool")
    if not isinstance(pool, dict):
        problems.append("health: missing 'pool' object")
    else:
        for key in POOL_FIELDS:
            if not is_number(pool.get(key)):
                problems.append(f"health: pool missing numeric '{key}'")

    journal = doc.get("eventlog")
    if not isinstance(journal, dict):
        problems.append("health: missing 'eventlog' object")
    else:
        if not isinstance(journal.get("enabled"), bool):
            problems.append("health: eventlog missing boolean 'enabled'")
        for key in EVENTLOG_FIELDS:
            if not is_number(journal.get(key)):
                problems.append(f"health: eventlog missing numeric '{key}'")
    return problems


def validate_prom(text: str) -> list[str]:
    problems: list[str] = []
    typed: dict[str, str] = {}
    sampled: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        where = f"prom line {lineno}"
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                problems.append(f"{where}: malformed TYPE header")
                continue
            _, _, name, family_type = parts
            if family_type not in ("counter", "gauge", "summary",
                                   "histogram", "untyped"):
                problems.append(f"{where}: unknown type '{family_type}'")
            if name in typed:
                problems.append(f"{where}: duplicate TYPE for '{name}'")
            typed[name] = family_type
            continue
        if line.startswith("#"):
            continue  # HELP or comment
        match = SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"{where}: unparseable sample: {line!r}")
            continue
        name = match.group("name")
        labels = match.group("labels")
        if labels and not LABELS_RE.match(labels):
            problems.append(f"{where}: bad label set '{labels}'")
        try:
            float(match.group("value"))
        except ValueError:
            problems.append(f"{where}: non-numeric value "
                            f"{match.group('value')!r}")
        # A summary's _sum/_count samples belong to the base family.
        base = re.sub(r"_(sum|count)$", "", name)
        if name not in typed and base not in typed:
            problems.append(f"{where}: sample '{name}' has no TYPE header")
        sampled.add(base if base in typed else name)
    for name, family_type in typed.items():
        if name not in sampled:
            problems.append(f"prom: family '{name}' ({family_type}) "
                            "declared but never sampled")
    if not typed:
        problems.append("prom: no metric families found")
    return problems


def validate_flightrec(lines: list[str], require_kinds: list[str],
                       require_inflight: bool) -> list[str]:
    problems: list[str] = []
    if not lines:
        return ["flightrec: empty file"]
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as error:
        return [f"flightrec header: invalid JSON: {error}"]
    if not isinstance(header, dict):
        return ["flightrec header: not a JSON object"]
    if header.get("format") != "mfbo-flightrec":
        problems.append("flightrec: format is not 'mfbo-flightrec'")
    if header.get("version") != 2:
        problems.append("flightrec: version is not 2")
    deterministic = header.get("deterministic")
    if not isinstance(deterministic, bool):
        problems.append("flightrec: missing boolean 'deterministic'")
        deterministic = False
    for key in ("pid", "ring_capacity", "recorded", "dropped", "events"):
        if not is_number(header.get(key)):
            problems.append(f"flightrec: header missing numeric '{key}'")
    if is_number(header.get("events")) and \
            header["events"] != len(lines) - 1:
        problems.append(
            f"flightrec: header claims {header['events']} events, "
            f"file has {len(lines) - 1}")

    events: list[dict] = []
    last_seq: dict[str, int] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        where = f"flightrec line {lineno}"
        try:
            event = json.loads(line)
        except json.JSONDecodeError as error:
            problems.append(f"{where}: invalid JSON: {error}")
            continue
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        events.append(event)
        session = event.get("session")
        if not isinstance(session, str):
            problems.append(f"{where}: missing string 'session'")
            session = ""
        if not is_number(event.get("seq")):
            problems.append(f"{where}: missing numeric 'seq'")
        elif event["seq"] <= last_seq.get(session, -1):
            problems.append(f"{where}: seq {event['seq']} not increasing "
                            f"in session '{session}'")
        else:
            last_seq[session] = event["seq"]
        kind = event.get("kind")
        if kind not in EVENT_KINDS:
            problems.append(f"{where}: unknown kind {kind!r}")
        has_ts = is_number(event.get("ts_ns"))
        if deterministic and has_ts:
            problems.append(f"{where}: deterministic dump carries ts_ns")
        if not deterministic and not has_ts:
            problems.append(f"{where}: wall-clock dump missing ts_ns")

    kinds_present = {e.get("kind") for e in events}
    for kind in require_kinds:
        if kind not in kinds_present:
            problems.append(f"flightrec: required kind '{kind}' absent")

    if require_inflight:
        # Windows are written per session, so the newest event is the one
        # with the largest stamp; a deterministic dump has no stamps and
        # its last line stands in.
        newest = events[-1] if events else None
        if not deterministic:
            stamped = [e for e in events if is_number(e.get("ts_ns"))]
            newest = max(stamped, key=lambda e: e["ts_ns"], default=None)
        session = newest.get("session") if newest else None
        if not isinstance(session, str) or not session:
            problems.append(
                "flightrec: --require-inflight but the newest event names "
                "no session")
        elif not any(e.get("kind") == "engine_transition"
                     and e.get("session") == session for e in events):
            problems.append(
                f"flightrec: no engine_transition for in-flight "
                f"session '{session}' in the window")
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Validate mfbo health snapshots and flight-recorder "
                    "dumps.")
    parser.add_argument("--health", type=Path,
                        help="mfbo-health v2 JSON document")
    parser.add_argument("--prom", type=Path,
                        help="Prometheus-style exposition file")
    parser.add_argument("--flightrec", type=Path,
                        help="flightrec.<pid>.jsonl black-box dump")
    parser.add_argument("--require-kind", action="append", default=[],
                        metavar="KIND",
                        help="require at least one flightrec event of KIND "
                             "(repeatable)")
    parser.add_argument("--require-inflight", action="store_true",
                        help="require the dump's newest event to identify "
                             "the in-flight session and engine state")
    args = parser.parse_args(argv)

    if not (args.health or args.prom or args.flightrec):
        parser.error("nothing to validate: pass --health, --prom, and/or "
                     "--flightrec")
    if (args.require_kind or args.require_inflight) and not args.flightrec:
        parser.error("--require-kind/--require-inflight need --flightrec")

    problems: list[str] = []
    try:
        if args.health:
            problems += validate_health(
                json.loads(args.health.read_text()))
        if args.prom:
            problems += validate_prom(args.prom.read_text())
        if args.flightrec:
            lines = args.flightrec.read_text().splitlines()
            problems += validate_flightrec(lines, args.require_kind,
                                           args.require_inflight)
    except OSError as error:
        print(f"health_validate: {error}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as error:
        print(f"health_validate: invalid JSON: {error}", file=sys.stderr)
        return 2

    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"health_validate: {len(problems)} problem(s)",
              file=sys.stderr)
        return 1
    print("health_validate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
