"""Repo-specific configuration: scopes, allowlists, hot-path registry.

Everything here is expressed in repo-relative POSIX paths. A rule's
allowlist names the *audited* exceptions — the infrastructure layer that is
allowed to own the dangerous construct because it is what makes the rest of
the codebase safe (e.g. common/parallel.cpp may use std::thread: it *is*
the thread pool). Everything else needs an inline suppression with a
reason, which keeps every exception greppable and reviewed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Directories scanned by default (relative to the repo root).
DEFAULT_PATHS = ["src", "tests", "bench", "examples"]

# Never scanned: deliberately-offending lint fixtures and build trees.
DEFAULT_EXCLUDES = [
    "tests/lint_fixtures",
    "build",
]
EXCLUDE_PREFIXES = ["build-", "build/"]

CPP_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}


def _path_in(path: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        path == p or path.startswith(p.rstrip("/") + "/") or path == p.rstrip("/")
        for p in prefixes
    )


@dataclass
class HotPath:
    """A registered hot-path phase: `file` must open ScopedSpan(`span`)."""

    file: str
    span: str


@dataclass
class Coupling:
    """A registered observability coupling: `file` must mention `token`.

    The observability stack works through cross-file hook sites — the span
    profiler dispatches to the timeline recorder, the pool hands captured
    arenas back, telemetry samples peak RSS. Deleting one of those call
    sites compiles and passes most tests; it only shows up as a silently
    poorer trace or report. Registering the (file, token) pair here makes
    the removal a lint failure with a written rationale.
    """

    file: str
    token: str
    why: str


@dataclass
class Config:
    # D001: ambient RNG. linalg/rng.* is the one audited seeding site.
    rng_allowed: tuple[str, ...] = ("src/linalg/rng.h", "src/linalg/rng.cpp")

    # D002: wall-clock reads. Telemetry and the span profiler measure time
    # by design; the timeline recorder stamps trace events (its output is
    # explicitly outside the deterministic artifact contract); bench
    # harnesses time their own repeat loops. The flight recorder's audited
    # exception covers one stamp helper that runs only in wall-clock dump
    # mode — deterministic-mode journals never read a clock.
    clock_allowed: tuple[str, ...] = (
        "src/common/telemetry.h",
        "src/common/telemetry.cpp",
        "src/common/spans.h",
        "src/common/spans.cpp",
        "src/common/timeline.h",
        "src/common/timeline.cpp",
        "src/common/eventlog.cpp",
        "bench",
    )

    # D004: raw threading primitives. common/parallel.* is the pool.
    thread_allowed: tuple[str, ...] = (
        "src/common/parallel.h",
        "src/common/parallel.cpp",
    )

    # D005: mutable static state. common/ is the audited process-wide state
    # layer (the trace sink, the pool, span arenas); statics elsewhere in
    # src/ need a suppression.
    static_allowed: tuple[str, ...] = ("src/common",)
    # Only src/ carries the no-mutable-static invariant; tests and benches
    # own their processes.
    static_scope: tuple[str, ...] = ("src",)

    # C001: contract checks on public numeric entry points (src/ only).
    contract_scope: tuple[str, ...] = ("src",)
    # Statements from the top of the body within which an MFBO_CHECK* must
    # appear (value-validating code may precede, e.g. unpacking a pair).
    contract_window: int = 6

    # O001: registered hot paths — the phase names serialized by the span
    # tree that the perf gate and run reports attribute cost to. Adding an
    # algorithm/phase? Register it here so the instrumentation cannot rot.
    hot_paths: tuple[HotPath, ...] = (
        # MFBO and WEIBO both run on the bo/engine.cpp state machine.
        HotPath("src/bo/engine.cpp", "mfbo"),
        HotPath("src/bo/engine.cpp", "weibo"),
        HotPath("src/bo/engine.cpp", "acq_low"),
        HotPath("src/bo/engine.cpp", "acq_high"),
        HotPath("src/bo/engine.cpp", "fidelity_decision"),
        HotPath("src/bo/engine.cpp", "simulate_low"),
        HotPath("src/bo/engine.cpp", "simulate_high"),
        HotPath("src/bo/engine.cpp", "observe"),
        HotPath("src/bo/engine.cpp", "fit_high"),
        HotPath("src/bo/engine.cpp", "fantasy"),
        HotPath("src/bo/gaspad.cpp", "gaspad"),
        HotPath("src/bo/gaspad.cpp", "acq_high"),
        HotPath("src/bo/gaspad.cpp", "fit_high"),
        HotPath("src/bo/gaspad.cpp", "simulate_high"),
        HotPath("src/bo/gaspad.cpp", "observe"),
        HotPath("src/bo/de_baseline.cpp", "de"),
        HotPath("src/bo/de_baseline.cpp", "simulate_high"),
        HotPath("src/bo/de_baseline.cpp", "observe"),
        HotPath("src/mf/nargp.cpp", "fit_low"),
        HotPath("src/mf/nargp.cpp", "fit_high"),
        HotPath("src/mf/nargp.cpp", "mc_integration"),
        HotPath("src/mf/ar1.cpp", "fit_low"),
        HotPath("src/mf/ar1.cpp", "fit_high"),
        HotPath("src/mf/multilevel.cpp", "fit_low"),
        HotPath("src/mf/multilevel.cpp", "fit_high"),
        HotPath("src/gp/gp_regressor.cpp", "gp_train"),
        HotPath("src/gp/gp_regressor.cpp", "gp_rebuild"),
        HotPath("src/gp/gp_regressor.cpp", "gp_extend"),
        HotPath("src/gp/gp_regressor.cpp", "nlml_restart"),
        HotPath("src/linalg/cholesky.cpp", "cholesky_factor"),
        HotPath("src/linalg/cholesky.cpp", "cholesky_append"),
        HotPath("src/opt/multistart.cpp", "multistart"),
        HotPath("src/opt/multistart.cpp", "local_search"),
        # Service layer: every scheduler-driven engine advance runs under
        # the session_step span inside the session's own arena.
        HotPath("src/service/session.cpp", "session_step"),
        # The explicit (non-signal) black-box dump path is span-covered so
        # persist-boundary snapshots show up in traces and memstats.
        HotPath("src/common/eventlog.cpp", "flightrec_dump"),
    )

    # E001: engine state-machine write sites. `state_` may be assigned only
    # inside Engine::transition() — the one legality-checked, checkpointable
    # boundary — in the files registered here. The header's member default
    # initializer is the declaration, not a transition, so only the .cpp is
    # listed.
    engine_state_files: tuple[str, ...] = ("src/bo/engine.cpp",)
    engine_transition_name: str = "transition"

    # O002: directories whose CMakeLists.txt must build every sibling .cpp.
    cmake_scope: tuple[str, ...] = ("src", "tests", "bench", "examples")

    # O003: observability hook sites that must keep existing. Each entry
    # pins a cross-file coupling of the spans/memstats/timeline stack.
    couplings: tuple[Coupling, ...] = (
        Coupling(
            "src/common/spans.cpp",
            "recordBegin",
            "span open must dispatch a timeline begin event while a "
            "recording is active",
        ),
        Coupling(
            "src/common/spans.cpp",
            "recordEnd",
            "span close must dispatch a timeline end event while a "
            "recording is active",
        ),
        Coupling(
            "src/common/spans.cpp",
            "PauseScope",
            "profiler arena growth must run under memstats::PauseScope or "
            "the profiler counts its own allocations",
        ),
        Coupling(
            "src/common/parallel.cpp",
            "beginWorkerCapture",
            "pool workers must capture per-thread span arenas or parallel "
            "regions drop out of attribution",
        ),
        Coupling(
            "src/common/parallel.cpp",
            "mergeCapturedTree",
            "captured worker trees must merge into the caller's span or "
            "counters depend on the thread count",
        ),
        Coupling(
            "src/common/parallel.cpp",
            "PauseScope",
            "pool job setup must run under memstats::PauseScope to keep "
            "alloc counters workload-only",
        ),
        Coupling(
            "src/common/telemetry.cpp",
            "peakRssBytes",
            "metricsSnapshot() must report the process peak-RSS sample",
        ),
        Coupling(
            "src/service/session.cpp",
            "ArenaScope",
            "every engine entry must run under the session's span arena or "
            "concurrent sessions interleave their span trees and counters",
        ),
        Coupling(
            "src/common/timeline.cpp",
            "PauseScope",
            "recorder buffer growth must run under memstats::PauseScope so "
            "recording does not perturb alloc counters",
        ),
        # Flight-recorder hook sites: each journalled event class has one
        # producer; deleting the call compiles but leaves the black box
        # silent about that part of the narrative.
        Coupling(
            "src/common/check.cpp",
            "noteContractViolation",
            "contract failures must be journalled (and black-box dumped) "
            "before the ContractViolation throw unwinds the evidence",
        ),
        Coupling(
            "src/bo/engine.cpp",
            "kEngineTransition",
            "every engine state transition must be journalled or crash "
            "dumps cannot identify the in-flight engine state",
        ),
        Coupling(
            "src/bo/engine.cpp",
            "kFidelityDecision",
            "low/high fidelity decisions must be journalled — the paper's "
            "core control signal belongs in the black box",
        ),
        Coupling(
            "src/service/session.cpp",
            "kSessionStep",
            "every scheduled engine advance must be journalled under its "
            "session label or dumps cannot attribute work to sessions",
        ),
        Coupling(
            "src/service/session.cpp",
            "ScopedLatency",
            "every session step must record into the step-latency SLO "
            "histogram or healthJson() quantiles go stale",
        ),
        Coupling(
            "src/service/session_manager.cpp",
            "dumpFlightRecorder",
            "persist boundaries must snapshot the flight recorder so the "
            "on-disk black box is as fresh as the newest checkpoint",
        ),
        Coupling(
            "src/service/session.cpp",
            "JournalScope",
            "every engine entry must run under the session's journal or "
            "its transitions and fidelity decisions journal nothing",
        ),
    )

    excludes: tuple[str, ...] = tuple(DEFAULT_EXCLUDES)
    extra: dict = field(default_factory=dict)

    def is_excluded(self, relpath: str) -> bool:
        if _path_in(relpath, self.excludes):
            return True
        return any(relpath.startswith(p) for p in EXCLUDE_PREFIXES)

    def allowed(self, relpath: str, prefixes: tuple[str, ...]) -> bool:
        return _path_in(relpath, prefixes)
