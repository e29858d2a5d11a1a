// mfbo::service — one optimization session: an Engine plus the scoped
// observability state that keeps it isolated from every other session.
//
// A Session owns its Problem, its Engine, a private span arena
// (common/spans.h), its step-latency histogram (common/telemetry.h) and
// its flight-recorder journal (common/eventlog.h). Every entry into the
// engine — construction, step, restore, snapshot — happens under an
// ArenaScope, and every one that journals also under a JournalScope, so N
// sessions interleaving on one driver thread and the shared worker pool
// accumulate spans, span counters, allocation attribution and journal
// events exactly as if each had run alone. The byte-identity contract
// tests/test_session_manager.cpp enforces follows directly: a session's
// --no-timing artifact is byte-identical solo vs. among 8 concurrent
// sessions at any thread count. Counters, like spans, are recorded only
// while the profiler is on.
//
// Persistence is the engine's run log (bo/engine.h): checkpoint() returns
// the bytes the current boundary appends to it, and restore() replays a
// persisted log. A restored session reproduces the *result* bytes of the
// uninterrupted run exactly, but not its metrics or span counters — replay
// serves logged evaluations instead of simulating, and replayed steps run
// outside the session_step span. Crash-recovery comparisons therefore use
// resultJson(); the solo-vs-concurrent comparisons, which never resume,
// use the full artifactJson().
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "bo/engine.h"
#include "bo/problem.h"
#include "common/eventlog.h"
#include "common/json.h"
#include "common/spans.h"
#include "common/telemetry.h"

namespace mfbo::service {

/// Builds the session's problem instance. Sessions own their problem:
/// the engine keeps a reference for its lifetime, and two sessions sharing
/// one Problem would make the evaluate() reentrancy contract (bo/problem.h)
/// a cross-session liability.
using ProblemFactory = std::function<std::unique_ptr<bo::Problem>()>;

/// Builds the session's engine over the session-owned problem.
using EngineFactory =
    std::function<std::unique_ptr<bo::Engine>(bo::Problem&)>;

/// Everything needed to (re)create a session. The factories outlive the
/// construction call: crash recovery rebuilds a fresh engine through them
/// and replays the persisted run log into it.
struct SessionSpec {
  std::string id;  ///< [A-Za-z0-9_-]+; doubles as the recovery file stem
  ProblemFactory problem;
  EngineFactory engine;
};

enum class SessionStatus {
  kRunning,  ///< schedulable: the next stepRound() will advance it
  kPaused,   ///< excluded from scheduling until resume()
  kDone,     ///< engine completed (or a completed run was adopted)
};

/// Lowercase status name used in artifacts ("running", "paused", "done").
const char* sessionStatusName(SessionStatus s);

class Session {
 public:
  /// Validates the id ([A-Za-z0-9_-]+) and constructs the problem and
  /// engine under this session's span arena, so construction-time
  /// allocations are attributed to this session.
  explicit Session(SessionSpec spec);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& id() const { return spec_.id; }
  SessionStatus status() const { return status_; }
  bool done() const { return status_ == SessionStatus::kDone; }
  /// Engine steps executed by this session (restored across recovery).
  std::size_t steps() const { return engine_->steps(); }

  /// Advance the engine one state, under the session's span arena and the
  /// "session_step" span. Requires kRunning; flips to kDone (capturing the
  /// result) when the engine finishes.
  void step();

  void pause();   ///< kRunning → kPaused
  void resume();  ///< kPaused → kRunning

  /// The bytes the current boundary appends to this session's run log: the
  /// engine's header line while nothing has been persisted, then one
  /// Engine::logRecord() line covering the evaluations since the last
  /// notePersisted(). Not callable once done.
  std::string checkpoint() const;

  /// Replay a persisted run log into this freshly constructed session
  /// (same spec) through Engine::replay(). Returns the length of the
  /// replayed prefix: an unterminated final line after it is not part of
  /// the log. Any mismatch the replay catches is a ContractViolation.
  std::size_t restore(std::string_view log);

  /// Adopt a persisted resultJson() document for a session that completed
  /// before a crash: validates the envelope and flips straight to kDone
  /// without touching the engine.
  void adoptResult(const Json& doc);

  /// The session's resume-stable product, available once done:
  /// {"format":"mfbo-session-result","version":1,"session":id,"algo":...,
  ///  "result":synthesisResultToJson(...)}. Byte-identical across solo,
  /// concurrent, and killed-and-recovered executions of the same spec.
  const Json& resultJson() const;

  /// Full observability artifact: status, steps, the result (once done),
  /// and this session's metricsSnapshot — with the profiler enabled, its
  /// span arena and the counters in it. With include_timing=false the
  /// document is byte-deterministic for non-resumed runs at any thread
  /// count and any degree of session interleaving.
  Json artifactJson(bool include_timing);

  /// Per-session SLO snapshot for the health exporter (service/health.h):
  /// status, steps, engine progress (iterations, cost spent vs. budget),
  /// step-latency quantiles from this session's private histogram, derived
  /// steps/sec, and the number of steps since the last persisted boundary
  /// (the checkpoint-age gauge). Wall-clock fields come from the latency
  /// histogram, so the document is operator-facing, not byte-deterministic.
  Json healthJson();

  /// This session's flight-recorder journal, labelled with its id.
  /// Install it with eventlog::JournalScope around anything that journals
  /// on the session's behalf.
  eventlog::Journal& journal() { return journal_; }

  /// Mark the current boundary as persisted. SessionManager calls this
  /// after every successful persistNow(): the next checkpoint() starts
  /// after it, and healthJson()'s checkpoint_age_steps gauge counts from
  /// it.
  void notePersisted();

 private:
  void complete();

  SessionSpec spec_;
  // The arena is declared before the engine so it outlives everything the
  // engine attributed to it.
  spans::SpanArena arena_;
  telemetry::Histogram step_latency_;
  eventlog::Journal journal_;
  std::unique_ptr<bo::Problem> problem_;
  std::unique_ptr<bo::Engine> engine_;
  SessionStatus status_ = SessionStatus::kRunning;
  std::size_t steps_at_last_persist_ = 0;
  std::size_t evaluations_at_last_persist_ = 0;
  bool log_started_ = false;  ///< the log on disk has its header line
  Json result_doc_;
};

}  // namespace mfbo::service
