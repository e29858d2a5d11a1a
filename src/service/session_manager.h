// mfbo::service — SessionManager: N concurrent optimization sessions
// multiplexed over the one shared deterministic thread pool.
//
// Scheduling model: cooperative, fair, and deterministic. stepRound()
// steps every runnable session exactly once, in creation order; runAll()
// repeats rounds until nothing is runnable. Each step is one engine state
// transition whose heavy phases (batch simulations, GP restart training,
// MSP multistart, NARGP MC) fan out over the common/parallel pool and then
// yield back to the scheduler, so concurrency lives *inside* a step while
// the interleaving *between* sessions stays a fixed round-robin.
//
// Fairness contract (pinned by tests/test_session_manager.cpp): after any
// number of rounds, the step counts of the still-running sessions differ
// by at most one from the round count — no session can starve another, no
// matter how expensive its steps are.
//
// Crash recovery: with a checkpoint directory configured, the manager
// appends each session's checkpoint() — one run-log line — to
// `<dir>/<id>.ckpt.json` every checkpoint_every steps, and writes its
// resultJson() to `<dir>/<id>.result.json` (write-to-temp + rename) at
// completion. The log is only ever appended to, in one write per line;
// a kill mid-append leaves an unterminated final line, which recovery
// ignores and cuts off before the next append. Nothing is fsynced, so
// the guarantee covers process kills, not power loss. Recovery is
// id-keyed, never directory-scanned: create() with the same SessionSpec
// finds the result (adopt, already done) or the log (replay) and
// otherwise starts fresh — so a process killed at any scheduler boundary
// restarts every in-flight session from its last persisted boundary, and
// the recovered results are byte-identical to an uninterrupted run.
//
// Threading: the manager itself is single-driver — all calls come from one
// thread; parallelism comes from the pool underneath each step. This is
// what keeps the scheduler deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "service/session.h"

namespace mfbo::service {

struct SessionManagerOptions {
  /// Crash-recovery directory (created if missing). Empty disables
  /// persistence.
  std::string checkpoint_dir;
  /// Persist a session's checkpoint every k-th step (>= 1). The result
  /// document is always persisted at completion.
  std::size_t checkpoint_every = 1;
};

class SessionManager {
 public:
  explicit SessionManager(SessionManagerOptions options = {});
  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Create (or recover) the session for @p spec. Ids must be unique
  /// within the manager. With persistence configured, a persisted result
  /// or run log for this id is loaded before the session is admitted; a
  /// corrupted, mismatched or unreadable file (any open error but ENOENT)
  /// is a ContractViolation (or a parse error) and the session is NOT
  /// admitted — other sessions are unaffected.
  Session& create(SessionSpec spec);

  /// Lookup by id; unknown ids are a ContractViolation (find() below is
  /// the non-throwing probe).
  Session& session(const std::string& id);
  const Session* find(const std::string& id) const;

  /// Session ids in creation order (the scheduling order).
  std::vector<std::string> ids() const;
  std::size_t size() const { return sessions_.size(); }

  /// One fair scheduling round: step every kRunning session exactly once,
  /// in creation order, persisting on schedule. Returns the number of
  /// sessions stepped (0 = nothing runnable).
  std::size_t stepRound();

  /// Rounds until no session is runnable (all done or paused). Returns the
  /// number of rounds executed.
  std::size_t runAll();

  void pause(const std::string& id);
  void resume(const std::string& id);

  /// Persist @p id's current boundary immediately (a run-log line, or the
  /// result document once done). Requires persistence configured.
  void persist(const std::string& id);

  /// Remove the session and delete its recovery files.
  void destroy(const std::string& id);

  /// Scheduling rounds that stepped at least one session.
  std::uint64_t roundsCompleted() const { return rounds_; }

  /// Fleet health snapshot for the service exporter (service/health.h):
  /// {"format":"mfbo-health","version":2,"rounds":...,
  ///  "sessions":[Session::healthJson()...],
  ///  "pool":{workers,regions,pooled_regions,chunks,queue_depth},
  ///  "eventlog":{enabled,recorded,dropped}}.
  /// Operator-facing (wall-clock latency quantiles included), never part
  /// of the byte-determinism boundary.
  Json healthJson();

 private:
  Session& mustFind(const std::string& id);
  std::string checkpointPath(const std::string& id) const;
  std::string resultPath(const std::string& id) const;
  bool persistenceEnabled() const { return !options_.checkpoint_dir.empty(); }
  /// Persist @p session if its step count hits the schedule (or it is
  /// done); no-op without persistence.
  void persistOnSchedule(Session& session);
  void persistNow(Session& session);

  SessionManagerOptions options_;
  std::vector<std::unique_ptr<Session>> sessions_;  ///< creation order
  std::uint64_t rounds_ = 0;  ///< rounds that stepped >= 1 session
};

}  // namespace mfbo::service
