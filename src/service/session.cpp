#include "service/session.h"

#include <utility>

#include "common/check.h"
#include "common/eventlog.h"
#include "common/memstats.h"

namespace mfbo::service {

namespace {

constexpr const char* kResultFormat = "mfbo-session-result";
constexpr int kEnvelopeVersion = 1;

bool validIdChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '-';
}

void checkId(const std::string& id) {
  MFBO_CHECK(!id.empty(), "session id must not be empty");
  for (const char c : id)
    MFBO_CHECK(validIdChar(c), "session id '", id,
               "' may only contain [A-Za-z0-9_-]");
}

/// Validation of a persisted result envelope: exact format tag, exact
/// version, and the session/algo identity this document claims to belong
/// to. A file swapped between sessions (or hand-edited) fails here.
void checkEnvelope(const Json& doc, const std::string& session_id,
                   const char* algo) {
  MFBO_CHECK(doc.isObject(), "session document must be a JSON object");
  MFBO_CHECK(doc.contains("format") && doc.at("format").isString() &&
                 doc.at("format").asString() == kResultFormat,
             "session document format must be '", kResultFormat, "'");
  MFBO_CHECK(doc.contains("version") && doc.at("version").isNumber() &&
                 doc.at("version").asNumber() == kEnvelopeVersion,
             "unsupported session document version");
  MFBO_CHECK(doc.contains("session") && doc.at("session").isString() &&
                 doc.at("session").asString() == session_id,
             "session document belongs to a different session id");
  MFBO_CHECK(doc.contains("algo") && doc.at("algo").isString() &&
                 doc.at("algo").asString() == algo,
             "session document belongs to a different algorithm");
}

}  // namespace

const char* sessionStatusName(SessionStatus s) {
  switch (s) {
    case SessionStatus::kRunning:
      return "running";
    case SessionStatus::kPaused:
      return "paused";
    case SessionStatus::kDone:
      return "done";
  }
  return "unknown";
}

Session::Session(SessionSpec spec)
    : spec_(std::move(spec)), journal_(spec_.id) {
  checkId(spec_.id);
  MFBO_CHECK(spec_.problem != nullptr, "session '", spec_.id,
             "' has no problem factory");
  MFBO_CHECK(spec_.engine != nullptr, "session '", spec_.id,
             "' has no engine factory");
  // Construction runs under the session's arena: everything the factories
  // allocate belongs to this session's tree — exactly as in a solo run.
  const spans::ArenaScope arena_scope(arena_);
  problem_ = spec_.problem();
  MFBO_CHECK(problem_ != nullptr, "session '", spec_.id,
             "' problem factory returned null");
  engine_ = spec_.engine(*problem_);
  MFBO_CHECK(engine_ != nullptr, "session '", spec_.id,
             "' engine factory returned null");
  const eventlog::JournalScope journal_scope(journal_);
  eventlog::record(eventlog::EventKind::kSessionCreate, engine_->algo());
}

void Session::step() {
  MFBO_CHECK(status_ == SessionStatus::kRunning, "step() on a ",
             sessionStatusName(status_), " session");
  const spans::ArenaScope arena_scope(arena_);
  // The journal scope outlives the step body: the engine's transition and
  // fidelity events recorded inside step() land in this session's journal.
  const eventlog::JournalScope journal_scope(journal_);
  eventlog::record(eventlog::EventKind::kSessionStep, nullptr, nullptr,
                   static_cast<std::int64_t>(steps()));
  {
    // session_step > <algo> > <phase spans>: the algo span reproduces the
    // run-span nesting of Engine::run(), so a stepped session's tree
    // matches a solo run driven the same way. The latency sample feeds the
    // health layer's SLO histogram.
    const telemetry::ScopedLatency latency(step_latency_);
    const spans::ScopedSpan step_span("session_step");
    const spans::ScopedSpan algo_span(engine_->algo());
    engine_->step();
  }
  if (engine_->done()) complete();
}

void Session::pause() {
  MFBO_CHECK(status_ == SessionStatus::kRunning, "pause() on a ",
             sessionStatusName(status_), " session");
  status_ = SessionStatus::kPaused;
}

void Session::resume() {
  MFBO_CHECK(status_ == SessionStatus::kPaused, "resume() on a ",
             sessionStatusName(status_), " session");
  status_ = SessionStatus::kRunning;
}

std::string Session::checkpoint() const {
  MFBO_CHECK(status_ != SessionStatus::kDone,
             "checkpoint() on a completed session");
  // Persistence is service machinery, not session workload: its
  // allocations must not show up in the session's span tree, or a
  // checkpointed run would diverge byte-wise from an unmonitored one.
  const memstats::PauseScope alloc_pause;
  std::string text = log_started_ ? std::string() : engine_->logHeader();
  text += engine_->logRecord(evaluations_at_last_persist_);
  return text;
}

std::size_t Session::restore(std::string_view log) {
  MFBO_CHECK(steps() == 0 && status_ == SessionStatus::kRunning,
             "restore() on a session that has already run");
  // The replay re-runs the session's steps; that work is this session's.
  const spans::ArenaScope arena_scope(arena_);
  const eventlog::JournalScope journal_scope(journal_);
  const std::size_t replayed = engine_->replay(log);
  log_started_ = replayed > 0;
  steps_at_last_persist_ = steps();
  evaluations_at_last_persist_ = engine_->evaluations();
  eventlog::record(eventlog::EventKind::kCheckpointRestore, "checkpoint",
                   nullptr, static_cast<std::int64_t>(steps()));
  return replayed;
}

void Session::notePersisted() {
  steps_at_last_persist_ = steps();
  evaluations_at_last_persist_ = engine_->evaluations();
  log_started_ = true;
}

void Session::adoptResult(const Json& doc) {
  MFBO_CHECK(steps() == 0 && status_ == SessionStatus::kRunning,
             "adoptResult() on a session that has already run");
  checkEnvelope(doc, spec_.id, engine_->algo());
  MFBO_CHECK(doc.contains("result"),
             "session result document is missing the result payload");
  result_doc_ = doc;
  status_ = SessionStatus::kDone;
  const eventlog::JournalScope journal_scope(journal_);
  eventlog::record(eventlog::EventKind::kCheckpointRestore, "result");
}

const Json& Session::resultJson() const {
  MFBO_CHECK(status_ == SessionStatus::kDone,
             "resultJson() before the session completed");
  return result_doc_;
}

Json Session::artifactJson(bool include_timing) {
  const spans::ArenaScope arena_scope(arena_);
  Json doc = Json::object();
  {
    const memstats::PauseScope alloc_pause;
    doc.set("format", "mfbo-session-artifact");
    doc.set("version", kEnvelopeVersion);
    doc.set("session", spec_.id);
    doc.set("algo", engine_->algo());
    doc.set("status", sessionStatusName(status_));
    doc.set("steps", steps());
    if (status_ == SessionStatus::kDone)
      doc.set("result", result_doc_.at("result"));
  }
  // Under the arena scope, so the snapshot reads this session's span tree
  // (metricsSnapshot pauses allocation accounting itself).
  doc.set("metrics", telemetry::metricsSnapshot(include_timing));
  return doc;
}

Json Session::healthJson() {
  // A health scrape is pure reporting: no engine entry, no workload
  // memory, readable between scheduler rounds at any time.
  const memstats::PauseScope alloc_pause;
  Json doc = Json::object();
  doc.set("session", spec_.id);
  doc.set("algo", engine_->algo());
  doc.set("status", sessionStatusName(status_));
  doc.set("steps", steps());
  doc.set("iterations", engine_->iterationCount());
  doc.set("checkpoint_age_steps", steps() - steps_at_last_persist_);
  const double budget = engine_->costBudget();
  const double spent = engine_->costSpent();
  doc.set("cost_spent", Json::number(spent));
  doc.set("cost_budget", Json::number(budget));
  doc.set("budget_fraction",
          Json::number(budget > 0.0 ? spent / budget : 0.0));
  const telemetry::Histogram& latency = step_latency_;
  Json step_latency = Json::object();
  step_latency.set("count",
                   Json::number(static_cast<double>(latency.count())));
  step_latency.set("total_s", Json::number(latency.totalSeconds()));
  step_latency.set("p50_s", Json::number(latency.quantileSeconds(0.50)));
  step_latency.set("p90_s", Json::number(latency.quantileSeconds(0.90)));
  step_latency.set("p99_s", Json::number(latency.quantileSeconds(0.99)));
  doc.set("step_latency", std::move(step_latency));
  const double total_s = latency.totalSeconds();
  doc.set("steps_per_sec",
          Json::number(total_s > 0.0
                           ? static_cast<double>(latency.count()) / total_s
                           : 0.0));
  return doc;
}

void Session::complete() {
  // Called from step() with the arena installed; result serialization is
  // reporting, not workload, so it stays out of the allocation counters.
  const memstats::PauseScope alloc_pause;
  const bo::SynthesisResult result = engine_->takeResult();
  result_doc_ = Json::object();
  result_doc_.set("format", kResultFormat);
  result_doc_.set("version", kEnvelopeVersion);
  result_doc_.set("session", spec_.id);
  result_doc_.set("algo", engine_->algo());
  result_doc_.set("result", bo::synthesisResultToJson(result));
  status_ = SessionStatus::kDone;
  eventlog::record(eventlog::EventKind::kSessionDone, nullptr, nullptr,
                   static_cast<std::int64_t>(steps()));
}

}  // namespace mfbo::service
