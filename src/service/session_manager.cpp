#include "service/session_manager.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <system_error>
#include <utility>

#include "common/check.h"
#include "common/eventlog.h"
#include "common/memstats.h"
#include "common/parallel.h"

namespace mfbo::service {

namespace {

/// Whole-file read; nullopt when the file does not exist. Any other open
/// failure (a symlink loop, EACCES, EIO), short reads and IO errors are a
/// ContractViolation — an unreadable recovery document must reject its
/// session, not let it start over as if nothing had been persisted.
std::optional<std::string> readFileIfExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    const std::error_code error(errno, std::generic_category());
    MFBO_CHECK(error == std::errc::no_such_file_or_directory,
               "cannot open session recovery file '", path,
               "': ", error.message());
    return std::nullopt;
  }
  std::string text;
  char buffer[4096];
  for (;;) {
    const std::size_t got = std::fread(buffer, 1, sizeof(buffer), f);
    text.append(buffer, got);
    if (got < sizeof(buffer)) break;
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  MFBO_CHECK(ok, "failed to read session recovery file '", path, "'");
  return text;
}

/// The result document lands under a temporary name and is renamed over
/// the target, so a kill mid-write leaves no torn result behind.
void writeFileAtomic(const std::string& path, const std::string& text) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  MFBO_CHECK(f != nullptr, "cannot open '", tmp, "' for writing");
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fputc('\n', f) != EOF;
  const bool ok = (std::fclose(f) == 0) && wrote;
  MFBO_CHECK(ok, "failed to write session recovery file '", tmp, "'");
  MFBO_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
             "failed to publish session recovery file '", path, "'");
}

/// One run-log append, in a single write. A failed append is cut back off,
/// so a later successful one cannot bury a torn line inside the log.
void appendFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  MFBO_CHECK(f != nullptr, "cannot open '", path, "' for appending");
  const long before =
      std::fseek(f, 0, SEEK_END) == 0 ? std::ftell(f) : -1L;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  const bool ok = (std::fclose(f) == 0) && wrote;
  if (!ok && before >= 0) {
    std::error_code ec;
    std::filesystem::resize_file(path, static_cast<std::uintmax_t>(before),
                                 ec);
  }
  MFBO_CHECK(ok, "failed to append to session recovery file '", path, "'");
}

}  // namespace

SessionManager::SessionManager(SessionManagerOptions options)
    : options_(std::move(options)) {
  MFBO_CHECK(options_.checkpoint_every >= 1,
             "checkpoint_every must be >= 1");
  if (persistenceEnabled()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.checkpoint_dir, ec);
    MFBO_CHECK(!ec, "cannot create checkpoint directory '",
               options_.checkpoint_dir, "': ", ec.message());
  }
}

Session& SessionManager::create(SessionSpec spec) {
  MFBO_CHECK(find(spec.id) == nullptr, "session id '", spec.id,
             "' already exists");
  auto session = std::make_unique<Session>(std::move(spec));
  if (persistenceEnabled()) {
    // Recovery is id-keyed, never directory-scanned: filesystem iteration
    // order is unspecified, and the set of sessions to serve is the
    // caller's knowledge, not the disk's. A completed run is adopted from
    // its result document; an in-flight one replays its run log. Either
    // path throwing (tampered bytes, foreign envelope, replay mismatch)
    // aborts only THIS create() — the manager and its other sessions are
    // untouched.
    const memstats::PauseScope alloc_pause;
    const std::string log_path = checkpointPath(session->id());
    if (const auto result = readFileIfExists(resultPath(session->id()))) {
      session->adoptResult(Json::parse(*result));
    } else if (const auto log = readFileIfExists(log_path)) {
      // Bytes past the replayed prefix are an append cut short by a kill;
      // cut them off so the next append starts a line.
      const std::size_t replayed = session->restore(*log);
      if (replayed < log->size())
        std::filesystem::resize_file(log_path, replayed);
    }
  }
  sessions_.push_back(std::move(session));
  return *sessions_.back();
}

Session& SessionManager::session(const std::string& id) {
  return mustFind(id);
}

const Session* SessionManager::find(const std::string& id) const {
  for (const auto& session : sessions_)
    if (session->id() == id) return session.get();
  return nullptr;
}

std::vector<std::string> SessionManager::ids() const {
  std::vector<std::string> out;
  out.reserve(sessions_.size());
  for (const auto& session : sessions_) out.push_back(session->id());
  return out;
}

std::size_t SessionManager::stepRound() {
  std::size_t stepped = 0;
  for (const auto& session : sessions_) {
    if (session->status() != SessionStatus::kRunning) continue;
    session->step();
    ++stepped;
    persistOnSchedule(*session);
  }
  if (stepped > 0) ++rounds_;
  return stepped;
}

std::size_t SessionManager::runAll() {
  std::size_t rounds = 0;
  while (stepRound() > 0) ++rounds;
  return rounds;
}

void SessionManager::pause(const std::string& id) { mustFind(id).pause(); }

void SessionManager::resume(const std::string& id) { mustFind(id).resume(); }

void SessionManager::persist(const std::string& id) {
  MFBO_CHECK(persistenceEnabled(),
             "persist() without a checkpoint directory");
  persistNow(mustFind(id));
}

void SessionManager::destroy(const std::string& id) {
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if ((*it)->id() != id) continue;
    {
      const eventlog::JournalScope journal_scope((*it)->journal());
      eventlog::record(eventlog::EventKind::kSessionDestroy, nullptr,
                       nullptr, static_cast<std::int64_t>((*it)->steps()));
    }
    sessions_.erase(it);
    if (persistenceEnabled()) {
      // Destroy means "forget": a later create() of the same id must start
      // fresh, not resurrect this session's state. Missing files are fine.
      std::remove(checkpointPath(id).c_str());
      std::remove(resultPath(id).c_str());
    }
    return;
  }
  MFBO_CHECK(false, "unknown session id '", id, "'");
}

Session& SessionManager::mustFind(const std::string& id) {
  for (const auto& session : sessions_)
    if (session->id() == id) return *session;
  MFBO_CHECK(false, "unknown session id '", id, "'");
  std::abort();  // unreachable: MFBO_CHECK(false) throws
}

std::string SessionManager::checkpointPath(const std::string& id) const {
  return options_.checkpoint_dir + "/" + id + ".ckpt.json";
}

std::string SessionManager::resultPath(const std::string& id) const {
  return options_.checkpoint_dir + "/" + id + ".result.json";
}

void SessionManager::persistOnSchedule(Session& session) {
  if (!persistenceEnabled()) return;
  if (session.done() || session.steps() % options_.checkpoint_every == 0)
    persistNow(session);
}

void SessionManager::persistNow(Session& session) {
  // Persistence is service machinery; its allocations stay invisible to
  // the per-span accounting so checkpointed and unmonitored runs produce
  // identical session artifacts.
  const memstats::PauseScope alloc_pause;
  const eventlog::JournalScope journal_scope(session.journal());
  if (session.done()) {
    writeFileAtomic(resultPath(session.id()), session.resultJson().dump());
    // The checkpoint is superseded; removing it keeps recovery single-path
    // (result wins) and the directory tidy. It may never have existed.
    std::remove(checkpointPath(session.id()).c_str());
    eventlog::record(eventlog::EventKind::kCheckpointPersist, "result",
                     nullptr, static_cast<std::int64_t>(session.steps()));
  } else {
    appendFile(checkpointPath(session.id()), session.checkpoint());
    eventlog::record(eventlog::EventKind::kCheckpointPersist, "checkpoint",
                     nullptr, static_cast<std::int64_t>(session.steps()));
  }
  session.notePersisted();
  // Snapshot the journal alongside the boundary: a fleet killed between
  // persists still leaves its last persisted window on disk even when no
  // signal handler got to run. No-op without a configured dump_dir.
  eventlog::dumpFlightRecorder();
}

Json SessionManager::healthJson() {
  const memstats::PauseScope alloc_pause;
  Json doc = Json::object();
  doc.set("format", "mfbo-health");
  doc.set("version", 2);
  doc.set("rounds", static_cast<std::size_t>(rounds_));
  Json session_arr = Json::array();
  for (const auto& session : sessions_)
    session_arr.push(session->healthJson());
  doc.set("sessions", std::move(session_arr));
  const parallel::PoolStats pool = parallel::poolStats();
  Json pool_obj = Json::object();
  pool_obj.set("workers", pool.workers);
  pool_obj.set("regions", static_cast<std::size_t>(pool.regions));
  pool_obj.set("pooled_regions",
               static_cast<std::size_t>(pool.pooled_regions));
  pool_obj.set("chunks", static_cast<std::size_t>(pool.chunks));
  pool_obj.set("queue_depth", static_cast<std::size_t>(pool.queue_depth));
  doc.set("pool", std::move(pool_obj));
  const eventlog::Stats journal = eventlog::stats();
  Json journal_obj = Json::object();
  journal_obj.set("enabled", eventlog::enabled());
  journal_obj.set("recorded", static_cast<std::size_t>(journal.recorded));
  journal_obj.set("dropped", static_cast<std::size_t>(journal.dropped));
  doc.set("eventlog", std::move(journal_obj));
  return doc;
}

}  // namespace mfbo::service
