// Flight-recorder battery: ring-wrap drop accounting, journal labels and
// scopes, slot release and reuse, deterministic-mode byte identity at 1 vs
// 4 threads (sessions stepped serially or as pool tasks), the
// ContractViolation hook, and the black-box dump — both the explicit path
// and the fatal-signal path (FlightrecDeath, a subprocess death-test
// suite: the child SIGABRTs and the parent validates the dump it left
// behind).
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <unistd.h>
#include <vector>

#include "bo/mfbo.h"
#include "common/check.h"
#include "common/eventlog.h"
#include "common/json.h"
#include "common/parallel.h"
#include "problems/synthetic.h"
#include "service/session_manager.h"

namespace {

using namespace mfbo;
using eventlog::EventKind;

/// RAII recorder shutdown so a failing ASSERT cannot leak an enabled
/// recorder (or its signal handlers) into later tests.
struct ScopedRecorder {
  explicit ScopedRecorder(const eventlog::Options& options = {}) {
    eventlog::enable(options);
  }
  ~ScopedRecorder() { eventlog::disable(); }
};

struct ScopedThreads {
  explicit ScopedThreads(std::size_t n) { parallel::setMaxThreads(n); }
  ~ScopedThreads() { parallel::setMaxThreads(0); }
};

std::string uniqueDir(const char* stem) {
  const std::string dir = testing::TempDir() + stem + "." +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::vector<std::string> readLines(const std::string& path) {
  std::ifstream stream(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(stream, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

/// Like uniqueDir but NOT pid-keyed: the threadsafe death-test child
/// re-executes the test body, so a pid-keyed name would send the child's
/// dump to a directory the parent never looks in.
std::string stableDir(const char* stem) {
  const std::string dir = testing::TempDir() + stem;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The one flightrec.<pid>.jsonl in @p dir (fails the test when absent).
std::string findDump(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("flightrec.", 0) == 0) return entry.path().string();
  }
  return "";
}

TEST(EventlogBasics, DisabledRecordIsANoOp) {
  ASSERT_FALSE(eventlog::enabled());
  eventlog::Journal journal("idle");
  const eventlog::JournalScope scope(journal);
  eventlog::record(EventKind::kCustom, "ignored");
  const eventlog::Stats stats = eventlog::stats();
  // Whatever earlier tests left behind, a disabled record adds nothing.
  eventlog::record(EventKind::kCustom, "ignored");
  const eventlog::Stats after = eventlog::stats();
  EXPECT_EQ(stats.recorded, after.recorded);
}

TEST(EventlogBasics, RecordsCarryKindDetailsAndSeq) {
  const ScopedRecorder recorder;
  eventlog::Journal journal("j0");
  const eventlog::JournalScope scope(journal);
  eventlog::record(EventKind::kCustom, "alpha", "beta", 7, -3);
  eventlog::record(EventKind::kEngineTransition, "propose", "fit");
  const Json doc = eventlog::journalJson();
  EXPECT_EQ(doc.at("format").asString(), "mfbo-flightrec");
  EXPECT_EQ(doc.at("version").asNumber(), 2.0);
  EXPECT_TRUE(doc.at("deterministic").asBool());
  ASSERT_EQ(doc.at("events").size(), 2u);
  const Json& first = doc.at("events").at(0);
  EXPECT_EQ(first.at("seq").asNumber(), 0.0);
  EXPECT_EQ(first.at("kind").asString(), "custom");
  EXPECT_EQ(first.at("session").asString(), "j0");
  EXPECT_EQ(first.at("a").asString(), "alpha");
  EXPECT_EQ(first.at("b").asString(), "beta");
  EXPECT_EQ(first.at("v0").asNumber(), 7.0);
  EXPECT_EQ(first.at("v1").asNumber(), -3.0);
  // Deterministic mode never stamps.
  EXPECT_FALSE(first.contains("ts_ns"));
  const Json& second = doc.at("events").at(1);
  EXPECT_EQ(second.at("seq").asNumber(), 1.0);
  EXPECT_EQ(second.at("kind").asString(), "engine_transition");
}

TEST(EventlogBasics, RingWrapKeepsTheMostRecentWindowAndCountsDrops) {
  const ScopedRecorder recorder;
  eventlog::Journal journal("wrap");
  const eventlog::JournalScope scope(journal);
  const int n = static_cast<int>(eventlog::kJournalCapacity) + 12;
  for (int i = 0; i < n; ++i)
    eventlog::record(EventKind::kCustom, nullptr, nullptr, i);
  const eventlog::Stats stats = eventlog::stats();
  EXPECT_EQ(stats.recorded, static_cast<std::uint64_t>(n));
  EXPECT_EQ(stats.dropped, 12u);
  const Json doc = eventlog::journalJson();
  EXPECT_EQ(doc.at("dropped").asNumber(), 12.0);
  ASSERT_EQ(doc.at("events").size(), eventlog::kJournalCapacity);
  // The window is the newest events, oldest first, numbered by the
  // journal's own seq.
  const Json& oldest = doc.at("events").at(0);
  EXPECT_EQ(oldest.at("seq").asNumber(), 12.0);
  EXPECT_EQ(oldest.at("v0").asNumber(), 12.0);
  const Json& newest =
      doc.at("events").at(eventlog::kJournalCapacity - 1);
  EXPECT_EQ(newest.at("seq").asNumber(), n - 1.0);
  EXPECT_EQ(newest.at("v0").asNumber(), n - 1.0);
}

TEST(EventlogBasics, RecordWithoutAJournalIsANoOp) {
  const ScopedRecorder recorder;
  eventlog::record(EventKind::kCustom, "nobody");
  EXPECT_EQ(eventlog::stats().recorded, 0u);
  EXPECT_EQ(eventlog::journalJson().at("events").size(), 0u);
}

TEST(EventlogBasics, JournalLabelsTruncate) {
  const ScopedRecorder recorder;
  const std::string long_id = "a-session-id-well-beyond-the-cap";
  eventlog::Journal journal(long_id);
  const eventlog::JournalScope scope(journal);
  eventlog::record(EventKind::kCustom);
  const Json doc = eventlog::journalJson();
  ASSERT_EQ(doc.at("events").size(), 1u);
  const std::string label = doc.at("events").at(0).at("session").asString();
  EXPECT_EQ(label.size(), eventlog::kSessionIdCap - 1);
  EXPECT_EQ(label, long_id.substr(0, eventlog::kSessionIdCap - 1));
}

TEST(EventlogBasics, JournalScopesNestAndRestore) {
  const ScopedRecorder recorder;
  eventlog::Journal outer("outer");
  eventlog::Journal inner("inner");
  {
    const eventlog::JournalScope outer_scope(outer);
    eventlog::record(EventKind::kCustom, nullptr, nullptr, 1);
    {
      const eventlog::JournalScope inner_scope(inner);
      eventlog::record(EventKind::kCustom, nullptr, nullptr, 2);
    }
    eventlog::record(EventKind::kCustom, nullptr, nullptr, 3);
  }
  eventlog::record(EventKind::kCustom, nullptr, nullptr, 4);  // no journal
  // Slot order is first-record order: outer's window, then inner's.
  const Json doc = eventlog::journalJson();
  EXPECT_EQ(doc.at("recorded").asNumber(), 3.0);
  ASSERT_EQ(doc.at("events").size(), 3u);
  const Json& events = doc.at("events");
  EXPECT_EQ(events.at(0).at("session").asString(), "outer");
  EXPECT_EQ(events.at(0).at("v0").asNumber(), 1.0);
  EXPECT_EQ(events.at(1).at("session").asString(), "outer");
  EXPECT_EQ(events.at(1).at("seq").asNumber(), 1.0);
  EXPECT_EQ(events.at(1).at("v0").asNumber(), 3.0);
  EXPECT_EQ(events.at(2).at("session").asString(), "inner");
  EXPECT_EQ(events.at(2).at("seq").asNumber(), 0.0);
  EXPECT_EQ(events.at(2).at("v0").asNumber(), 2.0);
}

TEST(EventlogBasics, FullTableCountsUnslottedRecordsAsDropped) {
  const ScopedRecorder recorder;
  std::vector<std::unique_ptr<eventlog::Journal>> journals;
  for (std::size_t i = 0; i <= eventlog::kMaxJournals; ++i) {
    journals.push_back(
        std::make_unique<eventlog::Journal>("j" + std::to_string(i)));
    const eventlog::JournalScope scope(*journals.back());
    eventlog::record(EventKind::kCustom);
  }
  // The journal past the table journals nothing, and says so.
  const eventlog::Stats stats = eventlog::stats();
  EXPECT_EQ(stats.recorded, eventlog::kMaxJournals + 1);
  EXPECT_EQ(stats.dropped, 1u);
  const Json doc = eventlog::journalJson();
  ASSERT_EQ(doc.at("events").size(), eventlog::kMaxJournals);
  EXPECT_EQ(doc.at("events").at(eventlog::kMaxJournals - 1)
                .at("session")
                .asString(),
            "j" + std::to_string(eventlog::kMaxJournals - 1));
}

TEST(EventlogBasics, WallClockModeStampsEveryEvent) {
  eventlog::Options options;
  options.wall_clock = true;
  const ScopedRecorder recorder(options);
  eventlog::Journal journal("wall");
  const eventlog::JournalScope scope(journal);
  for (int i = 0; i < 4; ++i) eventlog::record(EventKind::kCustom);
  EXPECT_EQ(eventlog::stats().recorded, 4u);
  const Json doc = eventlog::journalJson();
  EXPECT_FALSE(doc.at("deterministic").asBool());
  ASSERT_EQ(doc.at("events").size(), 4u);
  for (const Json& event : doc.at("events").items()) {
    ASSERT_TRUE(event.contains("ts_ns"));
    EXPECT_GE(event.at("ts_ns").asNumber(), 0.0);
  }
}

TEST(EventlogBasics, ContractViolationIsJournalledBeforeTheThrow) {
  const ScopedRecorder recorder;
  eventlog::Journal journal("violator");
  const eventlog::JournalScope scope(journal);
  EXPECT_THROW(MFBO_CHECK(1 == 2, "eventlog test violation"),
               ContractViolation);
  const Json doc = eventlog::journalJson();
  ASSERT_GE(doc.at("events").size(), 1u);
  const Json& last = doc.at("events").at(doc.at("events").size() - 1);
  EXPECT_EQ(last.at("kind").asString(), "contract_violation");
  // a = the failing file, v0 = the failing line.
  EXPECT_NE(last.at("a").asString().find("test_eventlog"),
            std::string::npos);
  EXPECT_GT(last.at("v0").asNumber(), 0.0);
}

TEST(EventlogBasics, ContractViolationDumpsWhenADumpDirIsConfigured) {
  const std::string dir = uniqueDir("eventlog_violation");
  eventlog::Options options;
  options.dump_dir = dir;
  const ScopedRecorder recorder(options);
  eventlog::Journal journal("violator");
  const eventlog::JournalScope scope(journal);
  EXPECT_THROW(MFBO_CHECK(false, "boom"), ContractViolation);
  const std::string dump = findDump(dir);
  ASSERT_FALSE(dump.empty());
  const std::vector<std::string> lines = readLines(dump);
  ASSERT_GE(lines.size(), 2u);
  const Json header = Json::parse(lines.front());
  EXPECT_EQ(header.at("format").asString(), "mfbo-flightrec");
  const Json last = Json::parse(lines.back());
  EXPECT_EQ(last.at("kind").asString(), "contract_violation");
}

TEST(EventlogBasics, ExplicitDumpMatchesJournalJson) {
  const std::string dir = uniqueDir("eventlog_dump");
  const ScopedRecorder recorder;
  eventlog::Journal journal("dump-me");
  const eventlog::JournalScope scope(journal);
  eventlog::record(EventKind::kCustom, "alpha", nullptr, 1, 2);
  eventlog::record(EventKind::kSessionStep, nullptr, nullptr, 3);
  const std::string path = dir + "/explicit.jsonl";
  ASSERT_TRUE(eventlog::dumpFlightRecorder(path.c_str()));
  const std::vector<std::string> lines = readLines(path);
  const Json doc = eventlog::journalJson();
  ASSERT_EQ(lines.size(), doc.at("events").size() + 1);
  for (std::size_t i = 0; i < doc.at("events").size(); ++i) {
    const Json line = Json::parse(lines[i + 1]);
    EXPECT_EQ(line.dump(), doc.at("events").at(i).dump());
  }
}

TEST(EventlogBasics, AutoDumpNeedsADumpDir) {
  const ScopedRecorder recorder;
  EXPECT_FALSE(eventlog::dumpFlightRecorder());
  EXPECT_EQ(eventlog::dumpPath(), "");
}

TEST(EventlogBasics, EnableWhileEnabledIsAViolation) {
  const ScopedRecorder recorder;
  EXPECT_THROW(eventlog::enable(), ContractViolation);
}

TEST(EventlogBasics, SignalHandlerRequiresADumpDir) {
  eventlog::Options options;
  options.install_signal_handler = true;
  EXPECT_THROW(eventlog::enable(options), ContractViolation);
}

/// Session @p i of the small fleet the service-layer tests drive: past
/// init, so fidelity decisions reach the journal.
service::SessionSpec fleetSpec(std::size_t i) {
  service::SessionSpec spec;
  spec.id = "s" + std::to_string(i);
  spec.problem = [] {
    return std::make_unique<problems::ConstrainedQuadraticProblem>(2);
  };
  const std::uint64_t seed = 1000 + i;
  spec.engine = [seed](bo::Problem& problem) {
    bo::MfboOptions opt;
    opt.n_init_low = 4;
    opt.n_init_high = 2;
    opt.budget = 4.0;  // past init: fidelity decisions in the journal
    opt.gamma = 0.5;
    opt.retrain_every = 2;
    opt.batch_size = 1 + seed % 2;
    opt.x_star_seeds = 2;
    opt.msp.n_starts = 2;
    opt.msp.local.max_evaluations = 20;
    opt.nargp.n_mc = 8;
    opt.nargp.low.n_restarts = 1;
    opt.nargp.high.n_restarts = 1;
    return std::make_unique<bo::MfboEngine>(problem, seed, opt);
  };
  return spec;
}

/// The fleet through the manager's serial scheduler, journalling the
/// full event narrative.
void runFleet(std::size_t n_sessions) {
  service::SessionManager manager;
  for (std::size_t i = 0; i < n_sessions; ++i)
    manager.create(fleetSpec(i));
  manager.runAll();
}

TEST(EventlogBasics, DestroyedSessionWindowStaysUntilItsSlotIsReused) {
  const ScopedRecorder recorder;
  service::SessionManager manager;
  manager.create(fleetSpec(0));
  manager.create(fleetSpec(1));
  manager.stepRound();
  manager.destroy("s0");
  // s0's slot is released, but its window stays first in the dump and
  // ends with the destroy event.
  Json doc = eventlog::journalJson();
  std::size_t s0_events = 0;
  for (const Json& event : doc.at("events").items())
    if (event.at("session").asString() == "s0") ++s0_events;
  ASSERT_GE(s0_events, 2u);
  EXPECT_EQ(doc.at("events").at(0).at("kind").asString(),
            "session_create");
  const Json& s0_last = doc.at("events").at(s0_events - 1);
  EXPECT_EQ(s0_last.at("session").asString(), "s0");
  EXPECT_EQ(s0_last.at("kind").asString(), "session_destroy");
  EXPECT_EQ(doc.at("events").at(s0_events).at("session").asString(), "s1");
  const eventlog::Stats before = eventlog::stats();
  EXPECT_EQ(before.dropped, 0u);

  // The next journal to record claims the lowest free slot, s0's, and its
  // window leaves the dump (counted as dropped).
  manager.create(fleetSpec(2));
  doc = eventlog::journalJson();
  for (const Json& event : doc.at("events").items())
    EXPECT_NE(event.at("session").asString(), "s0");
  EXPECT_EQ(doc.at("events").at(0).at("session").asString(), "s2");
  EXPECT_EQ(doc.at("events").at(0).at("seq").asNumber(), 0.0);
  const eventlog::Stats after = eventlog::stats();
  EXPECT_EQ(after.recorded, before.recorded + 1);
  EXPECT_EQ(after.dropped, s0_events);
  EXPECT_EQ(after.recorded - after.dropped, doc.at("events").size());
}

TEST(EventlogDeterminism, JournalBytesIdenticalAtOneAndFourThreads) {
  std::string journal_1thread;
  {
    const ScopedThreads threads(1);
    const ScopedRecorder recorder;
    runFleet(2);
    journal_1thread = eventlog::journalJson().dump();
  }
  std::string journal_4threads;
  {
    const ScopedThreads threads(4);
    const ScopedRecorder recorder;
    runFleet(2);
    journal_4threads = eventlog::journalJson().dump();
  }
  EXPECT_EQ(journal_1thread, journal_4threads);
  // The journal actually carries the narrative, not just dispatches.
  for (const char* needle :
       {"session_create", "session_step", "engine_transition",
        "fidelity_decision", "session_done", "\"session\":\"s1\""})
    EXPECT_NE(journal_1thread.find(needle), std::string::npos)
        << "journal is missing " << needle;
}

TEST(EventlogDeterminism, DumpFileBytesIdenticalAtOneAndFourThreads) {
  const std::string dir = uniqueDir("eventlog_det_dump");
  const std::string path_a = dir + "/a.jsonl";
  const std::string path_b = dir + "/b.jsonl";
  {
    const ScopedThreads threads(1);
    const ScopedRecorder recorder;
    runFleet(2);
    ASSERT_TRUE(eventlog::dumpFlightRecorder(path_a.c_str()));
  }
  {
    const ScopedThreads threads(4);
    const ScopedRecorder recorder;
    runFleet(2);
    ASSERT_TRUE(eventlog::dumpFlightRecorder(path_b.c_str()));
  }
  const std::vector<std::string> a = readLines(path_a);
  const std::vector<std::string> b = readLines(path_b);
  EXPECT_EQ(a, b);
}

/// What a deterministic-mode fleet run leaves behind: the journal, the
/// dump file, every session's result, and the recorder's drop count.
struct FleetRecord {
  std::string journal;
  std::vector<std::string> dump;
  std::vector<std::string> results;
  std::uint64_t dropped = 0;
};

/// Run a 4-session fleet to completion. Serially it is runAll() at one
/// thread; pooled, every round steps each running session as one
/// parallelFor task at four threads, so sessions step concurrently on the
/// pool's workers and the caller.
FleetRecord recordFleet(bool pooled, const std::string& dump_path) {
  const ScopedThreads threads(pooled ? 4 : 1);
  const ScopedRecorder recorder;
  service::SessionManager manager;
  for (std::size_t i = 0; i < 4; ++i) manager.create(fleetSpec(i));
  if (pooled) {
    for (;;) {
      std::vector<service::Session*> running;
      for (const std::string& id : manager.ids())
        if (manager.session(id).status() == service::SessionStatus::kRunning)
          running.push_back(&manager.session(id));
      if (running.empty()) break;
      parallel::parallelFor(running.size(),
                            [&](std::size_t i) { running[i]->step(); });
    }
  } else {
    manager.runAll();
  }
  FleetRecord record;
  record.journal = eventlog::journalJson().dump();
  record.dropped = eventlog::stats().dropped;
  EXPECT_TRUE(eventlog::dumpFlightRecorder(dump_path.c_str()));
  record.dump = readLines(dump_path);
  for (const std::string& id : manager.ids())
    record.results.push_back(manager.session(id).resultJson().dump());
  return record;
}

TEST(EventlogDeterminism, PooledSessionStepsJournalLikeSerialRunAll) {
  const std::string dir = uniqueDir("eventlog_pooled");
  const FleetRecord serial = recordFleet(false, dir + "/serial.jsonl");
  const FleetRecord pooled = recordFleet(true, dir + "/pooled.jsonl");
  EXPECT_EQ(serial.dropped, 0u);
  EXPECT_EQ(pooled.dropped, 0u);
  EXPECT_EQ(serial.journal, pooled.journal);
  EXPECT_EQ(serial.dump, pooled.dump);
  EXPECT_EQ(serial.results, pooled.results);
  // Every session's narrative is there, in its own journal.
  for (const char* needle :
       {"\"session\":\"s0\"", "\"session\":\"s3\"", "session_step",
        "engine_transition", "fidelity_decision", "session_done"})
    EXPECT_NE(serial.journal.find(needle), std::string::npos)
        << "journal is missing " << needle;
}

// Death tests: the child process crashes with the recorder armed, the
// parent validates the black box it left. Threadsafe style re-executes
// the test binary for the child, so the recorder state is pristine.
TEST(FlightrecDeath, SigabrtLeavesASchemaValidDump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = stableDir("flightrec_death_abort");
  EXPECT_EXIT(
      {
        eventlog::Options options;
        options.wall_clock = true;
        options.dump_dir = dir;
        options.install_signal_handler = true;
        eventlog::enable(options);
        eventlog::Journal journal("doomed");
        const eventlog::JournalScope scope(journal);
        eventlog::record(EventKind::kSessionStep, nullptr, nullptr, 41);
        eventlog::record(EventKind::kEngineTransition, "propose",
                         "await_results", 41);
        std::abort();
      },
      testing::KilledBySignal(SIGABRT), "");
  const std::string dump = findDump(dir);
  ASSERT_FALSE(dump.empty()) << "no flightrec dump in " << dir;
  const std::vector<std::string> lines = readLines(dump);
  ASSERT_GE(lines.size(), 3u);
  const Json header = Json::parse(lines.front());
  EXPECT_EQ(header.at("format").asString(), "mfbo-flightrec");
  EXPECT_EQ(header.at("version").asNumber(), 2.0);
  EXPECT_FALSE(header.at("deterministic").asBool());
  // The final events identify what was in flight when the process died.
  const Json last = Json::parse(lines.back());
  EXPECT_EQ(last.at("kind").asString(), "engine_transition");
  EXPECT_EQ(last.at("session").asString(), "doomed");
  EXPECT_EQ(last.at("a").asString(), "propose");
  EXPECT_EQ(last.at("b").asString(), "await_results");
  ASSERT_TRUE(last.contains("ts_ns"));
}

TEST(FlightrecDeath, UncaughtContractViolationLeavesADump) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string dir = stableDir("flightrec_death_violation");
  EXPECT_EXIT(
      {
        // noexcept: the escaping ContractViolation hits std::terminate
        // (as it would crossing any noexcept boundary in production)
        // rather than gtest's death-test exception catcher.
        [&]() noexcept {
          eventlog::Options options;
          options.wall_clock = true;
          options.dump_dir = dir;
          options.install_signal_handler = true;
          eventlog::enable(options);
          eventlog::Journal journal("contract");
          const eventlog::JournalScope scope(journal);
          eventlog::record(EventKind::kSessionStep);
          MFBO_CHECK(false, "uncaught on purpose");
        }();
      },
      testing::KilledBySignal(SIGABRT), "");
  const std::string dump = findDump(dir);
  ASSERT_FALSE(dump.empty());
  const std::vector<std::string> lines = readLines(dump);
  ASSERT_GE(lines.size(), 2u);
  // The violation hook dumps before the unwind, so the violation itself
  // is the last journalled event.
  const Json last = Json::parse(lines.back());
  EXPECT_EQ(last.at("kind").asString(), "contract_violation");
  EXPECT_EQ(last.at("session").asString(), "contract");
}

}  // namespace
