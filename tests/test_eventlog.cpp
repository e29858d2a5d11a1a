// Flight-recorder battery: ring-wrap drop accounting, deterministic-mode
// byte identity at 1 vs 4 threads, in-region skip accounting, session
// labelling, the ContractViolation hook, and the black-box dump — both
// the explicit path and the fatal-signal path (FlightrecDeath, a
// subprocess death-test suite: the child SIGABRTs and the parent
// validates the dump it left behind).
#include <gtest/gtest.h>

#include <csignal>
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
  eventlog::record(EventKind::kCustom, "ignored");
  const eventlog::Stats stats = eventlog::stats();
  // Whatever earlier tests left behind, a disabled record adds nothing.
  eventlog::record(EventKind::kCustom, "ignored");
  const eventlog::Stats after = eventlog::stats();
  EXPECT_EQ(stats.recorded, after.recorded);
}

TEST(EventlogBasics, RecordsCarryKindDetailsAndSeq) {
  const ScopedRecorder recorder;
  eventlog::record(EventKind::kCustom, "alpha", "beta", 7, -3);
  eventlog::record(EventKind::kEngineTransition, "propose", "fit");
  const Json doc = eventlog::journalJson();
  EXPECT_EQ(doc.at("format").asString(), "mfbo-flightrec");
  EXPECT_EQ(doc.at("version").asNumber(), 1.0);
  EXPECT_TRUE(doc.at("deterministic").asBool());
  ASSERT_EQ(doc.at("events").size(), 2u);
  const Json& first = doc.at("events").at(0);
  EXPECT_EQ(first.at("seq").asNumber(), 0.0);
  EXPECT_EQ(first.at("kind").asString(), "custom");
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
  eventlog::Options options;
  options.ring_capacity = 8;
  const ScopedRecorder recorder(options);
  for (int i = 0; i < 20; ++i)
    eventlog::record(EventKind::kCustom, nullptr, nullptr, i);
  const eventlog::Stats stats = eventlog::stats();
  EXPECT_EQ(stats.recorded, 20u);
  EXPECT_EQ(stats.dropped, 12u);
  const Json doc = eventlog::journalJson();
  EXPECT_EQ(doc.at("dropped").asNumber(), 12.0);
  ASSERT_EQ(doc.at("events").size(), 8u);
  // The window is the newest 8 events, oldest first.
  EXPECT_EQ(doc.at("events").at(0).at("v0").asNumber(), 12.0);
  EXPECT_EQ(doc.at("events").at(7).at("v0").asNumber(), 19.0);
}

TEST(EventlogBasics, CapacityClampsToMinimum) {
  eventlog::Options options;
  options.ring_capacity = 1;
  const ScopedRecorder recorder(options);
  for (int i = 0; i < 10; ++i) eventlog::record(EventKind::kCustom);
  EXPECT_EQ(eventlog::journalJson().at("ring_capacity").asNumber(), 8.0);
  EXPECT_EQ(eventlog::journalJson().at("events").size(), 8u);
}

TEST(EventlogBasics, ScopedSessionLabelsNestAndTruncate) {
  const ScopedRecorder recorder;
  eventlog::record(EventKind::kCustom);
  {
    const eventlog::ScopedSession outer("outer");
    eventlog::record(EventKind::kCustom);
    {
      const eventlog::ScopedSession inner(
          "a-session-id-well-beyond-the-cap");
      eventlog::record(EventKind::kCustom);
    }
    eventlog::record(EventKind::kCustom);
  }
  eventlog::record(EventKind::kCustom);
  const Json doc = eventlog::journalJson();
  ASSERT_EQ(doc.at("events").size(), 5u);
  EXPECT_FALSE(doc.at("events").at(0).contains("session"));
  EXPECT_EQ(doc.at("events").at(1).at("session").asString(), "outer");
  const std::string truncated =
      doc.at("events").at(2).at("session").asString();
  EXPECT_EQ(truncated.size(), eventlog::kSessionIdCap - 1);
  EXPECT_EQ(truncated,
            std::string("a-session-id-well-beyond-the-cap")
                .substr(0, eventlog::kSessionIdCap - 1));
  EXPECT_EQ(doc.at("events").at(3).at("session").asString(), "outer");
  EXPECT_FALSE(doc.at("events").at(4).contains("session"));
}

TEST(EventlogBasics, DeterministicModeSkipsInRegionRecords) {
  const ScopedThreads threads(2);
  const ScopedRecorder recorder;
  parallel::parallelFor(16, [](std::size_t) {
    eventlog::record(EventKind::kCustom, "from-body");
  });
  const eventlog::Stats stats = eventlog::stats();
  EXPECT_EQ(stats.skipped_in_region, 16u);
  // Only the dispatch event survives — recorded before the region flag
  // flips, on the driver thread.
  const Json doc = eventlog::journalJson();
  ASSERT_EQ(doc.at("events").size(), 1u);
  EXPECT_EQ(doc.at("events").at(0).at("kind").asString(),
            "pool_dispatch");
  EXPECT_EQ(doc.at("events").at(0).at("v0").asNumber(), 16.0);
}

TEST(EventlogBasics, WallClockModeStampsAndKeepsInRegionRecords) {
  const ScopedThreads threads(2);
  eventlog::Options options;
  options.wall_clock = true;
  const ScopedRecorder recorder(options);
  parallel::parallelFor(4, [](std::size_t) {
    eventlog::record(EventKind::kCustom, "from-body");
  });
  const eventlog::Stats stats = eventlog::stats();
  EXPECT_EQ(stats.skipped_in_region, 0u);
  EXPECT_EQ(stats.recorded, 5u);  // dispatch + 4 body records
  const Json doc = eventlog::journalJson();
  EXPECT_FALSE(doc.at("deterministic").asBool());
  for (const Json& event : doc.at("events").items()) {
    ASSERT_TRUE(event.contains("ts_ns"));
    EXPECT_GE(event.at("ts_ns").asNumber(), 0.0);
  }
}

TEST(EventlogBasics, ContractViolationIsJournalledBeforeTheThrow) {
  const ScopedRecorder recorder;
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
  const eventlog::ScopedSession label("dump-me");
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

/// The service-layer workload the determinism tests drive: a small fleet
/// through the manager, journalling the full event narrative.
void runFleet(std::size_t n_sessions) {
  service::SessionManager manager;
  for (std::size_t i = 0; i < n_sessions; ++i) {
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
    manager.create(std::move(spec));
  }
  manager.runAll();
}

TEST(EventlogDeterminism, JournalBytesIdenticalAtOneAndFourThreads) {
  eventlog::Options options;
  options.ring_capacity = 4096;  // no wrap: compare complete journals
  std::string journal_1thread;
  {
    const ScopedThreads threads(1);
    const ScopedRecorder recorder(options);
    runFleet(2);
    journal_1thread = eventlog::journalJson().dump();
  }
  std::string journal_4threads;
  {
    const ScopedThreads threads(4);
    const ScopedRecorder recorder(options);
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
  eventlog::Options options;
  options.ring_capacity = 4096;
  const std::string path_a = dir + "/a.jsonl";
  const std::string path_b = dir + "/b.jsonl";
  {
    const ScopedThreads threads(1);
    const ScopedRecorder recorder(options);
    runFleet(2);
    ASSERT_TRUE(eventlog::dumpFlightRecorder(path_a.c_str()));
  }
  {
    const ScopedThreads threads(4);
    const ScopedRecorder recorder(options);
    runFleet(2);
    ASSERT_TRUE(eventlog::dumpFlightRecorder(path_b.c_str()));
  }
  const std::vector<std::string> a = readLines(path_a);
  const std::vector<std::string> b = readLines(path_b);
  EXPECT_EQ(a, b);
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
        const eventlog::ScopedSession label("doomed");
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
  EXPECT_EQ(header.at("version").asNumber(), 1.0);
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
          const eventlog::ScopedSession label("contract");
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
