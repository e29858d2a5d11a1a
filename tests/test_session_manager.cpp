// Service-layer battery for SessionManager/Session: round-robin fairness
// (no session starves another), solo-vs-8-concurrent byte-identity of the
// --no-timing artifacts at 1 and 4 threads (the per-session span arena and
// its counters in action), the round's fan-out over the pool (one pooled
// region per round, observed sessions with their own records, failures
// that leave the rest of the round stepped and persisted, journal slots
// claimed in creation order), kill-at-every-scheduler-boundary crash
// recovery through the persisted run logs (torn final lines, failed
// appends and unreadable recovery files included), completed-run adoption
// from result documents, and the pause/resume/destroy lifecycle contracts.
#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <utility>
#include <vector>

#include "bo/engine.h"
#include "bo/mfbo.h"
#include "common/check.h"
#include "common/eventlog.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/spans.h"
#include "problems/synthetic.h"
#include "service/session_manager.h"

namespace {

using namespace mfbo;
using service::Session;
using service::SessionManager;
using service::SessionManagerOptions;
using service::SessionSpec;
using service::SessionStatus;

/// RAII thread-count override so a failing ASSERT cannot leak the setting
/// into later tests.
struct ScopedThreads {
  explicit ScopedThreads(std::size_t n) { parallel::setMaxThreads(n); }
  ~ScopedThreads() { parallel::setMaxThreads(0); }
};

/// Profiler on for one test, off and empty afterwards: session artifacts
/// carry counters only while it is on.
struct ScopedProfiler {
  ScopedProfiler() {
    spans::reset();
    spans::setEnabled(true);
  }
  ~ScopedProfiler() {
    spans::setEnabled(false);
    spans::reset();
  }
};

/// Caps the size of every file this process writes at @p bytes while
/// alive, with SIGXFSZ ignored so a write past the cap fails with EFBIG
/// instead of killing the process; restores both on destruction.
struct ScopedFileSizeCap {
  explicit ScopedFileSizeCap(std::size_t bytes)
      : saved_handler(std::signal(SIGXFSZ, SIG_IGN)) {
    if (getrlimit(RLIMIT_FSIZE, &saved) != 0) return;
    rlimit capped = saved;
    capped.rlim_cur = bytes;
    installed = setrlimit(RLIMIT_FSIZE, &capped) == 0;
  }
  ~ScopedFileSizeCap() {
    if (installed) setrlimit(RLIMIT_FSIZE, &saved);
    std::signal(SIGXFSZ, saved_handler);
  }
  ScopedFileSizeCap(const ScopedFileSizeCap&) = delete;
  ScopedFileSizeCap& operator=(const ScopedFileSizeCap&) = delete;

  void (*saved_handler)(int);
  rlimit saved{};
  bool installed = false;
};

/// Sum of the counter @p name over every node of a span tree.
double counterTotal(const Json& node, const std::string& name) {
  double total = 0.0;
  if (node.contains("counters") && node.at("counters").contains(name))
    total += node.at("counters").at(name).asNumber();
  if (node.contains("children"))
    for (const auto& child : node.at("children").members())
      total += counterTotal(child.second, name);
  return total;
}

/// counterTotal over a session artifact's span tree.
double artifactCounter(const Json& artifact, const std::string& name) {
  return counterTotal(artifact.at("metrics").at("spans"), name);
}

/// Tiny-but-complete MFBO config: a few loop iterations, both fit paths
/// (retrain_every = 2), both fidelities, and — with batch_size = 2 — the
/// pool-task evaluation fan-out. Smaller than the checkpoint fixture: the
/// session tests run dozens of these.
bo::MfboOptions sessionOptions(std::size_t batch_size, double budget = 2.5) {
  bo::MfboOptions opt;
  opt.n_init_low = 4;
  opt.n_init_high = 2;
  opt.budget = budget;
  opt.gamma = 0.5;
  opt.retrain_every = 2;
  opt.batch_size = batch_size;
  opt.x_star_seeds = 2;
  opt.msp.n_starts = 2;
  opt.msp.local.max_evaluations = 20;
  opt.nargp.n_mc = 8;
  opt.nargp.low.n_restarts = 1;
  opt.nargp.high.n_restarts = 1;
  return opt;
}

SessionSpec makeSpec(std::string id, std::uint64_t seed,
                     std::size_t batch_size = 1, double budget = 2.5) {
  SessionSpec spec;
  spec.id = std::move(id);
  spec.problem = [] {
    return std::make_unique<problems::ConstrainedQuadraticProblem>(2);
  };
  spec.engine = [seed, batch_size, budget](bo::Problem& problem) {
    return std::make_unique<bo::MfboEngine>(
        problem, seed, sessionOptions(batch_size, budget));
  };
  return spec;
}

/// The 8-session mixed workload the identity and recovery tests share:
/// distinct seeds, q = 1 and q = 2 interleaved.
std::vector<SessionSpec> eightSpecs() {
  std::vector<SessionSpec> specs;
  for (std::size_t i = 0; i < 8; ++i)
    specs.push_back(makeSpec("s" + std::to_string(i), 100 + i, 1 + i % 2));
  return specs;
}

/// Drive one session to completion outside any manager — the solo
/// reference the concurrent artifacts must match byte-for-byte.
Json soloArtifact(SessionSpec spec) {
  Session session(std::move(spec));
  while (!session.done()) session.step();
  return session.artifactJson(/*include_timing=*/false);
}

/// Per-test recovery directory, wiped on the way in: recovery is id-keyed
/// and deliberately adopts whatever a previous process persisted, so stale
/// files from an earlier test-binary invocation would otherwise satisfy
/// create() before the test ever stepped a session.
std::string uniqueDir(const std::string& stem) {
  const std::string dir = testing::TempDir() + "mfbo_" + stem;
  std::filesystem::remove_all(dir);
  return dir;
}

bool fileExists(const std::string& path) {
  return std::ifstream(path).good();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- session lifecycle ---------------------------------------------------

TEST(Session, SoloRunCompletesAndReportsResultAndArtifact) {
  const ScopedProfiler profiler;
  Session session(makeSpec("solo", 7));
  EXPECT_EQ(session.status(), SessionStatus::kRunning);
  EXPECT_EQ(session.steps(), 0u);
  while (!session.done()) session.step();
  EXPECT_GT(session.steps(), 4u);

  const Json& result = session.resultJson();
  EXPECT_EQ(result.at("format").asString(), "mfbo-session-result");
  EXPECT_EQ(result.at("session").asString(), "solo");
  EXPECT_EQ(result.at("algo").asString(), "mfbo");
  EXPECT_TRUE(result.at("result").isObject());

  Json artifact = session.artifactJson(false);
  EXPECT_EQ(artifact.at("format").asString(), "mfbo-session-artifact");
  EXPECT_EQ(artifact.at("status").asString(), "done");
  EXPECT_EQ(artifact.at("steps").asNumber(),
            static_cast<double>(session.steps()));
  // The session's span arena carries the engine's counters.
  EXPECT_GT(artifactCounter(artifact, "bo.mfbo.iterations"), 0.0);
}

TEST(Session, ContractViolationsOnMisuse) {
  EXPECT_THROW(Session(makeSpec("", 1)), ContractViolation);
  EXPECT_THROW(Session(makeSpec("bad id", 1)), ContractViolation);
  EXPECT_THROW(Session(makeSpec("bad/id", 1)), ContractViolation);

  Session session(makeSpec("ok", 1));
  EXPECT_THROW(session.resultJson(), ContractViolation);
  EXPECT_THROW(session.resume(), ContractViolation);
  session.pause();
  EXPECT_THROW(session.step(), ContractViolation);
  EXPECT_THROW(session.pause(), ContractViolation);
  session.resume();
  while (!session.done()) session.step();
  EXPECT_THROW(session.step(), ContractViolation);
  EXPECT_THROW(session.checkpoint(), ContractViolation);
}

TEST(Session, TwoInterleavedSessionsKeepTelemetrySeparate) {
  // Two engines stepping in the same process must not interleave their
  // counters. Interleave two sessions step-by-step and require each one's
  // span tree and counters to equal its solo run's.
  const ScopedProfiler profiler;
  const Json ref_a = soloArtifact(makeSpec("a", 21));
  const Json ref_b = soloArtifact(makeSpec("b", 22, 2));
  Session a(makeSpec("a", 21));
  Session b(makeSpec("b", 22, 2));
  while (!a.done() || !b.done()) {
    if (!a.done()) a.step();
    if (!b.done()) b.step();
  }
  EXPECT_EQ(a.artifactJson(false).dump(), ref_a.dump());
  EXPECT_EQ(b.artifactJson(false).dump(), ref_b.dump());
  EXPECT_GT(artifactCounter(ref_a, "bo.mfbo.iterations"), 0.0);
  EXPECT_GT(artifactCounter(ref_b, "bo.mfbo.iterations"), 0.0);
}

// --- fairness ------------------------------------------------------------

TEST(SessionManager, RoundRobinNeverStarvesASession) {
  SessionManager manager;
  for (auto& spec : eightSpecs()) manager.create(std::move(spec));

  // Fairness contract: after every round, each still-running session has
  // been stepped exactly `rounds` times — the per-session step counts of
  // runnable sessions never differ, no matter how uneven the step costs
  // (q = 2 sessions do twice the simulation work per AwaitResults step).
  std::size_t rounds = 0;
  while (manager.stepRound() > 0) {
    ++rounds;
    for (const std::string& id : manager.ids()) {
      const Session& session = *manager.find(id);
      if (session.status() == SessionStatus::kRunning)
        ASSERT_EQ(session.steps(), rounds) << "session " << id
                                           << " starved or over-scheduled";
      else
        ASSERT_LE(session.steps(), rounds);
    }
  }
  for (const std::string& id : manager.ids())
    EXPECT_TRUE(manager.find(id)->done());
}

// --- solo vs concurrent byte identity ------------------------------------

TEST(SessionManager, EightConcurrentSessionsMatchSoloByteIdentical) {
  // The acceptance criterion: 8 concurrent sessions on a 4-thread pool
  // each produce a --no-timing artifact byte-identical to the same spec
  // run solo — counters, span trees, and per-span allocation attribution
  // included. Counters need the profiler on.
  spans::setEnabled(true);
  std::vector<std::string> solo;
  {
    ScopedThreads threads(1);
    for (auto& spec : eightSpecs()) solo.push_back(soloArtifact(std::move(spec)).dump());
  }

  const auto concurrent = [&](std::size_t n_threads, SessionManagerOptions options) {
    ScopedThreads threads(n_threads);
    SessionManager manager(std::move(options));
    for (auto& spec : eightSpecs()) manager.create(std::move(spec));
    manager.runAll();
    std::vector<std::string> artifacts;
    for (const std::string& id : manager.ids())
      artifacts.push_back(manager.session(id).artifactJson(false).dump());
    return artifacts;
  };

  // 4-thread pool, persistence off.
  const std::vector<std::string> pooled = concurrent(4, {});
  // 1 thread, with periodic persistence — proving both that thread count
  // and that checkpoint serialization stay invisible to the artifacts.
  SessionManagerOptions persisted;
  persisted.checkpoint_dir = uniqueDir("identity");
  persisted.checkpoint_every = 2;
  const std::vector<std::string> serial = concurrent(1, std::move(persisted));

  spans::setEnabled(false);
  spans::reset();

  ASSERT_EQ(pooled.size(), solo.size());
  ASSERT_EQ(serial.size(), solo.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    EXPECT_GT(artifactCounter(Json::parse(solo[i]), "bo.mfbo.iterations"),
              0.0);
    EXPECT_EQ(pooled[i], solo[i]) << "session " << i
                                  << " diverged among 8 concurrent at t=4";
    EXPECT_EQ(serial[i], solo[i]) << "session " << i
                                  << " diverged among 8 concurrent at t=1";
  }
}

// --- the round's fan-out --------------------------------------------------

/// Running sessions of @p manager.
std::size_t runningCount(const SessionManager& manager) {
  std::size_t running = 0;
  for (const std::string& id : manager.ids())
    if (manager.find(id)->status() == SessionStatus::kRunning) ++running;
  return running;
}

TEST(SessionManager, ARoundOfSeveralSessionsIsOnePooledRegion) {
  for (const std::size_t n_threads : {std::size_t{1}, std::size_t{4}}) {
    const ScopedThreads threads(n_threads);
    SessionManager manager;
    for (auto& spec : eightSpecs()) manager.create(std::move(spec));
    // Each running session is one task of the round's region, and the
    // regions nested in its step run inline on the task's thread.
    std::size_t fanned_out = 0;
    for (;;) {
      const std::size_t running = runningCount(manager);
      const std::uint64_t before = parallel::poolStats().pooled_regions;
      if (manager.stepRound() == 0) break;
      if (running < 2) continue;
      ++fanned_out;
      ASSERT_EQ(parallel::poolStats().pooled_regions - before,
                n_threads > 1 ? 1u : 0u)
          << "round " << manager.roundsCompleted() << " at " << n_threads
          << " threads";
    }
    EXPECT_GT(fanned_out, 4u);
  }
}

TEST(SessionManager, ALoneSessionKeepsThePoolForItsOwnRegions) {
  const ScopedThreads threads(4);
  SessionManager manager;
  manager.create(makeSpec("lone", 17, 2));
  const std::uint64_t before = parallel::poolStats().pooled_regions;
  manager.runAll();
  // Its batch evaluations and multistart searches reach the pool, which a
  // one-task region would have forced inline.
  EXPECT_GT(parallel::poolStats().pooled_regions - before, 0u);
}

TEST(SessionManager, ObservedSessionsStepConcurrentlyWithTheirOwnRecords) {
  // Each session's observer writes its own JSONL stream, so observed rounds
  // fan out like any others, and every stream equals the one a
  // hand-written creation-order round produces, at any thread count.
  const auto observed = [](std::size_t n_threads, bool by_hand) {
    const ScopedThreads threads(n_threads);
    std::vector<std::string> streams(4);
    SessionManager manager;
    for (std::size_t i = 0; i < 4; ++i) {
      SessionSpec spec = makeSpec("t" + std::to_string(i), 300 + i);
      spec.engine = [&stream = streams[i], seed = 300 + i,
                     q = 1 + i % 2](bo::Problem& problem) {
        bo::MfboOptions options = sessionOptions(q);
        options.observer = [&stream](const bo::IterationRecord& r) {
          stream += bo::iterationJson(r).dump() + '\n';
        };
        return std::make_unique<bo::MfboEngine>(problem, seed, options);
      };
      manager.create(std::move(spec));
    }
    std::size_t fanned_out = 0;
    for (;;) {
      const std::size_t running = runningCount(manager);
      const std::uint64_t before = parallel::poolStats().pooled_regions;
      if (by_hand) {
        if (running == 0) break;
        for (const std::string& id : manager.ids()) {
          Session& session = manager.session(id);
          if (session.status() == SessionStatus::kRunning) session.step();
        }
        continue;
      }
      if (manager.stepRound() == 0) break;
      if (running < 2 || n_threads < 2) continue;
      // The round is one pooled region; the steps' own regions run inline.
      ++fanned_out;
      EXPECT_EQ(parallel::poolStats().pooled_regions - before, 1u)
          << "round " << manager.roundsCompleted();
    }
    if (!by_hand && n_threads > 1) {
      EXPECT_GT(fanned_out, 0u);
    }
    return streams;
  };
  const std::vector<std::string> reference = observed(1, /*by_hand=*/true);
  for (std::size_t i = 0; i < reference.size(); ++i)
    EXPECT_NE(reference[i].find("\"type\":\"iteration\""),
              std::string::npos)
        << "session " << i;
  EXPECT_EQ(observed(1, false), reference);
  EXPECT_EQ(observed(4, false), reference);
}

/// ConstrainedQuadraticProblem that throws std::runtime_error(@p label)
/// from its @p fail_at-th evaluation on.
class FailingProblem final : public bo::Problem {
 public:
  FailingProblem(std::string label, std::size_t fail_at)
      : label_(std::move(label)), fail_at_(fail_at) {}
  std::string name() const override { return inner_.name(); }
  std::size_t dim() const override { return inner_.dim(); }
  std::size_t numConstraints() const override {
    return inner_.numConstraints();
  }
  bo::Box bounds() const override { return inner_.bounds(); }
  double costRatio() const override { return inner_.costRatio(); }
  bo::Evaluation evaluate(const bo::Vector& x,
                          bo::Fidelity fidelity) override {
    if (calls_.fetch_add(1) + 1 >= fail_at_) throw std::runtime_error(label_);
    return inner_.evaluate(x, fidelity);
  }

 private:
  problems::ConstrainedQuadraticProblem inner_{2};
  std::string label_;
  std::size_t fail_at_;
  std::atomic<std::size_t> calls_{0};
};

/// Every file in @p dir, by name.
std::map<std::string, std::string> dirBytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    files[entry.path().filename().string()] = readFile(entry.path());
  return files;
}

/// The "steps" count of the last line of the run log at @p path.
std::size_t lastLoggedSteps(const std::string& path) {
  const std::string log = readFile(path);
  const std::size_t line = log.rfind('\n', log.size() - 2) + 1;
  return static_cast<std::size_t>(
      Json::parse(log.substr(line, log.find(' ', line) - line))
          .at("steps")
          .asNumber());
}

TEST(SessionManager, FailingSessionsLeaveTheRestOfTheRoundSteppedAndPersisted) {
  // s1 and s3 throw from the same step (same seed, same evaluation);
  // s0, s2 and s4 must still be stepped and persisted in that round, and
  // the lowest-indexed failure is the one rethrown.
  const auto run = [](std::size_t n_threads) {
    const ScopedThreads threads(n_threads);
    SessionManagerOptions options;
    options.checkpoint_dir = uniqueDir("failing_t" + std::to_string(n_threads));
    SessionManager manager(options);
    for (std::size_t i = 0; i < 5; ++i) {
      const std::string id = "s" + std::to_string(i);
      SessionSpec spec = makeSpec(id, i % 2 == 1 ? 141 : 150 + i, 1, 6.0);
      if (i % 2 == 1)
        spec.problem = [id] {
          return std::make_unique<FailingProblem>(id, /*fail_at=*/8);
        };
      manager.create(std::move(spec));
    }
    std::string error;
    std::vector<std::size_t> before;
    while (error.empty()) {
      before.clear();
      for (const std::string& id : manager.ids())
        before.push_back(manager.session(id).steps());
      const std::uint64_t rounds = manager.roundsCompleted();
      try {
        EXPECT_EQ(manager.stepRound(), 5u);
      } catch (const std::runtime_error& e) {
        error = e.what();
        EXPECT_EQ(manager.roundsCompleted(), rounds)
            << "a round that threw must not count";
      }
    }
    EXPECT_EQ(error, "s1") << "the lowest-indexed failure is rethrown";
    for (std::size_t i = 0; i < 5; ++i) {
      const std::string id = "s" + std::to_string(i);
      const Session& session = manager.session(id);
      const std::string log = options.checkpoint_dir + "/" + id + ".ckpt.json";
      if (i % 2 == 1) {
        EXPECT_EQ(lastLoggedSteps(log), before[i])
            << id << " failed, so this round must not persist it";
        continue;
      }
      EXPECT_EQ(session.steps(), before[i] + 1) << id << " was not stepped";
      if (session.done())
        EXPECT_TRUE(
            fileExists(options.checkpoint_dir + "/" + id + ".result.json"));
      else
        EXPECT_EQ(lastLoggedSteps(log), session.steps())
            << id << " was stepped but not persisted";
    }
    // The failed sessions sit out; the rest run to completion.
    manager.pause("s1");
    manager.pause("s3");
    manager.runAll();
    for (const std::string id : {"s0", "s2", "s4"})
      EXPECT_TRUE(manager.session(id).done()) << id;
    return dirBytes(options.checkpoint_dir);
  };
  const std::map<std::string, std::string> serial = run(1);
  EXPECT_EQ(serial.size(), 5u);
  EXPECT_EQ(run(4), serial);
}

TEST(SessionManager, RecorderEnabledMidRunDumpsTheSameBytesAtAnyThreadCount) {
  // The recorder comes on after the sessions exist, so no journal holds a
  // slot until the first round. stepRound claims them serially, in
  // creation order; claimed by the concurrent steps' first records
  // instead, the dump order would be a thread race.
  const std::string dir = uniqueDir("recorder_mid_run");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/flightrec.jsonl";
  const auto dump = [&](std::size_t n_threads) {
    const ScopedThreads threads(n_threads);
    SessionManager manager;
    for (std::size_t i = 0; i < 16; ++i)
      manager.create(makeSpec("m" + std::to_string(i), 500 + i));
    eventlog::enable();
    manager.runAll();
    const bool ok = eventlog::dumpFlightRecorder(path.c_str());
    eventlog::disable();
    EXPECT_TRUE(ok);
    return readFile(path);
  };
  const std::string reference = dump(1);
  EXPECT_NE(reference.find("\"session\":\"m15\""), std::string::npos);
  for (int rep = 0; rep < 50; ++rep)
    ASSERT_EQ(dump(4), reference) << "repetition " << rep;
}

// --- crash recovery ------------------------------------------------------

/// Step the manager exactly @p budget session-steps in stepRound() order —
/// creation-order round-robin — persisting every boundary, then stop: a
/// simulated kill at an arbitrary scheduler boundary, mid-round included.
void driveAndAbandon(SessionManager& manager, std::size_t budget) {
  while (budget > 0) {
    bool any = false;
    for (const std::string& id : manager.ids()) {
      Session& session = manager.session(id);
      if (session.status() != SessionStatus::kRunning) continue;
      session.step();
      manager.persist(id);
      any = true;
      if (--budget == 0) return;
    }
    if (!any) return;
  }
}

TEST(SessionManager, KillAtEverySchedulerBoundaryRecoversEverySession) {
  ScopedThreads threads(1);
  const std::vector<std::uint64_t> seeds = {31, 32};
  // Longer runs than the other tests: the sweep needs enough scheduler
  // boundaries (several loop iterations per session) to be meaningful.
  const double kBudget = 4.5;

  // Uninterrupted reference: result bytes and the total boundary count.
  std::vector<std::string> reference;
  std::size_t total_steps = 0;
  {
    SessionManager manager;
    manager.create(makeSpec("r0", seeds[0], 1, kBudget));
    manager.create(makeSpec("r1", seeds[1], 2, kBudget));
    manager.runAll();
    for (const std::string& id : manager.ids()) {
      reference.push_back(manager.session(id).resultJson().dump());
      total_steps += manager.session(id).steps();
    }
  }
  ASSERT_GT(total_steps, 20u) << "workload too small to exercise recovery";

  for (std::size_t boundary = 0; boundary <= total_steps; ++boundary) {
    SessionManagerOptions options;
    options.checkpoint_dir =
        uniqueDir("killsweep_" + std::to_string(boundary));
    // Phase 1: run to the boundary and abandon — the kill. Every step was
    // persisted, so the directory holds each session's last boundary.
    {
      SessionManager manager(options);
      manager.create(makeSpec("r0", seeds[0], 1, kBudget));
      manager.create(makeSpec("r1", seeds[1], 2, kBudget));
      driveAndAbandon(manager, boundary);
    }
    // Phase 2: a fresh process image restarts every in-flight session from
    // its persisted boundary and completes byte-identically.
    SessionManager recovered(options);
    recovered.create(makeSpec("r0", seeds[0], 1, kBudget));
    recovered.create(makeSpec("r1", seeds[1], 2, kBudget));
    recovered.runAll();
    const std::vector<std::string> ids = recovered.ids();
    for (std::size_t i = 0; i < ids.size(); ++i)
      ASSERT_EQ(recovered.session(ids[i]).resultJson().dump(), reference[i])
          << "session " << ids[i] << " diverged after a kill at boundary "
          << boundary << "/" << total_steps;
  }
}

TEST(SessionManager, TornFinalLineIsCutBeforeTheNextAppend) {
  ScopedThreads threads(1);
  const double kBudget = 4.5;  // long enough to outlast the rounds below
  std::string reference;
  {
    SessionManager manager;
    manager.create(makeSpec("torn", 111, 1, kBudget));
    manager.runAll();
    reference = manager.session("torn").resultJson().dump();
  }
  SessionManagerOptions options;
  options.checkpoint_dir = uniqueDir("torn");
  const std::string log_path = options.checkpoint_dir + "/torn.ckpt.json";
  {
    SessionManager manager(options);
    manager.create(makeSpec("torn", 111, 1, kBudget));
    for (int round = 0; round < 8; ++round) manager.stepRound();
  }
  // A kill mid-append leaves the last line without its tail.
  std::string log = readFile(log_path);
  const std::size_t whole = log.rfind('\n', log.size() - 2) + 1;
  log.resize(log.size() - 5);
  std::ofstream(log_path, std::ios::binary | std::ios::trunc) << log;

  {
    SessionManager recovered(options);
    Session& session = recovered.create(makeSpec("torn", 111, 1, kBudget));
    EXPECT_EQ(session.steps(), 7u) << "resumes from the line before the tear";
    EXPECT_EQ(std::filesystem::file_size(log_path), whole)
        << "the torn line must be cut off before the next append";
    recovered.stepRound();
    recovered.stepRound();
    ASSERT_FALSE(session.done());
  }
  // The appends after the cut extend a whole log: it replays, and the run
  // completes byte-identically.
  SessionManager again(options);
  EXPECT_EQ(again.create(makeSpec("torn", 111, 1, kBudget)).steps(), 9u);
  again.runAll();
  EXPECT_EQ(again.session("torn").resultJson().dump(), reference);
}

TEST(SessionManager, FailedAppendIsCutBackOffTheLog) {
  ScopedThreads threads(1);
  const double kBudget = 4.5;  // long enough to outlast the rounds below
  std::string reference;
  {
    SessionManager manager;
    manager.create(makeSpec("fsize", 121, 1, kBudget));
    manager.runAll();
    reference = manager.session("fsize").resultJson().dump();
  }
  SessionManagerOptions options;
  options.checkpoint_dir = uniqueDir("fsize");
  const std::string log_path = options.checkpoint_dir + "/fsize.ckpt.json";
  {
    SessionManager manager(options);
    Session& session = manager.create(makeSpec("fsize", 121, 1, kBudget));
    for (int round = 0; round < 4; ++round) manager.stepRound();
    const std::string before = readFile(log_path);
    ASSERT_FALSE(before.empty());
    session.step();  // a boundary the log does not hold yet
    {
      // A file-size cap a few bytes past the log's end makes the append
      // land partially and then fail.
      const ScopedFileSizeCap cap(before.size() + 4);
      ASSERT_TRUE(cap.installed);
      EXPECT_THROW(manager.persist("fsize"), ContractViolation);
    }
    EXPECT_EQ(readFile(log_path), before)
        << "the partial append must be cut back off";
    // The next persist appends the same boundary, whole.
    manager.persist("fsize");
    const std::string after = readFile(log_path);
    EXPECT_GT(after.size(), before.size());
    EXPECT_EQ(after.compare(0, before.size(), before), 0);
  }
  SessionManager recovered(options);
  EXPECT_EQ(recovered.create(makeSpec("fsize", 121, 1, kBudget)).steps(), 5u);
  recovered.runAll();
  EXPECT_EQ(recovered.session("fsize").resultJson().dump(), reference);
}

TEST(SessionManager, UnreadableRecoveryFileRejectsOnlyThatSession) {
  ScopedThreads threads(1);
  std::string reference;
  {
    SessionManager manager;
    manager.create(makeSpec("fine", 131));
    manager.runAll();
    reference = manager.session("fine").resultJson().dump();
  }
  for (const std::string suffix : {".ckpt.json", ".result.json"}) {
    SessionManagerOptions options;
    options.checkpoint_dir = uniqueDir("unreadable" + suffix);
    SessionManager manager(options);
    // A self-referential symlink exists but cannot be opened (ELOOP), even
    // by root — unlike a chmod'ed file. Only a missing file means "no
    // recovery state"; this one must not be mistaken for it.
    std::filesystem::create_symlink("loop" + suffix,
                                    options.checkpoint_dir + "/loop" + suffix);
    EXPECT_THROW(manager.create(makeSpec("loop", 132)), ContractViolation)
        << suffix;
    EXPECT_EQ(manager.size(), 0u) << suffix;
    manager.create(makeSpec("fine", 131));
    manager.runAll();
    EXPECT_EQ(manager.session("fine").resultJson().dump(), reference)
        << suffix;
  }
}

TEST(SessionManager, CompletedSessionIsAdoptedFromItsResultDocument) {
  ScopedThreads threads(1);
  SessionManagerOptions options;
  options.checkpoint_dir = uniqueDir("adopt");

  std::string reference;
  {
    SessionManager manager(options);
    manager.create(makeSpec("done1", 41));
    manager.runAll();
    reference = manager.session("done1").resultJson().dump();
  }
  EXPECT_TRUE(fileExists(options.checkpoint_dir + "/done1.result.json"));
  // The checkpoint is superseded by the result document.
  EXPECT_FALSE(fileExists(options.checkpoint_dir + "/done1.ckpt.json"));

  SessionManager recovered(options);
  Session& session = recovered.create(makeSpec("done1", 41));
  EXPECT_TRUE(session.done());
  EXPECT_EQ(session.resultJson().dump(), reference);
  EXPECT_EQ(recovered.stepRound(), 0u);
}

TEST(SessionManager, PersistHonorsTheCheckpointCadence) {
  ScopedThreads threads(1);
  SessionManagerOptions options;
  options.checkpoint_dir = uniqueDir("cadence");
  options.checkpoint_every = 3;
  SessionManager manager(options);
  manager.create(makeSpec("cad", 51));
  const std::string ckpt = options.checkpoint_dir + "/cad.ckpt.json";

  manager.stepRound();  // steps = 1: off-cadence, nothing persisted
  EXPECT_FALSE(fileExists(ckpt));
  manager.stepRound();
  EXPECT_FALSE(fileExists(ckpt));
  manager.stepRound();  // steps = 3: on-cadence
  EXPECT_TRUE(fileExists(ckpt));
}

// --- manager lifecycle ---------------------------------------------------

TEST(SessionManager, PauseExcludesFromSchedulingAndResumeReadmits) {
  SessionManager manager;
  manager.create(makeSpec("p0", 61));
  manager.create(makeSpec("p1", 62));

  manager.stepRound();
  manager.pause("p0");
  const std::size_t frozen = manager.session("p0").steps();
  manager.runAll();  // completes p1, leaves p0 paused
  EXPECT_EQ(manager.session("p0").steps(), frozen);
  EXPECT_EQ(manager.session("p0").status(), SessionStatus::kPaused);
  EXPECT_TRUE(manager.session("p1").done());

  manager.resume("p0");
  manager.runAll();
  EXPECT_TRUE(manager.session("p0").done());
}

TEST(SessionManager, DestroyForgetsTheSessionAndItsRecoveryFiles) {
  ScopedThreads threads(1);
  SessionManagerOptions options;
  options.checkpoint_dir = uniqueDir("destroy");
  SessionManager manager(options);
  manager.create(makeSpec("d0", 71));
  manager.stepRound();
  const std::string ckpt = options.checkpoint_dir + "/d0.ckpt.json";
  ASSERT_TRUE(fileExists(ckpt));

  manager.destroy("d0");
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_EQ(manager.find("d0"), nullptr);
  EXPECT_FALSE(fileExists(ckpt));
  EXPECT_THROW(manager.destroy("d0"), ContractViolation);

  // Re-creating the id starts fresh rather than resurrecting state.
  Session& fresh = manager.create(makeSpec("d0", 71));
  EXPECT_EQ(fresh.steps(), 0u);
}

TEST(SessionManager, DuplicateAndUnknownIdsAreRejected) {
  SessionManager manager;
  manager.create(makeSpec("dup", 81));
  EXPECT_THROW(manager.create(makeSpec("dup", 82)), ContractViolation);
  EXPECT_THROW(manager.session("nope"), ContractViolation);
  EXPECT_THROW(manager.pause("nope"), ContractViolation);
  EXPECT_EQ(manager.find("nope"), nullptr);
}

TEST(SessionManager, PersistWithoutDirectoryIsRejected) {
  SessionManager manager;
  manager.create(makeSpec("nodisk", 91));
  EXPECT_THROW(manager.persist("nodisk"), ContractViolation);
}

}  // namespace
