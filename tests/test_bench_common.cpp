// Tests for the bench-harness helpers: bestHighIndex / costToReachBest
// edge cases, the hardened argument parser, the --out JSON artifact, and
// --trace file write failures.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bo/result.h"
#include "common/json.h"
#include "common/timeline.h"
#include "problems/synthetic.h"

namespace {

using namespace mfbo;

bo::HistoryEntry entry(double objective, std::vector<double> constraints,
                       bo::Fidelity fidelity, double cost) {
  bo::HistoryEntry h;
  h.x = bo::Vector{0.0};
  h.eval.objective = objective;
  h.eval.constraints = std::move(constraints);
  h.fidelity = fidelity;
  h.cumulative_cost = cost;
  return h;
}

// --- bestHighIndex ------------------------------------------------------

TEST(BestHighIndex, EmptyHistoryReturnsNullopt) {
  EXPECT_FALSE(bo::bestHighIndex({}).has_value());
}

TEST(BestHighIndex, NoHighFidelityEntriesReturnsNullopt) {
  std::vector<bo::HistoryEntry> h;
  h.push_back(entry(-1.0, {}, bo::Fidelity::kLow, 0.1));
  h.push_back(entry(-5.0, {}, bo::Fidelity::kLow, 0.2));
  EXPECT_FALSE(bo::bestHighIndex(h).has_value());
}

TEST(BestHighIndex, AllInfeasiblePicksLeastViolation) {
  std::vector<bo::HistoryEntry> h;
  h.push_back(entry(-9.0, {3.0, 1.0}, bo::Fidelity::kHigh, 1.0));  // viol 4
  h.push_back(entry(-1.0, {0.5}, bo::Fidelity::kHigh, 2.0));       // viol 0.5
  h.push_back(entry(-5.0, {2.0}, bo::Fidelity::kHigh, 3.0));       // viol 2
  const auto best = bo::bestHighIndex(h);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1u);  // least violation wins despite the worse objective
}

TEST(BestHighIndex, FeasibleBeatsInfeasibleWithBetterObjective) {
  std::vector<bo::HistoryEntry> h;
  h.push_back(entry(-9.0, {1.0}, bo::Fidelity::kHigh, 1.0));   // infeasible
  h.push_back(entry(-2.0, {-1.0}, bo::Fidelity::kHigh, 2.0));  // feasible
  const auto best = bo::bestHighIndex(h);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1u);
}

TEST(BestHighIndex, TiedObjectivesKeepTheFirst) {
  std::vector<bo::HistoryEntry> h;
  h.push_back(entry(-3.0, {-1.0}, bo::Fidelity::kHigh, 1.0));
  h.push_back(entry(-3.0, {-1.0}, bo::Fidelity::kHigh, 2.0));
  const auto best = bo::bestHighIndex(h);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 0u);  // strict < comparison: the first tie wins
}

TEST(BestHighIndex, IgnoresBetterLowFidelityEntries) {
  std::vector<bo::HistoryEntry> h;
  h.push_back(entry(-100.0, {-1.0}, bo::Fidelity::kLow, 0.1));
  h.push_back(entry(-1.0, {-1.0}, bo::Fidelity::kHigh, 1.1));
  const auto best = bo::bestHighIndex(h);
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(*best, 1u);
}

TEST(BestHighIndex, CountLimitsTheHistoryPrefix) {
  std::vector<bo::HistoryEntry> h;
  h.push_back(entry(-1.0, {-1.0}, bo::Fidelity::kLow, 0.1));
  h.push_back(entry(5.0, {2.0}, bo::Fidelity::kHigh, 1.1));
  h.push_back(entry(4.0, {1.0}, bo::Fidelity::kHigh, 2.1));
  h.push_back(entry(3.0, {1.0}, bo::Fidelity::kHigh, 3.1));  // tie
  h.push_back(entry(9.0, {-1.0}, bo::Fidelity::kHigh, 4.1));
  h.push_back(entry(-50.0, {-1.0}, bo::Fidelity::kLow, 4.2));
  h.push_back(entry(2.0, {-0.5}, bo::Fidelity::kHigh, 5.2));
  h.push_back(entry(2.0, {-0.7}, bo::Fidelity::kHigh, 6.2));  // tie
  for (std::size_t k = 0; k <= h.size(); ++k) {
    const std::vector<bo::HistoryEntry> prefix(h.begin(), h.begin() + k);
    EXPECT_EQ(bo::bestHighIndex(h, k), bo::bestHighIndex(prefix)) << k;
  }
  // A count past the end is clamped to the history.
  EXPECT_EQ(bo::bestHighIndex(h, h.size() + 3), bo::bestHighIndex(h));
  EXPECT_EQ(bo::bestHighIndex(h, static_cast<std::size_t>(-1)),
            std::optional<std::size_t>(6));
}

// --- costToReachBest ----------------------------------------------------

TEST(CostToReachBest, UsesTheBestEntriesCumulativeCost) {
  bo::SynthesisResult r;
  r.history.push_back(entry(-1.0, {-1.0}, bo::Fidelity::kHigh, 1.0));
  r.history.push_back(entry(-5.0, {-1.0}, bo::Fidelity::kHigh, 2.0));
  r.history.push_back(entry(-3.0, {-1.0}, bo::Fidelity::kHigh, 3.0));
  r.equivalent_high_sims = 3.0;
  EXPECT_DOUBLE_EQ(bench::costToReachBest(r), 2.0);
}

TEST(CostToReachBest, NoHighEntriesFallsBackToTotalCost) {
  bo::SynthesisResult r;
  r.history.push_back(entry(-1.0, {}, bo::Fidelity::kLow, 0.1));
  r.equivalent_high_sims = 0.1;
  EXPECT_DOUBLE_EQ(bench::costToReachBest(r), 0.1);
}

// --- parseArgs ----------------------------------------------------------

bench::BenchConfig parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::string prog = "bench_test";
  argv.push_back(prog.data());
  for (std::string& a : args) argv.push_back(a.data());
  return bench::parseArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(ParseArgs, ParsesAllFlags) {
  const bench::BenchConfig cfg =
      parse({"--full", "--runs", "7", "--seed", "99", "--out", "x.json"});
  EXPECT_TRUE(cfg.full);
  EXPECT_EQ(cfg.runs_override, 7u);
  EXPECT_EQ(cfg.seed, 99u);
  EXPECT_EQ(cfg.out, "x.json");
  EXPECT_EQ(cfg.runs(3, 12), 7u);  // override beats both mode defaults
}

TEST(ParseArgs, DefaultsAreQuickMode) {
  const bench::BenchConfig cfg = parse({});
  EXPECT_FALSE(cfg.full);
  EXPECT_EQ(cfg.runs(3, 12), 3u);
  EXPECT_EQ(std::string(cfg.mode()), "quick");
}

TEST(ParseArgsDeath, HelpExitsZero) {
  // Usage goes to stdout (EXPECT_EXIT only captures stderr, hence "").
  EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
}

TEST(ParseArgsDeath, RejectsNegativeRuns) {
  EXPECT_EXIT(parse({"--runs", "-3"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsZeroRuns) {
  EXPECT_EXIT(parse({"--runs", "0"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsNonNumericRuns) {
  EXPECT_EXIT(parse({"--runs", "many"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsTrailingGarbageInRuns) {
  EXPECT_EXIT(parse({"--runs", "3x"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsMissingRunsValue) {
  EXPECT_EXIT(parse({"--runs"}), ::testing::ExitedWithCode(2),
              "missing value");
}

TEST(ParseArgsDeath, RejectsNonNumericSeed) {
  EXPECT_EXIT(parse({"--seed", "abc"}), ::testing::ExitedWithCode(2),
              "non-negative integer");
}

TEST(ParseArgsDeath, RejectsNegativeSeed) {
  // strtoull would wrap "-1" to 18446744073709551615.
  EXPECT_EXIT(parse({"--seed", "-1"}), ::testing::ExitedWithCode(2),
              "non-negative integer");
  EXPECT_EXIT(parse({"--seed", " -1"}), ::testing::ExitedWithCode(2),
              "non-negative integer");
}

TEST(ParseArgsDeath, RejectsOutOfRangeSeed) {
  EXPECT_EXIT(parse({"--seed", "99999999999999999999999"}),
              ::testing::ExitedWithCode(2), "non-negative integer");
}

TEST(ParseArgsDeath, RejectsOutOfRangeRuns) {
  EXPECT_EXIT(parse({"--runs", "99999999999999999999999"}),
              ::testing::ExitedWithCode(2), "positive integer");
}

TEST(ParseArgs, ThreadsFlagSetsCountAndOverride) {
  const bench::BenchConfig cfg = parse({"--threads", "3"});
  EXPECT_EQ(cfg.threads, 3u);
  EXPECT_EQ(parallel::maxThreads(), 3u);  // parseArgs installs the override
  parallel::setMaxThreads(0);
}

TEST(ParseArgs, ThreadsDefaultsToAutomatic) {
  const bench::BenchConfig cfg = parse({});
  EXPECT_EQ(cfg.threads, 0u);
  EXPECT_TRUE(cfg.timing);
}

TEST(ParseArgs, NoTimingFlagDisablesTiming) {
  const bench::BenchConfig cfg = parse({"--no-timing"});
  EXPECT_FALSE(cfg.timing);
}

TEST(ParseArgsDeath, RejectsZeroThreads) {
  EXPECT_EXIT(parse({"--threads", "0"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsNegativeThreads) {
  EXPECT_EXIT(parse({"--threads", "-4"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsNonNumericThreads) {
  EXPECT_EXIT(parse({"--threads", "auto"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsTrailingGarbageInThreads) {
  EXPECT_EXIT(parse({"--threads", "4x"}), ::testing::ExitedWithCode(2),
              "positive integer");
}

TEST(ParseArgsDeath, RejectsOutOfRangeThreads) {
  // strtoll saturates to LLONG_MAX instead of failing the parse.
  EXPECT_EXIT(parse({"--threads", "99999999999999999999999"}),
              ::testing::ExitedWithCode(2), "positive integer");
}

TEST(ParseArgsDeath, RejectsMissingThreadsValue) {
  EXPECT_EXIT(parse({"--threads"}), ::testing::ExitedWithCode(2),
              "missing value");
}

TEST(ParseArgsDeath, RejectsUnknownArgument) {
  EXPECT_EXIT(parse({"--frobnicate"}), ::testing::ExitedWithCode(2),
              "unknown argument");
}

TEST(ParseArgs, SpansFlagEnablesProfiler) {
  EXPECT_FALSE(spans::enabled());
  const bench::BenchConfig cfg = parse({"--spans"});
  EXPECT_TRUE(cfg.spans);
  EXPECT_TRUE(spans::enabled());  // parseArgs flips the global switch
  spans::setEnabled(false);
  spans::reset();
}

TEST(ParseArgs, TraceFlagOpensWriterAndInstallsSink) {
  // --trace opens its file while parsing and keeps it open in the config,
  // where runRepeats and runOnce append their runs.
  const std::string path = "test_bench_trace.jsonl";
  std::ofstream(path) << "stale line\n";
  {
    const bench::BenchConfig cfg = parse({"--trace", path});
    EXPECT_EQ(cfg.trace, path);
    EXPECT_NE(cfg.trace_file, nullptr);
  }
  std::ifstream in(path);
  EXPECT_TRUE(in.good());  // the file was created (and truncated) up front
  EXPECT_EQ(in.peek(), std::ifstream::traits_type::eof());
  std::remove(path.c_str());
}

TEST(ParseArgsDeath, RejectsUnwritableTracePath) {
  EXPECT_EXIT(parse({"--trace", "no_such_dir/trace.jsonl"}),
              ::testing::ExitedWithCode(2), "not writable");
}

TEST(ParseArgsDeath, RejectsMissingTraceValue) {
  EXPECT_EXIT(parse({"--trace"}), ::testing::ExitedWithCode(2),
              "missing value");
}

TEST(ParseArgs, TimelineFlagStartsRecordingWithoutEnablingSpans) {
  const std::string path = "test_bench_timeline.json";
  const bench::BenchConfig cfg = parse({"--timeline", path});
  EXPECT_EQ(cfg.timeline, path);
  EXPECT_TRUE(timeline::recording());
  // The timeline is strictly outside the deterministic artifact path: the
  // flag must not flip the span profiler on.
  EXPECT_FALSE(spans::enabled());
  timeline::stop();
  std::ifstream in(path);
  EXPECT_TRUE(in.good());  // the file was created (and truncated) up front
  std::remove(path.c_str());
}

TEST(ParseArgsDeath, RejectsUnwritableTimelinePath) {
  EXPECT_EXIT(parse({"--timeline", "no_such_dir/timeline.json"}),
              ::testing::ExitedWithCode(2), "not writable");
}

TEST(ParseArgsDeath, RejectsMissingTimelineValue) {
  EXPECT_EXIT(parse({"--timeline"}), ::testing::ExitedWithCode(2),
              "missing value");
}

TEST(ParseArgsDeath, RejectsDuplicateTimelineFlag) {
  EXPECT_EXIT(parse({"--timeline", "a.json", "--timeline", "b.json"}),
              ::testing::ExitedWithCode(2), "more than once");
}

// --- AlgoStats & artifacts ----------------------------------------------

bo::SynthesisResult makeResult(double objective, bool feasible) {
  bo::SynthesisResult r;
  r.history.push_back(entry(objective, {feasible ? -1.0 : 1.0},
                            bo::Fidelity::kHigh, 1.0));
  r.best_x = r.history[0].x;
  r.best_eval = r.history[0].eval;
  r.feasible_found = feasible;
  r.equivalent_high_sims = 1.0;
  return r;
}

TEST(AlgoStats, AccumulatesRuns) {
  bench::AlgoStats stats{"algo"};
  stats.add(makeResult(-2.0, true), 0.5);
  stats.add(makeResult(-4.0, false), 1.5);
  EXPECT_EQ(stats.total_runs, 2u);
  EXPECT_EQ(stats.successes, 1u);
  ASSERT_EQ(stats.objectives.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.objectives[1], -4.0);
  ASSERT_EQ(stats.wall_times.size(), 2u);
  EXPECT_DOUBLE_EQ(stats.wall_times[0], 0.5);
}

TEST(Artifact, WriteAndParseRoundTrip) {
  bench::BenchConfig cfg;
  cfg.seed = 42;
  cfg.out = "test_bench_artifact.json";
  bench::AlgoStats a{"alpha"}, b{"beta"};
  a.add(makeResult(-1.5, true), 0.25);
  b.add(makeResult(-0.5, false), 0.75);
  bench::writeArtifact(cfg, "test_bench", 1, {&a, &b});

  std::ifstream in(cfg.out);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const Json doc = Json::parse(text.str());
  EXPECT_EQ(doc.at("bench").asString(), "test_bench");
  EXPECT_EQ(doc.at("mode").asString(), "quick");
  EXPECT_EQ(doc.at("seed").asNumber(), 42.0);
  ASSERT_EQ(doc.at("algorithms").size(), 2u);
  const Json& alpha = doc.at("algorithms").at(0);
  EXPECT_EQ(alpha.at("name").asString(), "alpha");
  EXPECT_EQ(alpha.at("objectives").at(0).asNumber(), -1.5);
  EXPECT_EQ(alpha.at("reach_costs").at(0).asNumber(), 1.0);
  EXPECT_EQ(alpha.at("successes").asNumber(), 1.0);
  // Timed artifact with the profiler off: the metrics section carries the
  // peak-RSS sample and no span tree (counts need --spans).
  EXPECT_TRUE(doc.at("metrics").contains("peak_rss_bytes"));
  EXPECT_FALSE(doc.at("metrics").contains("spans"));
  std::remove(cfg.out.c_str());
}

// On a full disk the bytes fit the stdio buffer and only fclose fails;
// /dev/full reproduces that. The bench must say so and exit 1, not report
// an artifact it never wrote.
TEST(ArtifactDeath, FullDiskExitsNamingThePath) {
  bench::BenchConfig cfg;
  cfg.out = "/dev/full";
  bench::AlgoStats a{"alpha"};
  EXPECT_EXIT(bench::writeArtifact(cfg, "test_bench", 0, {&a}),
              ::testing::ExitedWithCode(1), "failed to write '/dev/full'");
}

TEST(ArtifactDeath, UnopenablePathExitsNamingThePath) {
  EXPECT_EXIT(bench::writeFileOrExit("no_such_dir/fixture.json", "{}"),
              ::testing::ExitedWithCode(1),
              "cannot open 'no_such_dir/fixture.json'");
}

// A trace the bench cannot write must not pass silently: /dev/full takes
// the open but fails the flush, and runRepeats must name the path and exit
// 1, like writeFileOrExit.
TEST(RunRepeatsDeath, FailedTraceWriteExits1) {
  std::FILE* full = std::fopen("/dev/full", "w");
  if (full == nullptr) GTEST_SKIP() << "/dev/full unavailable";
  std::fclose(full);
  // runRepeats uses the pool, which a forked death-test child lacks.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const bench::BenchConfig cfg = parse({"--trace", "/dev/full"});
  bo::DeBaselineOptions tiny;
  tiny.population = 4;
  tiny.max_sims = 8.0;
  bench::AlgoStats stats{"de"};
  EXPECT_EXIT(bench::runRepeats(
                  stats, bo::DeBaseline(tiny),
                  [] { return problems::ForresterProblem(); }, 2, cfg),
              ::testing::ExitedWithCode(1), "failed to write '/dev/full'");
}

TEST(Artifact, NoOutPathIsNoOp) {
  bench::BenchConfig cfg;  // out empty
  bench::AlgoStats a{"alpha"};
  bench::writeArtifact(cfg, "test_bench", 0, {&a});  // must not exit/write
  SUCCEED();
}

}  // namespace
