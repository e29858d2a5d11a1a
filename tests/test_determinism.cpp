// Determinism regression battery: the acceptance criterion of the parallel
// execution layer is that a fixed seed produces *byte-identical* results
// at 1 thread and N threads — optimizer outputs, GP posteriors, fused
// NARGP predictions, the full Algorithm-1 JSONL trace, and the bench
// --no-timing artifacts. Every comparison here is exact (EXPECT_EQ on
// doubles / bytes), never approximate.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bo/mfbo.h"
#include "common/parallel.h"
#include "common/spans.h"
#include "common/telemetry.h"
#include "common/timeline.h"
#include "gp/gp_regressor.h"
#include "linalg/rng.h"
#include "mf/nargp.h"
#include "opt/multistart.h"
#include "problems/synthetic.h"

namespace {

using namespace mfbo;

struct ScopedThreads {
  explicit ScopedThreads(std::size_t n) { parallel::setMaxThreads(n); }
  ~ScopedThreads() { parallel::setMaxThreads(0); }
};

/// Run @p fn at the given thread count and return its result.
template <typename Fn>
auto withThreads(std::size_t n, Fn&& fn) {
  const ScopedThreads scope(n);
  return fn();
}

// --- multistart ----------------------------------------------------------

TEST(MultistartDeterminism, ResultAndProvenanceMatchAcrossThreadCounts) {
  // Rastrigin-flavored multimodal objective: plenty of distinct local
  // minima, so a scheduling-dependent argmin would be caught immediately.
  const opt::ScalarObjective f = [](const linalg::Vector& x) {
    double acc = 10.0 * static_cast<double>(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      acc += (x[i] - 0.3) * (x[i] - 0.3) -
             10.0 * std::cos(8.0 * (x[i] - 0.3));
    return acc;
  };
  const linalg::Box box(linalg::Vector(3, -1.0), linalg::Vector(3, 1.0));
  linalg::Rng rng(11);
  std::vector<linalg::Vector> starts;
  for (int s = 0; s < 24; ++s)
    starts.push_back(rng.uniformVector(3, -1.0, 1.0));
  opt::MultistartOptions opts;
  opts.local.max_evaluations = 120;

  const auto run = [&] { return opt::multistartMinimize(f, starts, box, opts); };
  const opt::OptResult serial = withThreads(1, run);
  const opt::OptResult pooled = withThreads(4, run);

  EXPECT_EQ(serial.value, pooled.value);
  EXPECT_EQ(serial.best_start, pooled.best_start);
  EXPECT_EQ(serial.evaluations, pooled.evaluations);
  EXPECT_EQ(serial.iterations, pooled.iterations);
  ASSERT_EQ(serial.x.size(), pooled.x.size());
  for (std::size_t i = 0; i < serial.x.size(); ++i)
    EXPECT_EQ(serial.x[i], pooled.x[i]) << "coordinate " << i;
}

// --- GP training ---------------------------------------------------------

TEST(GpDeterminism, RestartTrainingGivesIdenticalPosterior) {
  const auto train_and_predict = [] {
    linalg::Rng data_rng(5);
    std::vector<linalg::Vector> x;
    std::vector<double> y;
    for (int i = 0; i < 20; ++i) {
      x.push_back(data_rng.uniformVector(2));
      y.push_back(std::sin(3.0 * x.back()[0]) + 0.5 * x.back()[1]);
    }
    gp::GpConfig cfg;
    cfg.seed = 33;
    cfg.n_restarts = 6;
    gp::GpRegressor model(std::make_unique<gp::SeArdKernel>(2), cfg);
    model.fit(x, y);
    std::vector<double> out;
    linalg::Rng probe_rng(77);
    for (int i = 0; i < 10; ++i) {
      const gp::Prediction p = model.predict(probe_rng.uniformVector(2));
      out.push_back(p.mean);
      out.push_back(p.var);
    }
    return out;
  };
  const std::vector<double> serial = withThreads(1, train_and_predict);
  const std::vector<double> pooled = withThreads(4, train_and_predict);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], pooled[i]) << "slot " << i;
}

// --- NARGP MC prediction -------------------------------------------------

TEST(NargpDeterminism, McFusedPredictionIsThreadCountInvariant) {
  const auto fit_and_predict = [] {
    std::vector<linalg::Vector> xl, xh;
    std::vector<double> yl, yh;
    for (int i = 0; i < 25; ++i) {
      const double x = (i + 0.5) / 25.0;
      xl.push_back(linalg::Vector{x});
      yl.push_back(std::sin(8.0 * x));
    }
    for (int i = 0; i < 8; ++i) {
      const double x = (i + 0.5) / 8.0;
      xh.push_back(linalg::Vector{x});
      yh.push_back(std::sin(8.0 * x) * std::sin(8.0 * x));
    }
    mf::NargpConfig cfg;
    cfg.seed = 9;
    cfg.n_mc = 64;  // well above the grain, so the pool actually engages
    cfg.low.n_restarts = 1;
    cfg.high.n_restarts = 1;
    mf::NargpModel model(1, cfg);
    model.fit(xl, yl, xh, yh);
    std::vector<double> out;
    for (int i = 0; i < 20; ++i) {
      const gp::Prediction p =
          model.predictHigh(linalg::Vector{(i + 0.25) / 20.0});
      out.push_back(p.mean);
      out.push_back(p.var);
    }
    return out;
  };
  const std::vector<double> serial = withThreads(1, fit_and_predict);
  const std::vector<double> pooled = withThreads(4, fit_and_predict);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], pooled[i]) << "slot " << i;
}

// --- full Algorithm-1 loop -----------------------------------------------

bo::MfboOptions smallMfboOptions() {
  bo::MfboOptions opt;
  opt.n_init_low = 8;
  opt.n_init_high = 4;
  opt.budget = 8.0;
  opt.retrain_every = 2;
  opt.msp.n_starts = 6;
  opt.msp.local.max_evaluations = 40;
  opt.nargp.n_mc = 24;
  opt.nargp.low.n_restarts = 2;
  opt.nargp.high.n_restarts = 2;
  return opt;
}

/// One traced synthesis run: returns the result plus the full trace,
/// serialized to the exact bytes a JSONL TraceWriter would emit.
std::pair<bo::SynthesisResult, std::string> tracedRun(std::uint64_t seed) {
  problems::ConstrainedQuadraticProblem problem(2);
  telemetry::CollectingTraceSink sink;
  const telemetry::ScopedTraceSink scope(&sink);
  bo::SynthesisResult result =
      bo::MfboSynthesizer(smallMfboOptions()).run(problem, seed);
  std::string trace;
  for (const Json& event : sink.events) {
    trace += event.dump();
    trace += '\n';
  }
  return {std::move(result), std::move(trace)};
}

TEST(MfboDeterminism, TraceBytesAndResultMatchAcrossThreadCounts) {
  const auto serial = withThreads(1, [] { return tracedRun(7); });
  const auto pooled = withThreads(4, [] { return tracedRun(7); });

  EXPECT_FALSE(serial.second.empty());
  EXPECT_EQ(serial.second, pooled.second) << "JSONL trace bytes diverged";

  const bo::SynthesisResult& a = serial.first;
  const bo::SynthesisResult& b = pooled.first;
  EXPECT_EQ(a.best_eval.objective, b.best_eval.objective);
  EXPECT_EQ(a.feasible_found, b.feasible_found);
  EXPECT_EQ(a.n_low, b.n_low);
  EXPECT_EQ(a.n_high, b.n_high);
  EXPECT_EQ(a.equivalent_high_sims, b.equivalent_high_sims);
  ASSERT_EQ(a.best_x.size(), b.best_x.size());
  for (std::size_t i = 0; i < a.best_x.size(); ++i)
    EXPECT_EQ(a.best_x[i], b.best_x[i]) << "coordinate " << i;
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].eval.objective, b.history[i].eval.objective)
        << "history entry " << i;
    EXPECT_EQ(a.history[i].cumulative_cost, b.history[i].cumulative_cost)
        << "history entry " << i;
  }
}

TEST(MfboDeterminism, DifferentSeedsStillDiffer) {
  // Guards against the degenerate explanation for the test above (a run
  // that ignores its seed would also be "deterministic").
  const auto a = withThreads(4, [] { return tracedRun(7); });
  const auto b = withThreads(4, [] { return tracedRun(8); });
  EXPECT_NE(a.second, b.second);
}

// --- bench artifact ------------------------------------------------------

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A --quick-style bench run: repeats through runRepeats, artifact through
/// writeArtifact with --no-timing semantics so the bytes carry no wall
/// clock. Mirrors what the table binaries do with
/// `--quick --no-timing --out`.
std::string benchArtifactBytes(const std::string& path) {
  bench::BenchConfig cfg;
  cfg.seed = 42;
  cfg.timing = false;  // --no-timing
  cfg.out = path;
  bench::AlgoStats stats{"mfbo"};
  const auto fresh = [] { return problems::ConstrainedQuadraticProblem(2); };
  bench::runRepeats(stats, bo::MfboSynthesizer(smallMfboOptions()), fresh,
                    /*runs=*/3, cfg);
  bench::writeArtifact(cfg, "determinism_check", 3, {&stats});
  const std::string bytes = readFile(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(BenchDeterminism, NoTimingArtifactBytesMatchAcrossThreadCounts) {
  const std::string serial = withThreads(
      1, [] { return benchArtifactBytes("det_artifact_t1.json"); });
  const std::string pooled = withThreads(
      4, [] { return benchArtifactBytes("det_artifact_t4.json"); });
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, pooled) << "--no-timing artifact bytes diverged";
  // Wall times must be zeroed, and the timers section absent.
  EXPECT_EQ(serial.find("timers"), std::string::npos);
}

/// benchArtifactBytes with the span profiler on — the `--spans --no-timing`
/// artifact, carrying the library's counters and the per-span
/// alloc_count/alloc_bytes counters.
std::string spanArtifactBytes(const std::string& path) {
  spans::reset();
  spans::setEnabled(true);
  const std::string bytes = benchArtifactBytes(path);
  spans::setEnabled(false);
  spans::reset();
  return bytes;
}

TEST(BenchDeterminism, SpanAllocCountersMatchAcrossThreadCounts) {
  const std::string serial = withThreads(
      1, [] { return spanArtifactBytes("det_spans_t1.json"); });
  const std::string pooled = withThreads(
      4, [] { return spanArtifactBytes("det_spans_t4.json"); });
  EXPECT_EQ(serial, pooled)
      << "--spans --no-timing artifact bytes diverged across thread counts";
  // The artifact actually carried the library and memory-attribution
  // counters (and the nondeterministic RSS sample stayed out).
  EXPECT_NE(serial.find("\"bo.mfbo.iterations\""), std::string::npos);
  EXPECT_NE(serial.find("\"gp.nlml_evals\""), std::string::npos);
  EXPECT_NE(serial.find("\"alloc_count\""), std::string::npos);
  EXPECT_NE(serial.find("\"alloc_bytes\""), std::string::npos);
  EXPECT_EQ(serial.find("peak_rss_bytes"), std::string::npos);
}

TEST(BenchDeterminism, TimelineRecordingLeavesArtifactBytesUntouched) {
  // --timeline is strictly outside the deterministic artifact path: the
  // same run with a timeline recording alongside must produce identical
  // --spans --no-timing artifact bytes.
  const std::string plain = withThreads(
      4, [] { return spanArtifactBytes("det_tl_off.json"); });
  const std::string with_timeline = withThreads(4, [] {
    timeline::start("det_timeline_scratch.json");
    const std::string bytes = spanArtifactBytes("det_tl_on.json");
    timeline::stop();
    std::remove("det_timeline_scratch.json");
    return bytes;
  });
  EXPECT_EQ(plain, with_timeline)
      << "recording a timeline perturbed the deterministic artifact";
}

TEST(BenchDeterminism, RunRepeatsMatchesSequentialAddLoop) {
  // runRepeats at N threads must agree with the plain serial repeat loop it
  // replaced — including the order-sensitive median tracking.
  bench::BenchConfig cfg;
  cfg.seed = 21;
  cfg.timing = false;
  const bo::MfboSynthesizer synthesizer(smallMfboOptions());

  bench::AlgoStats reference{"ref"};
  {
    const ScopedThreads scope(1);
    for (std::size_t r = 0; r < 3; ++r) {
      problems::ConstrainedQuadraticProblem problem(2);
      reference.add(synthesizer.run(problem, cfg.seed + r), 0.0);
    }
  }

  bench::AlgoStats pooled{"pooled"};
  {
    const ScopedThreads scope(4);
    const auto fresh = [] { return problems::ConstrainedQuadraticProblem(2); };
    bench::runRepeats(pooled, synthesizer, fresh, 3, cfg);
  }

  ASSERT_EQ(reference.objectives.size(), pooled.objectives.size());
  for (std::size_t i = 0; i < reference.objectives.size(); ++i)
    EXPECT_EQ(reference.objectives[i], pooled.objectives[i]) << "run " << i;
  EXPECT_EQ(reference.successes, pooled.successes);
  EXPECT_EQ(reference.median_result.best_eval.objective,
            pooled.median_result.best_eval.objective);
}

}  // namespace
