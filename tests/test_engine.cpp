// Engine state-machine battery: the MFBO/WEIBO synthesis loops as the
// explicit Init → FitSurrogate → Propose → AwaitResults → Observe state
// machine of bo/engine.h. Covers the transition diagram (legal sequences,
// illegal edges, terminal Done), equivalence of run() and manual step()
// driving, q-point constant-liar batching (budget truncation, distinct
// proposals, per-slot fidelity decisions), and thread-count invariance of
// every artifact. All equality checks are exact — the engine's contract is
// byte-identity, not tolerance.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bo/engine.h"
#include "bo/mfbo.h"
#include "bo/weibo.h"
#include "common/check.h"
#include "common/parallel.h"
#include "problems/synthetic.h"

namespace {

using namespace mfbo;
using bo::EngineState;

struct ScopedThreads {
  explicit ScopedThreads(std::size_t n) { parallel::setMaxThreads(n); }
  ~ScopedThreads() { parallel::setMaxThreads(0); }
};

template <typename Fn>
auto withThreads(std::size_t n, Fn&& fn) {
  const ScopedThreads scope(n);
  return fn();
}

bo::MfboOptions quickMfboOptions(std::size_t batch_size = 1) {
  bo::MfboOptions opt;
  opt.n_init_low = 8;
  opt.n_init_high = 4;
  opt.budget = 8.0;
  opt.retrain_every = 2;
  opt.batch_size = batch_size;
  opt.msp.n_starts = 6;
  opt.msp.local.max_evaluations = 40;
  opt.nargp.n_mc = 24;
  opt.nargp.low.n_restarts = 2;
  opt.nargp.high.n_restarts = 2;
  return opt;
}

bo::WeiboOptions quickWeiboOptions() {
  bo::WeiboOptions opt;
  opt.n_init = 6;
  opt.max_sims = 10.0;
  opt.retrain_every = 2;
  opt.msp.n_starts = 6;
  opt.msp.local.max_evaluations = 40;
  opt.gp.n_restarts = 2;
  return opt;
}

problems::ConstrainedQuadraticProblem quickProblem() {
  return problems::ConstrainedQuadraticProblem(2);
}

/// Result + the exact JSONL trace bytes of the run's iteration records.
struct RunArtifacts {
  std::string result;
  std::string trace;
};

/// Observer appending each record's iterationJson line to @p trace.
bo::IterationObserver jsonlObserver(std::string& trace) {
  return [&trace](const bo::IterationRecord& r) {
    trace += bo::iterationJson(r).dump() + '\n';
  };
}

/// Run a copy of @p synthesizer whose observer records the trace.
template <typename Synthesizer>
RunArtifacts tracedRun(const Synthesizer& synthesizer, std::uint64_t seed) {
  auto problem = quickProblem();
  RunArtifacts out;
  auto options = synthesizer.options();
  options.observer = jsonlObserver(out.trace);
  const bo::SynthesisResult result = Synthesizer(options).run(problem, seed);
  out.result = bo::synthesisResultToJson(result).dump();
  return out;
}

// --- state names ---------------------------------------------------------

TEST(EngineState, NamesAreTheCheckpointStrings) {
  EXPECT_STREQ(bo::engineStateName(EngineState::kInit), "init");
  EXPECT_STREQ(bo::engineStateName(EngineState::kFitSurrogate),
               "fit_surrogate");
  EXPECT_STREQ(bo::engineStateName(EngineState::kPropose), "propose");
  EXPECT_STREQ(bo::engineStateName(EngineState::kAwaitResults),
               "await_results");
  EXPECT_STREQ(bo::engineStateName(EngineState::kObserve), "observe");
  EXPECT_STREQ(bo::engineStateName(EngineState::kDone), "done");
}

// --- transition diagram --------------------------------------------------

TEST(EngineMachine, FreshEngineStartsAtInit) {
  auto problem = quickProblem();
  const bo::MfboEngine engine(problem, 1, quickMfboOptions());
  EXPECT_EQ(engine.state(), EngineState::kInit);
  EXPECT_FALSE(engine.done());
}

TEST(EngineMachine, StepSequenceFollowsTheDiagram) {
  auto problem = quickProblem();
  bo::MfboEngine engine(problem, 1, quickMfboOptions());
  std::vector<EngineState> states{engine.state()};
  while (!engine.done()) {
    engine.step();
    states.push_back(engine.state());
  }
  ASSERT_GE(states.size(), 3u);
  EXPECT_EQ(states.front(), EngineState::kInit);
  EXPECT_EQ(states[1], EngineState::kFitSurrogate);
  EXPECT_EQ(states.back(), EngineState::kDone);
  for (std::size_t i = 0; i + 1 < states.size(); ++i) {
    const EngineState from = states[i];
    const EngineState to = states[i + 1];
    const bool legal =
        (from == EngineState::kInit && to == EngineState::kFitSurrogate) ||
        (from == EngineState::kFitSurrogate &&
         (to == EngineState::kPropose || to == EngineState::kDone)) ||
        (from == EngineState::kPropose &&
         to == EngineState::kAwaitResults) ||
        (from == EngineState::kAwaitResults && to == EngineState::kObserve) ||
        (from == EngineState::kObserve && to == EngineState::kFitSurrogate);
    EXPECT_TRUE(legal) << "illegal edge " << bo::engineStateName(from)
                       << " -> " << bo::engineStateName(to) << " at step "
                       << i;
  }
}

TEST(EngineMachine, StepAndTakeResultRefuseAfterDone) {
  auto problem = quickProblem();
  bo::MfboEngine engine(problem, 1, quickMfboOptions());
  while (!engine.done()) engine.step();
  EXPECT_THROW(engine.step(), ContractViolation);
  const bo::SynthesisResult result = engine.takeResult();
  EXPECT_FALSE(result.history.empty());
}

TEST(EngineMachine, TakeResultBeforeDoneIsAContractViolation) {
  auto problem = quickProblem();
  bo::MfboEngine engine(problem, 1, quickMfboOptions());
  engine.step();
  EXPECT_THROW(engine.takeResult(), ContractViolation);
}

TEST(EngineMachine, CheckpointAfterDoneIsAContractViolation) {
  auto problem = quickProblem();
  bo::MfboEngine engine(problem, 1, quickMfboOptions());
  while (!engine.done()) engine.step();
  // A completed run persists its result, never another run-log line.
  EXPECT_THROW(engine.logRecord(0), ContractViolation);
}

TEST(EngineMachine, ConstructorValidatesOptions) {
  auto problem = quickProblem();
  {
    bo::MfboOptions opt = quickMfboOptions();
    opt.batch_size = 0;
    EXPECT_THROW(bo::MfboEngine(problem, 1, opt), ContractViolation);
  }
  {
    bo::MfboOptions opt = quickMfboOptions();
    opt.n_init_low = 0;
    EXPECT_THROW(bo::MfboEngine(problem, 1, opt), ContractViolation);
  }
  {
    bo::MfboOptions opt = quickMfboOptions();
    opt.gamma = -0.5;
    EXPECT_THROW(bo::MfboEngine(problem, 1, opt), ContractViolation);
  }
}

// --- run() vs manual stepping vs synthesizer facade ----------------------

TEST(EngineMachine, ManualSteppingMatchesRun) {
  const auto via_run = [] {
    return tracedRun(bo::MfboSynthesizer(quickMfboOptions()), 3);
  };
  const auto via_steps = [] {
    auto problem = quickProblem();
    RunArtifacts out;
    bo::MfboOptions options = quickMfboOptions();
    options.observer = jsonlObserver(out.trace);
    bo::MfboEngine engine(problem, 3, options);
    while (!engine.done()) engine.step();
    out.result = bo::synthesisResultToJson(engine.takeResult()).dump();
    return out;
  };
  const RunArtifacts a = withThreads(1, via_run);
  const RunArtifacts b = withThreads(1, via_steps);
  EXPECT_EQ(a.result, b.result);
  EXPECT_EQ(a.trace, b.trace);
}

TEST(EngineMachine, MakeEngineDrivesTheSameRunAsTheSynthesizer) {
  const bo::MfboSynthesizer synthesizer(quickMfboOptions());
  const RunArtifacts direct = tracedRun(synthesizer, 5);

  auto problem = quickProblem();
  std::string trace;
  bo::MfboOptions options = synthesizer.options();
  options.observer = jsonlObserver(trace);
  const bo::SynthesisResult result =
      bo::MfboSynthesizer(options).makeEngine(problem, 5)->run();
  EXPECT_EQ(direct.result, bo::synthesisResultToJson(result).dump());
  EXPECT_EQ(direct.trace, trace);
}

TEST(EngineMachine, WeiboRunsOnTheSameSkeleton) {
  auto problem = quickProblem();
  bo::WeiboEngine engine(problem, 2, quickWeiboOptions());
  std::vector<EngineState> states{engine.state()};
  while (!engine.done()) {
    engine.step();
    states.push_back(engine.state());
  }
  EXPECT_EQ(states.front(), EngineState::kInit);
  EXPECT_EQ(states.back(), EngineState::kDone);
  const bo::SynthesisResult result = engine.takeResult();
  EXPECT_EQ(result.n_low, 0u);
  EXPECT_GT(result.n_high, 0u);
}

TEST(EngineMachine, WeiboMakeEngineMatchesRun) {
  const bo::Weibo weibo(quickWeiboOptions());
  const RunArtifacts direct = tracedRun(weibo, 4);
  auto problem = quickProblem();
  const bo::SynthesisResult result = weibo.makeEngine(problem, 4)->run();
  EXPECT_EQ(direct.result, bo::synthesisResultToJson(result).dump());
}

// --- result serialization ------------------------------------------------

TEST(ResultJson, CarriesTheFullHistory) {
  auto problem = quickProblem();
  const bo::SynthesisResult result =
      bo::MfboSynthesizer(quickMfboOptions()).run(problem, 6);
  const Json doc = bo::synthesisResultToJson(result);
  EXPECT_EQ(doc.at("history").size(), result.history.size());
  EXPECT_EQ(static_cast<std::size_t>(doc.at("n_low").asNumber()),
            result.n_low);
  EXPECT_EQ(static_cast<std::size_t>(doc.at("n_high").asNumber()),
            result.n_high);
  // Round-trips through the writer: parse(dump) == dump again.
  EXPECT_EQ(Json::parse(doc.dump()).dump(), doc.dump());
}

// --- batch proposals -----------------------------------------------------

TEST(EngineBatch, BatchSizeOneIsTheDefault) {
  EXPECT_EQ(bo::MfboOptions{}.batch_size, 1u);
}

TEST(EngineBatch, BatchedRunsCompleteWithinBudget) {
  for (const std::size_t q : {2u, 4u}) {
    auto problem = quickProblem();
    const bo::SynthesisResult result =
        bo::MfboSynthesizer(quickMfboOptions(q)).run(problem, 3);
    EXPECT_FALSE(result.history.empty()) << "q=" << q;
    EXPECT_LE(result.equivalent_high_sims,
              quickMfboOptions().budget + 1e-9)
        << "q=" << q;
    EXPECT_TRUE(std::isfinite(result.best_eval.objective)) << "q=" << q;
  }
}

TEST(EngineBatch, AllBatchSizesConverge) {
  // Same quick problem, same seed: every batch size must still drive the
  // objective at least as low as the best initial-design point — the
  // constant-liar fantasies must not break the optimization.
  for (const std::size_t q : {1u, 2u, 4u}) {
    auto problem = quickProblem();
    const bo::MfboOptions opt = quickMfboOptions(q);
    const bo::SynthesisResult result =
        bo::MfboSynthesizer(opt).run(problem, 9);
    // best_eval ranks feasible-first, so compare against the best
    // *feasible* initial high-fidelity point (∞ when none exists — then
    // any outcome is an improvement).
    double best_init = std::numeric_limits<double>::infinity();
    const std::size_t n_init = opt.n_init_low + opt.n_init_high;
    for (std::size_t i = 0; i < n_init && i < result.history.size(); ++i) {
      const bo::HistoryEntry& h = result.history[i];
      if (h.fidelity != bo::Fidelity::kHigh) continue;
      bool feasible = true;
      for (const double c : h.eval.constraints) feasible &= c <= 0.0;
      if (feasible) best_init = std::min(best_init, h.eval.objective);
    }
    EXPECT_LE(result.best_eval.objective, best_init) << "q=" << q;
    EXPECT_TRUE(result.feasible_found) << "q=" << q;
  }
}

TEST(EngineBatch, BatchProposalsAreDistinctPoints) {
  // Constant-liar slots dedupe against the batch's earlier proposals: no
  // two evaluated points in the whole run may coincide (identical inputs
  // would also singularize the GP Gram matrix).
  auto problem = quickProblem();
  const bo::SynthesisResult result =
      bo::MfboSynthesizer(quickMfboOptions(4)).run(problem, 3);
  for (std::size_t i = 0; i < result.history.size(); ++i)
    for (std::size_t j = i + 1; j < result.history.size(); ++j) {
      double dist = 0.0;
      for (std::size_t k = 0; k < result.history[i].x.size(); ++k) {
        const double d = result.history[i].x[k] - result.history[j].x[k];
        dist += d * d;
      }
      EXPECT_GT(dist, 0.0) << "entries " << i << " and " << j
                           << " evaluated the same point";
    }
}

TEST(EngineBatch, BatchSizesProduceDifferentSearches) {
  // Guards the degenerate reading of the identity tests: q=2 consumes the
  // RNG differently from q=1, so the traces must differ.
  const auto q1 = tracedRun(bo::MfboSynthesizer(quickMfboOptions(1)), 3);
  const auto q2 = tracedRun(bo::MfboSynthesizer(quickMfboOptions(2)), 3);
  EXPECT_NE(q1.trace, q2.trace);
}

TEST(EngineBatch, BatchTruncatesAtTheBudget) {
  // Budget of exactly init + 1 high sim: a q=4 batch must truncate rather
  // than overspend.
  bo::MfboOptions opt = quickMfboOptions(4);
  opt.budget = opt.n_init_high + opt.n_init_low / 4.0 + 1.0;
  auto problem = quickProblem();
  const bo::SynthesisResult result =
      bo::MfboSynthesizer(opt).run(problem, 3);
  EXPECT_LE(result.equivalent_high_sims, opt.budget + 1e-9);
}

TEST(EngineBatch, IterationRecordsCountEverySlot) {
  // q=3 must publish one iteration record per slot, numbered 1..n without
  // gaps, and fantasy slots must carry a finite acquisition value.
  auto problem = quickProblem();
  bo::MfboOptions options = quickMfboOptions(3);
  std::vector<double> iterations;
  options.observer = [&iterations](const bo::IterationRecord& r) {
    iterations.push_back(bo::iterationJson(r).at("iter").asNumber());
  };
  bo::MfboSynthesizer(options).run(problem, 3);
  ASSERT_FALSE(iterations.empty());
  for (std::size_t i = 0; i < iterations.size(); ++i)
    EXPECT_EQ(iterations[i], static_cast<double>(i + 1));
}

// --- thread-count invariance ---------------------------------------------

TEST(EngineDeterminism, ArtifactsMatchAcrossThreadCountsForEveryBatchSize) {
  for (const std::size_t q : {1u, 2u, 4u}) {
    const auto run = [q] {
      return tracedRun(bo::MfboSynthesizer(quickMfboOptions(q)), 7);
    };
    const RunArtifacts serial = withThreads(1, run);
    const RunArtifacts pooled = withThreads(4, run);
    EXPECT_FALSE(serial.trace.empty()) << "q=" << q;
    EXPECT_EQ(serial.result, pooled.result) << "q=" << q;
    EXPECT_EQ(serial.trace, pooled.trace) << "q=" << q;
  }
}

TEST(EngineDeterminism, WeiboArtifactsMatchAcrossThreadCounts) {
  const auto run = [] { return tracedRun(bo::Weibo(quickWeiboOptions()), 7); };
  const RunArtifacts serial = withThreads(1, run);
  const RunArtifacts pooled = withThreads(4, run);
  EXPECT_EQ(serial.result, pooled.result);
  EXPECT_EQ(serial.trace, pooled.trace);
}

// --- the initial design is one pooled batch -------------------------------

/// ConstrainedQuadraticProblem that throws std::runtime_error from its
/// @p throw_at-th evaluation (1-based) and from no other.
class ThrowOnceProblem final : public bo::Problem {
 public:
  explicit ThrowOnceProblem(std::size_t throw_at) : throw_at_(throw_at) {}
  std::string name() const override { return inner_.name(); }
  std::size_t dim() const override { return inner_.dim(); }
  std::size_t numConstraints() const override {
    return inner_.numConstraints();
  }
  bo::Box bounds() const override { return inner_.bounds(); }
  double costRatio() const override { return inner_.costRatio(); }
  bo::Evaluation evaluate(const bo::Vector& x,
                          bo::Fidelity fidelity) override {
    if (calls_.fetch_add(1) + 1 == throw_at_)
      throw std::runtime_error("simulator crashed");
    return inner_.evaluate(x, fidelity);
  }

 private:
  problems::ConstrainedQuadraticProblem inner_{2};
  std::size_t throw_at_;
  std::atomic<std::size_t> calls_{0};
};

/// Result and trace of a run whose first step() throws once and is then
/// retried, the engine stepped by hand to completion.
template <typename Synthesizer>
RunArtifacts runWithOneThrowingInit(const Synthesizer& synthesizer,
                                    std::uint64_t seed) {
  ThrowOnceProblem problem(3);
  RunArtifacts out;
  auto options = synthesizer.options();
  options.observer = jsonlObserver(out.trace);
  const std::unique_ptr<bo::Engine> engine =
      Synthesizer(options).makeEngine(problem, seed);
  EXPECT_THROW(engine->step(), std::runtime_error);
  EXPECT_EQ(engine->state(), EngineState::kInit);
  EXPECT_EQ(engine->evaluations(), 0u);
  EXPECT_EQ(engine->steps(), 0u);
  while (!engine->done()) engine->step();
  out.result = bo::synthesisResultToJson(engine->takeResult()).dump();
  return out;
}

TEST(EngineInit, ThrowingEvaluationRetriesLikeAnUninterruptedRun) {
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    const ScopedThreads scope(threads);
    const RunArtifacts mfbo_reference =
        tracedRun(bo::MfboSynthesizer(quickMfboOptions()), 9);
    const RunArtifacts mfbo_retried =
        runWithOneThrowingInit(bo::MfboSynthesizer(quickMfboOptions()), 9);
    EXPECT_EQ(mfbo_retried.result, mfbo_reference.result);
    EXPECT_EQ(mfbo_retried.trace, mfbo_reference.trace);

    const RunArtifacts weibo_reference =
        tracedRun(bo::Weibo(quickWeiboOptions()), 9);
    const RunArtifacts weibo_retried =
        runWithOneThrowingInit(bo::Weibo(quickWeiboOptions()), 9);
    EXPECT_EQ(weibo_retried.result, weibo_reference.result);
    EXPECT_EQ(weibo_retried.trace, weibo_reference.trace);
  }
}

/// Pooled regions the Init step of @p engine dispatched, and the run-log
/// line of the evaluations it recorded.
std::pair<std::uint64_t, std::string> initStep(bo::Engine& engine) {
  const std::uint64_t before = parallel::poolStats().pooled_regions;
  engine.step();
  EXPECT_EQ(engine.state(), EngineState::kFitSurrogate);
  return {parallel::poolStats().pooled_regions - before,
          engine.logRecord(0)};
}

TEST(EngineInit, IsOnePooledBatchAtFourThreadsAndSerialAtOne) {
  auto problem = quickProblem();
  const auto mfbo = [&] {
    bo::MfboEngine engine(problem, 4, quickMfboOptions());
    return initStep(engine);
  };
  const auto weibo = [&] {
    bo::WeiboEngine engine(problem, 4, quickWeiboOptions());
    return initStep(engine);
  };
  const auto mfbo_serial = withThreads(1, mfbo);
  const auto mfbo_pooled = withThreads(4, mfbo);
  EXPECT_EQ(mfbo_serial.first, 0u);
  EXPECT_GE(mfbo_pooled.first, 1u);
  EXPECT_EQ(mfbo_serial.second, mfbo_pooled.second);
  // Every low design, then every high design.
  const Json evals =
      Json::parse(mfbo_serial.second.substr(0, mfbo_serial.second.rfind(' ')))
          .at("evals");
  ASSERT_EQ(evals.size(), 12u);
  for (std::size_t i = 0; i < evals.size(); ++i)
    EXPECT_EQ(evals.at(i).at("fidelity").asString(), i < 8 ? "low" : "high");

  const auto weibo_serial = withThreads(1, weibo);
  const auto weibo_pooled = withThreads(4, weibo);
  EXPECT_EQ(weibo_serial.first, 0u);
  EXPECT_GE(weibo_pooled.first, 1u);
  EXPECT_EQ(weibo_serial.second, weibo_pooled.second);
}

}  // namespace
