// Outside-in layer instrumentation for the traced benchmark run.
//
// Everything here wraps the library's public interfaces — a bo::Problem
// decorator, an mf::MfSurrogate decorator handed to the engine through
// MfboOptions::surrogate_factory, an IterationObserver, per-state timing of
// Engine::step, and readers for the span profiler and pool gauges — so the
// per-layer numbers come without a single change to the library. Every
// decorator forwards verbatim: a traced job's result bytes equal the
// untraced job's (the driver checks this on every traced run).
//
// Accumulators are relaxed atomics: the engine fans batch evaluations and
// the MSP acquisition search (hence predictLow/predictHigh) out over the
// shared pool, so decorated calls arrive from several threads at once.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bo/engine.h"
#include "bo/mfbo.h"
#include "bo/problem.h"
#include "common/json.h"
#include "mf/mf_surrogate.h"
#include "mf/nargp.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since @p start.
inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Calls into one operation of a layer: how many, and the summed time
/// spent inside them (summed over threads, so it can exceed wall time).
struct OpStat {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> busy_ns{0};

  void add(Clock::duration elapsed);
  double busySeconds() const;
};

/// RAII timing of one call into @p stat.
class ScopedOp {
 public:
  explicit ScopedOp(OpStat& stat) : stat_(stat), start_(Clock::now()) {}
  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;
  ~ScopedOp() { stat_.add(Clock::now() - start_); }

 private:
  OpStat& stat_;
  Clock::time_point start_;
};

// --- problems layer -------------------------------------------------------

struct ProblemStats {
  OpStat eval_low;
  OpStat eval_high;
};

/// bo::Problem decorator timing evaluate() per fidelity.
class TimedProblem final : public mfbo::bo::Problem {
 public:
  TimedProblem(std::unique_ptr<mfbo::bo::Problem> inner, ProblemStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  std::string name() const override { return inner_->name(); }
  std::size_t dim() const override { return inner_->dim(); }
  std::size_t numConstraints() const override {
    return inner_->numConstraints();
  }
  mfbo::bo::Box bounds() const override { return inner_->bounds(); }
  mfbo::bo::Evaluation evaluate(const mfbo::bo::Vector& x,
                                mfbo::bo::Fidelity fidelity) override;
  double costRatio() const override { return inner_->costRatio(); }

 private:
  std::unique_ptr<mfbo::bo::Problem> inner_;
  ProblemStats& stats_;
};

// --- mf layer -------------------------------------------------------------

struct SurrogateStats {
  OpStat fit;
  OpStat add_retrain;      ///< addLow/addHigh with hyperparameter retraining
  OpStat add_incremental;  ///< addLow/addHigh on the O(n²) append path
  OpStat predict_low;
  OpStat predict_high;
  std::atomic<std::uint64_t> clones{0};  ///< constant-liar fantasy copies
};

/// mf::MfSurrogate decorator. Clones stay decorated and share the stats,
/// so the batch engine's fantasy models are counted too.
class TimedSurrogate final : public mfbo::mf::MfSurrogate {
 public:
  TimedSurrogate(std::unique_ptr<mfbo::mf::MfSurrogate> inner,
                 SurrogateStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  void fit(std::vector<mfbo::linalg::Vector> x_low, std::vector<double> y_low,
           std::vector<mfbo::linalg::Vector> x_high,
           std::vector<double> y_high) override;
  void addLow(const mfbo::linalg::Vector& x, double y, bool retrain) override;
  void addHigh(const mfbo::linalg::Vector& x, double y, bool retrain) override;
  mfbo::mf::Prediction predictLow(const mfbo::linalg::Vector& x) const override;
  mfbo::mf::Prediction predictHigh(
      const mfbo::linalg::Vector& x) const override;

  std::size_t numLow() const override { return inner_->numLow(); }
  std::size_t numHigh() const override { return inner_->numHigh(); }
  double bestLowObserved() const override { return inner_->bestLowObserved(); }
  double bestHighObserved() const override {
    return inner_->bestHighObserved();
  }
  double lowOutputSd() const override { return inner_->lowOutputSd(); }
  std::unique_ptr<mfbo::mf::MfSurrogate> clone() const override;
  std::vector<double> hyperparameters() const override {
    return inner_->hyperparameters();
  }

 private:
  std::unique_ptr<mfbo::mf::MfSurrogate> inner_;
  SurrogateStats& stats_;
};

/// The engine's default surrogate for one output: NARGP over @p config,
/// seeded exactly as MfboEngine seeds it when no factory is set.
std::unique_ptr<mfbo::mf::MfSurrogate> defaultNargp(
    const mfbo::mf::NargpConfig& config, std::size_t x_dim,
    std::uint64_t seed);

/// SurrogateFactory producing defaultNargp() models wrapped in
/// TimedSurrogate. @p stats must outlive every engine built with it.
mfbo::bo::SurrogateFactory timedNargpFactory(mfbo::mf::NargpConfig config,
                                             SurrogateStats& stats);

// --- bo layer -------------------------------------------------------------

/// Engine::step time keyed by the state the step started in.
struct EngineStats {
  static constexpr std::size_t kStates = 5;  ///< every state but Done
  std::array<OpStat, kStates> by_state;

  OpStat& of(mfbo::bo::EngineState state) {
    return by_state[static_cast<std::size_t>(state)];
  }
};

/// Outcome ratios of the synthesis loop.
struct IterationStats {
  std::uint64_t iterations = 0;
  std::uint64_t improved = 0;  ///< the iteration produced a new incumbent
  std::uint64_t deduped = 0;   ///< the proposal was nudged off a duplicate
  std::uint64_t high = 0;      ///< evaluated at high fidelity
};

/// Observer for one engine (it keeps that run's previous incumbent);
/// totals accumulate into @p stats. Called from the engine's serial
/// Observe phase only.
mfbo::bo::IterationObserver iterationObserver(IterationStats& stats);

// --- common layer: span profiler and pool ---------------------------------

/// Span-tree totals of the nodes named in kSpanNames, plus the allocation
/// counters of every node.
struct SpanTotals {
  struct Node {
    std::uint64_t count = 0;
    double self_s = 0.0;
  };
  std::map<std::string, Node> nodes;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
};

/// Profiler span name → metric name.
struct SpanMetric {
  const char* span;
  const char* metric;
};
inline constexpr std::array<SpanMetric, 5> kSpanMetrics = {{
    {"nlml_restart", "gp.nlml_restart"},
    {"mc_integration", "mf.mc_integration"},
    {"local_search", "opt.local_search"},
    {"cholesky_factor", "linalg.cholesky_factor"},
    {"cholesky_append", "linalg.cholesky_append"},
}};

/// Fold a spans::snapshot() tree into @p totals.
void accumulateSpans(const mfbo::Json& tree, SpanTotals& totals);

// --- results --------------------------------------------------------------

/// Rebuild a run history from its synthesisResultToJson() form.
std::vector<mfbo::bo::HistoryEntry> historyFromJson(const mfbo::Json& result);

/// Equivalent high-fidelity simulations spent when the final incumbent was
/// first evaluated — the paper's "Avg. # Sim" per run.
double costToReachBest(const mfbo::Json& result);

/// Output checks on one synthesisResultToJson() document: cost within
/// @p budget, n_low/n_high consistent with the history and the cost ratio,
/// best_x inside the bounds, and — with @p reevaluate — the reported
/// feasibility and objective reproduced by a fresh high-fidelity
/// evaluation of best_x. Returns an empty string when every check passes,
/// else the first failure.
std::string checkResult(const mfbo::Json& result, mfbo::bo::Problem& problem,
                        double budget, bool reevaluate);

}  // namespace perfbench
