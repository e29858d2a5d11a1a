// mfbo::bo — shared machinery for the synthesis algorithms: evaluation
// archives, cost accounting, and the §4.1 multiple-starting-point
// acquisition maximizer.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string_view>
#include <vector>

#include "bo/problem.h"
#include "bo/result.h"
#include "common/check.h"
#include "common/json.h"
#include "linalg/rng.h"
#include "opt/multistart.h"

namespace mfbo::bo {

using linalg::Rng;

/// Short lowercase name for trace events and progress lines.
inline const char* fidelityName(Fidelity f) {
  return f == Fidelity::kHigh ? "high" : "low";
}

/// Snapshot of one synthesis-loop iteration, published to the optional
/// IterationObserver callback, the only way it leaves the run
/// (iterationJson serializes it as one JSONL `iteration` event). Pointer
/// members reference the algorithm's internal state and are valid only for
/// the duration of the callback. Fields that do not apply to an algorithm
/// stay at their NaN / null defaults (e.g. only MFBO fills the eq.
/// (11)/(12) fidelity-decision fields).
struct IterationRecord {
  static constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

  std::string_view algo;        ///< "mfbo", "weibo", "gaspad", "de"
  std::size_t iteration = 0;    ///< 1-based loop iteration
  Fidelity fidelity = Fidelity::kHigh;  ///< fidelity evaluated this iteration
  bool downgraded = false;      ///< high→low forced by the remaining budget
  bool retrained = false;       ///< hyperparameters re-optimized afterwards
  bool first_feasible_phase = false;  ///< eq. (13) criterion replaced wEI
  double acquisition = kNan;    ///< acquisition / criterion value at x
  double tau_l = kNan;          ///< low-fidelity incumbent objective
  double tau_h = kNan;          ///< high-fidelity incumbent objective
  double max_norm_var = kNan;   ///< eq. (11) LHS: max normalized low var
  double threshold = kNan;      ///< eq. (12) RHS: (1+Nc)·γ
  /// Per-output normalized low-fidelity variance at x (objective first).
  std::vector<double> norm_low_var;
  double cumulative_cost = 0.0;  ///< equivalent high-fidelity sims so far
  double best_objective = kNan;  ///< best-so-far high-fidelity objective
  bool feasible_found = false;   ///< a feasible high-fidelity point exists
  const Vector* x_star_l = nullptr;  ///< MFBO step-5 maximizer (unit cube)
  /// MFBO step-6 maximizer before duplicate nudging (unit cube). The
  /// eq. (11)/(12) fidelity decision is made at the *post-dedupe* point —
  /// the one actually evaluated (field `x`); this records the raw
  /// acquisition maximizer alongside it.
  const Vector* x_t_raw = nullptr;
  bool deduped = false;  ///< evaluated point was nudged away from x_t_raw
  const Vector* x = nullptr;         ///< evaluated point (real coordinates)
  const Evaluation* eval = nullptr;  ///< its evaluation
};

/// Per-iteration progress callback. Invoked after the iteration's
/// evaluation, before the surrogate update.
using IterationObserver = std::function<void(const IterationRecord&)>;

/// The record as one JSONL `iteration` trace event: the trace format
/// tools/run_report.py reads. NaN fields serialize as null.
Json iterationJson(const IterationRecord& record);

/// The `run_start` event bracketing a run's iteration events.
Json runStartJson(std::string_view algo, const Problem& problem,
                  std::uint64_t seed, double budget);

/// The `run_end` event closing a run's iteration events.
Json runEndJson(std::string_view algo, const SynthesisResult& result);

/// Ready-made observer printing one progress line per iteration to stderr
/// (the examples' --verbose flag).
IterationObserver stderrProgressObserver();

/// Archive of evaluated points for one fidelity level. Inputs are stored in
/// normalized unit-cube coordinates (the GPs see exactly these).
struct Dataset {
  std::vector<Vector> x;
  std::vector<Evaluation> evals;

  std::size_t size() const { return x.size(); }
  void add(Vector point, Evaluation eval) {
    x.push_back(std::move(point));
    evals.push_back(std::move(eval));
  }

  /// Index of the feasible entry with the smallest objective, if any.
  std::optional<std::size_t> bestFeasible() const;
  /// Best entry under Evaluation::betterThan, the earliest on ties: the
  /// best feasible one if any, otherwise the one with the smallest total
  /// violation. Requires non-empty.
  std::size_t bestByMerit() const;
  /// Objective column.
  std::vector<double> objectives() const;
  /// i-th constraint column.
  std::vector<double> constraintColumn(std::size_t i) const;
  /// Smallest distance from @p point to any stored input (∞ when empty).
  double minDistance(const Vector& point) const;
};

/// Equivalent-high-fidelity-simulation cost meter.
class CostTracker {
 public:
  explicit CostTracker(double cost_ratio) : ratio_(cost_ratio) {}
  void charge(Fidelity f) {
    cost_ += f == Fidelity::kHigh ? 1.0 : 1.0 / ratio_;
    (f == Fidelity::kHigh ? n_high_ : n_low_) += 1;
  }
  double cost() const { return cost_; }
  std::size_t numLow() const { return n_low_; }
  std::size_t numHigh() const { return n_high_; }

 private:
  double ratio_;
  double cost_ = 0.0;
  std::size_t n_low_ = 0;
  std::size_t n_high_ = 0;
};

/// §4.1 multiple-starting-point settings. The defaults mirror the paper:
/// 10% of starts scattered around τ_l, 40% around τ_h, the rest random.
struct MspOptions {
  std::size_t n_starts = 20;
  double frac_tau_l = 0.1;
  double frac_tau_h = 0.4;
  double relative_sd = 0.05;  ///< scatter sd relative to box width
  opt::NelderMeadOptions local{.max_evaluations = 150, .initial_step = 0.05};
};

/// Maximize a deterministic acquisition over @p box with MSP. Starts are
/// composed of LHS samples, Gaussian scatter around the optional τ_l / τ_h
/// incumbents (with the configured fractions), and any @p extra_starts
/// (used by Algorithm 1 step 6 to seed the high-fidelity search with x*_l).
/// Returns the best point found; never fails.
Vector maximizeAcquisitionMsp(const opt::ScalarObjective& acquisition,
                              const Box& box,
                              const std::optional<Vector>& incumbent_l,
                              const std::optional<Vector>& incumbent_h,
                              const MspOptions& options, Rng& rng,
                              const std::vector<Vector>& extra_starts = {});

/// Minimize a scalar criterion (e.g. the eq. 13 violation) with plain MSP
/// (no incumbent scatter). Returns the best point found.
Vector minimizeCriterionMsp(const opt::ScalarObjective& criterion,
                            const Box& box, std::size_t n_starts,
                            const opt::NelderMeadOptions& local, Rng& rng);

/// Nudge @p candidate away from existing points when it (numerically)
/// duplicates one — duplicated inputs make GP Gram matrices singular.
Vector dedupeCandidate(Vector candidate, const Dataset& data, const Box& box,
                       Rng& rng, double min_dist = 1e-8);

/// Same, checked against several datasets at once. MFBO dedupes against
/// both fidelity archives *before* the eq. (11)/(12) fidelity decision, so
/// the σ²_l criterion is evaluated at the point actually simulated no
/// matter which training set it later joins.
Vector dedupeCandidate(Vector candidate,
                       std::initializer_list<const Dataset*> data,
                       const Box& box, Rng& rng, double min_dist = 1e-8);

/// Assemble the final SynthesisResult from a history: picks the best
/// high-fidelity entry (feasible-first), fills counters from the tracker.
SynthesisResult finalizeResult(std::vector<HistoryEntry> history,
                               const CostTracker& tracker);

}  // namespace mfbo::bo
