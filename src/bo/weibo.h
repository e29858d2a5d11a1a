// mfbo::bo — WEIBO: single-fidelity GP Bayesian optimization with the
// weighted-EI acquisition (Lyu et al. 2018), the paper's main baseline.
//
// Loop: fit one GP per output (objective + each constraint) on all
// high-fidelity data, maximize wEI with the MSP strategy, evaluate, repeat.
// While no feasible point is known, the eq. (13) first-feasible criterion
// (Σ max(0, µ_i)) is minimized instead of wEI.
#pragma once

#include <memory>

#include "bo/common.h"
#include "gp/gp_regressor.h"

namespace mfbo::bo {

class Engine;

struct WeiboOptions {
  std::size_t n_init = 20;     ///< initial LHS design (high fidelity)
  double max_sims = 100.0;     ///< total simulation budget including init
  MspOptions msp;
  gp::GpConfig gp;
  /// Re-optimize GP hyperparameters every k-th added point (1 = always);
  /// cheap posterior-only updates in between.
  std::size_t retrain_every = 1;
  /// §4.2 first-feasible strategy; disable only for ablation.
  bool use_first_feasible = true;
  /// Optional per-iteration progress callback (live streaming, --verbose).
  IterationObserver observer;
};

class Weibo {
 public:
  explicit Weibo(WeiboOptions options = {}) : options_(options) {}

  /// Run one synthesis. Deterministic given (problem, seed).
  SynthesisResult run(Problem& problem, std::uint64_t seed) const;

  /// Build the underlying state machine for stepwise driving.
  std::unique_ptr<Engine> makeEngine(Problem& problem,
                                     std::uint64_t seed) const;

  const WeiboOptions& options() const { return options_; }

 private:
  WeiboOptions options_;
};

}  // namespace mfbo::bo
