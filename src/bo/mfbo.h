// mfbo::bo — the paper's contribution: multi-fidelity Bayesian optimization
// (Algorithm 1, §3.3-§3.4).
//
// Per iteration:
//  1. build/refresh one NARGP fusing surrogate per output,
//  2. maximize the low-fidelity wEI → x*_l (MSP with τ_l/τ_h scatter),
//  3. maximize the high-fidelity (fused) wEI seeded with x*_l → x_t,
//  4. pick the evaluation fidelity with the eq. (11)/(12) criterion:
//     high fidelity iff max_i σ²_{l,i}(x_t) < (1+Nc)·γ (variances on the
//     standardized output scale, γ = 0.01 by default),
//  5. evaluate, update the corresponding training set.
// While no feasible high-fidelity point is known, the eq. (13)
// first-feasible criterion replaces the wEI in steps 2-3.
#pragma once

#include <functional>
#include <memory>

#include "bo/common.h"
#include "mf/ar1.h"
#include "mf/nargp.h"

namespace mfbo::bo {

class Engine;

/// Factory producing one fusing surrogate per output; @p seed decorrelates
/// the per-output models. Defaults to the NARGP model of the paper; the
/// fusion ablation swaps in mf::Ar1Model.
using SurrogateFactory = std::function<std::unique_ptr<mf::MfSurrogate>(
    std::size_t x_dim, std::uint64_t seed)>;

struct MfboOptions {
  std::size_t n_init_low = 10;   ///< initial LHS design at low fidelity
  std::size_t n_init_high = 5;   ///< initial LHS design at high fidelity
  double budget = 100.0;         ///< equivalent high-fidelity simulations
  double gamma = 0.01;           ///< fidelity threshold of eq. (11)
  MspOptions msp;
  mf::NargpConfig nargp;
  /// Retrain surrogate hyperparameters every k-th new point.
  std::size_t retrain_every = 1;
  /// Extra jittered copies of x*_l seeding the high-fidelity search.
  std::size_t x_star_seeds = 4;
  /// §4.2 first-feasible strategy (minimize eq. 13 until a feasible point
  /// is known). Disable only for ablation.
  bool use_first_feasible = true;
  /// Proposals per batch (q). 1 reproduces the sequential Algorithm 1
  /// bit-for-bit; q > 1 proposes q points per iteration of the state
  /// machine via constant-liar fantasizing (see engine.h), each with its
  /// own eq. (11)/(12) fidelity decision, so one session can keep q
  /// simulators busy.
  std::size_t batch_size = 1;
  /// Surrogate override; null = NARGP with the `nargp` config above.
  SurrogateFactory surrogate_factory;
  /// Optional per-iteration progress callback (live streaming, --verbose).
  /// Invoked after each loop iteration's evaluation with the full
  /// fidelity-decision record; independent of the telemetry trace sink.
  IterationObserver observer;
};

class MfboSynthesizer {
 public:
  explicit MfboSynthesizer(MfboOptions options = {}) : options_(options) {}

  /// Run one synthesis. Deterministic given (problem, seed).
  SynthesisResult run(Problem& problem, std::uint64_t seed) const;

  /// Build the underlying state machine for stepwise driving (the
  /// checkpoint/kill/resume harnesses and service schedulers).
  std::unique_ptr<Engine> makeEngine(Problem& problem,
                                     std::uint64_t seed) const;

  const MfboOptions& options() const { return options_; }

 private:
  MfboOptions options_;
};

}  // namespace mfbo::bo
