// mfbo::bo — plain differential-evolution baseline (the paper's "DE",
// standing in for the hybrid EA of Liu et al. 2009).
//
// DE/rand/1/bin (opt::deRand1Bin) on the real design box with Deb's
// feasibility rules (Evaluation::betterThan) for selection: feasible beats
// infeasible, feasible compares by objective, infeasible compares by total
// violation, and a tie goes to the trial. Every candidate costs one
// high-fidelity simulation.
#pragma once

#include "bo/common.h"

namespace mfbo::bo {

struct DeBaselineOptions {
  std::size_t population = 50;
  double max_sims = 300.0;   ///< simulation budget including initialization
  double differential = 0.7;
  double crossover = 0.8;
  /// Optional progress callback, invoked once per DE generation.
  IterationObserver observer;
};

class DeBaseline {
 public:
  explicit DeBaseline(DeBaselineOptions options = {}) : options_(options) {}

  /// Run one synthesis. Deterministic given (problem, seed).
  SynthesisResult run(Problem& problem, std::uint64_t seed) const;

  const DeBaselineOptions& options() const { return options_; }

 private:
  DeBaselineOptions options_;
};

}  // namespace mfbo::bo
