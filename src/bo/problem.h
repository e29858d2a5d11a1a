// mfbo::bo — black-box problem interface (paper eq. 1).
//
// A synthesis problem minimizes f(x) subject to c_i(x) < 0 over a box.
// Every problem exposes two evaluation fidelities; single-fidelity
// algorithms simply always request Fidelity::kHigh. costRatio() reports how
// many low-fidelity evaluations cost as much as one high-fidelity
// evaluation, which is how the paper converts mixed budgets into
// "equivalent high-fidelity simulations".
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/sampling.h"
#include "linalg/vector.h"

namespace mfbo::bo {

using linalg::Box;
using linalg::Vector;

enum class Fidelity { kLow, kHigh };

/// One black-box evaluation: objective value plus raw constraint values in
/// the canonical form c_i(x) < 0 ⇔ feasible.
struct Evaluation {
  double objective = 0.0;
  std::vector<double> constraints;

  /// All constraints strictly satisfied.
  bool feasible() const {
    for (double c : constraints)
      if (c >= 0.0) return false;
    return true;
  }
  /// Σ max(0, c_i) — total violation, 0 iff feasible (up to the boundary).
  double totalViolation() const {
    double acc = 0.0;
    for (double c : constraints)
      if (c > 0.0) acc += c;
    return acc;
  }
  /// Deb's feasibility rules, strict: a feasible evaluation beats an
  /// infeasible one, two feasible ones compare objectives, two infeasible
  /// ones compare total violation. The library's one feasible-first
  /// ranking: best-so-far designs, GASPAD's elite pool and DE's survivors
  /// are all chosen by it.
  bool betterThan(const Evaluation& other) const {
    const bool f = feasible(), other_f = other.feasible();
    if (f != other_f) return f;
    if (f) return objective < other.objective;
    return totalViolation() < other.totalViolation();
  }
};

/// Constrained two-fidelity black-box problem.
class Problem {
 public:
  virtual ~Problem() = default;

  virtual std::string name() const = 0;
  /// Number of design variables d.
  virtual std::size_t dim() const = 0;
  /// Number of constraints Nc (0 for unconstrained problems).
  virtual std::size_t numConstraints() const = 0;
  /// Design-variable bounds.
  virtual Box bounds() const = 0;
  /// Evaluate the black box at @p x (must lie inside bounds()).
  /// Reentrancy contract: the engine fans a proposal batch's evaluations
  /// out over the shared thread pool (bo/engine.cpp), so concurrent calls
  /// on one instance must be safe — implementations are pure functions of
  /// (x, fidelity) and keep no per-call mutable state.
  virtual Evaluation evaluate(const Vector& x, Fidelity fidelity) = 0;
  /// cost(high) / cost(low); must be ≥ 1.
  virtual double costRatio() const = 0;
};

}  // namespace mfbo::bo
