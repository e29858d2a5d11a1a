// mfbo::problems — synthetic multi-fidelity benchmark problems.
//
// These exercise every algorithm path without the circuit simulator:
//  * LambdaProblem — adapter building a Problem from closures,
//  * PedagogicalProblem — the Perdikaris pair behind the paper's Figs. 1-2,
//  * ForresterProblem — classic 1-d pair with *linear* low↔high correlation
//    (the case where AR(1) fusion is exactly right),
//  * BraninMfProblem — 2-d multi-fidelity Branin (standard MFBO test),
//  * ConstrainedQuadraticProblem — d-dim constrained problem with a known
//    optimum, for end-to-end synthesis tests.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <utility>

#include "bo/problem.h"

namespace mfbo::problems {

using bo::Box;
using bo::Evaluation;
using bo::Fidelity;
using bo::Problem;
using bo::Vector;

/// Build a Problem from closures. The evaluator receives (x, fidelity).
class LambdaProblem final : public Problem {
 public:
  using Evaluator = std::function<Evaluation(const Vector&, Fidelity)>;

  LambdaProblem(std::string name, Box bounds, std::size_t num_constraints,
                double cost_ratio, Evaluator evaluator)
      : name_(std::move(name)),
        bounds_(std::move(bounds)),
        num_constraints_(num_constraints),
        cost_ratio_(cost_ratio),
        evaluator_(std::move(evaluator)) {}

  std::string name() const override { return name_; }
  std::size_t dim() const override { return bounds_.dim(); }
  std::size_t numConstraints() const override { return num_constraints_; }
  Box bounds() const override { return bounds_; }
  Evaluation evaluate(const Vector& x, Fidelity fidelity) override {
    return evaluator_(x, fidelity);
  }
  double costRatio() const override { return cost_ratio_; }

 private:
  std::string name_;
  Box bounds_;
  std::size_t num_constraints_;
  double cost_ratio_;
  Evaluator evaluator_;
};

/// Perdikaris et al. 2017 pedagogical pair, presented on the paper's
/// x ∈ [−0.5, 0.5] axis (Figures 1-2):
///   y_l(x) = sin(8π t),   y_h(x) = (t − √2)·y_l(x)²,   t = x + 0.5.
double pedagogicalLow(double x);
double pedagogicalHigh(double x);

/// Unconstrained 1-d minimization of the pedagogical high-fidelity
/// function. Global minimum near t ≈ 0.939 (x ≈ 0.439), f* ≈ −1.397.
class PedagogicalProblem final : public Problem {
 public:
  explicit PedagogicalProblem(double cost_ratio = 10.0)
      : cost_ratio_(cost_ratio) {}

  std::string name() const override { return "pedagogical"; }
  std::size_t dim() const override { return 1; }
  std::size_t numConstraints() const override { return 0; }
  Box bounds() const override {
    return Box(Vector{-0.5}, Vector{0.5});
  }
  Evaluation evaluate(const Vector& x, Fidelity fidelity) override;
  double costRatio() const override { return cost_ratio_; }

 private:
  double cost_ratio_;
};

/// Forrester et al. 2008 pair on [0, 1]:
///   f_h(x) = (6x−2)²·sin(12x−4)
///   f_l(x) = 0.5·f_h(x) + 10(x−0.5) − 5      (linear correlation)
/// Global minimum of f_h at x* ≈ 0.7572, f* ≈ −6.0207.
double forresterHigh(double x);
double forresterLow(double x);

class ForresterProblem final : public Problem {
 public:
  explicit ForresterProblem(double cost_ratio = 10.0)
      : cost_ratio_(cost_ratio) {}

  std::string name() const override { return "forrester"; }
  std::size_t dim() const override { return 1; }
  std::size_t numConstraints() const override { return 0; }
  Box bounds() const override { return Box(Vector{0.0}, Vector{1.0}); }
  Evaluation evaluate(const Vector& x, Fidelity fidelity) override;
  double costRatio() const override { return cost_ratio_; }

 private:
  double cost_ratio_;
};

/// Multi-fidelity Branin (2-d). High fidelity is the standard Branin
/// function over x₁∈[−5,10], x₂∈[0,15] (three global minima, f* ≈ 0.3979);
/// the low fidelity is the biased/rescaled variant common in MFBO papers.
double braninHigh(const Vector& x);
double braninLow(const Vector& x);

class BraninMfProblem final : public Problem {
 public:
  explicit BraninMfProblem(double cost_ratio = 10.0)
      : cost_ratio_(cost_ratio) {}

  std::string name() const override { return "branin-mf"; }
  std::size_t dim() const override { return 2; }
  std::size_t numConstraints() const override { return 0; }
  Box bounds() const override {
    return Box(Vector{-5.0, 0.0}, Vector{10.0, 15.0});
  }
  Evaluation evaluate(const Vector& x, Fidelity fidelity) override;
  double costRatio() const override { return cost_ratio_; }

 private:
  double cost_ratio_;
};

/// d-dimensional constrained problem with an analytically known solution:
///
///   minimize   Σ (x_i − 0.75)²
///   s.t.       Σ x_i ≤ 0.75·d − 0.5      (active at the optimum)
///
/// over [0,1]^d. The low fidelity adds a smooth, state-dependent bias to
/// both objective and constraint (nonlinearly correlated, like a coarse
/// simulation would be). Optimum: all x_i = 0.75 − 0.5/(2d)… specifically
/// x_i = 0.75 − 0.5/d·0.5; see tests for the closed form.
class ConstrainedQuadraticProblem final : public Problem {
 public:
  explicit ConstrainedQuadraticProblem(std::size_t dim,
                                       double cost_ratio = 10.0)
      : dim_(dim), cost_ratio_(cost_ratio) {}

  std::string name() const override { return "constrained-quadratic"; }
  std::size_t dim() const override { return dim_; }
  std::size_t numConstraints() const override { return 1; }
  Box bounds() const override {
    return Box(Vector(dim_, 0.0), Vector(dim_, 1.0));
  }
  Evaluation evaluate(const Vector& x, Fidelity fidelity) override;
  double costRatio() const override { return cost_ratio_; }

  /// Optimal objective value: the constrained minimum of the quadratic.
  double optimalValue() const;

 private:
  std::size_t dim_;
  double cost_ratio_;
};

/// Counts evaluations per fidelity around any wrapped problem (test /
/// accounting helper). Reentrant like the problem it wraps: the engine
/// evaluates a batch on the pool.
class CountingProblem final : public Problem {
 public:
  explicit CountingProblem(Problem& inner) : inner_(inner) {}

  std::string name() const override { return inner_.name(); }
  std::size_t dim() const override { return inner_.dim(); }
  std::size_t numConstraints() const override {
    return inner_.numConstraints();
  }
  Box bounds() const override { return inner_.bounds(); }
  Evaluation evaluate(const Vector& x, Fidelity fidelity) override {
    (fidelity == Fidelity::kHigh ? high_calls_ : low_calls_) += 1;
    return inner_.evaluate(x, fidelity);
  }
  double costRatio() const override { return inner_.costRatio(); }

  std::size_t lowCalls() const { return low_calls_; }
  std::size_t highCalls() const { return high_calls_; }

 private:
  Problem& inner_;
  std::atomic<std::size_t> low_calls_{0};
  std::atomic<std::size_t> high_calls_{0};
};

}  // namespace mfbo::problems
