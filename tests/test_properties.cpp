// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// invariants that must hold across whole ranges of sizes, dimensions, and
// configurations rather than at hand-picked points.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <utility>

#include "bo/acquisition.h"
#include "bo/de_baseline.h"
#include "bo/mfbo.h"
#include "bo/weibo.h"
#include "circuit/netlist.h"
#include "circuit/simulator.h"
#include "gp/gp_regressor.h"
#include "linalg/cholesky.h"
#include "linalg/rng.h"
#include "linalg/sampling.h"
#include "opt/nelder_mead.h"
#include "problems/synthetic.h"

namespace {

using namespace mfbo;
using linalg::Box;
using linalg::Matrix;
using linalg::Rng;
using linalg::Vector;

// ------------------------------------------------ Cholesky over sizes ------

class CholeskySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySweep, FactorSolveRoundTripOnRandomSpd) {
  const std::size_t n = GetParam();
  Rng rng(17 + n);
  Matrix g(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) g(r, c) = rng.normal();
  Matrix spd = linalg::gramTN(g, g);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;

  const auto chol = linalg::Cholesky::factor(spd);
  // Property 1: reconstruction.
  const Matrix rebuilt = chol.lower() * chol.lower().transpose();
  EXPECT_LT(Matrix::maxAbsDiff(spd, rebuilt), 1e-9 * static_cast<double>(n));
  // Property 2: solve residual.
  const Vector b = rng.normalVector(n);
  const Vector x = chol.solve(b);
  EXPECT_LT((spd * x - b).norm(), 1e-8 * (1.0 + b.norm()));
  // Property 3: logDet matches the sum over pivots of the reconstruction.
  EXPECT_TRUE(std::isfinite(chol.logDet()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

// ----------------------------------------- kernel PSD across dimensions ----

class KernelPsdSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelPsdSweep, SeArdGramIsPsdAndSymmetric) {
  const std::size_t d = GetParam();
  Rng rng(23 + d);
  gp::SeArdKernel kernel(d);
  // Randomize hyperparameters.
  Vector params = rng.normalVector(kernel.numParams());
  kernel.setParams(params);

  std::vector<Vector> x = linalg::latinHypercube(12, Box::unitCube(d), rng);
  const Matrix gram = kernel.gram(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < x.size(); ++j) {
      EXPECT_DOUBLE_EQ(gram(i, j), gram(j, i));
      // Cauchy-Schwarz for a valid covariance.
      EXPECT_LE(gram(i, j) * gram(i, j),
                gram(i, i) * gram(j, j) * (1.0 + 1e-12));
    }
  EXPECT_NO_THROW(linalg::Cholesky::factorWithJitter(gram));
}

TEST_P(KernelPsdSweep, NargpGramIsPsdAndSymmetric) {
  const std::size_t d = GetParam();
  Rng rng(29 + d);
  gp::NargpKernel kernel(d);
  Vector params = rng.normalVector(kernel.numParams());
  kernel.setParams(params);

  std::vector<Vector> z =
      linalg::latinHypercube(10, Box::unitCube(d + 1), rng);
  const Matrix gram = kernel.gram(z);
  for (std::size_t i = 0; i < z.size(); ++i)
    for (std::size_t j = 0; j < z.size(); ++j)
      EXPECT_DOUBLE_EQ(gram(i, j), gram(j, i));
  EXPECT_NO_THROW(linalg::Cholesky::factorWithJitter(gram));
}

INSTANTIATE_TEST_SUITE_P(Dims, KernelPsdSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 36));

// ------------------------------------- GP interpolation across dimensions --

class GpInterpolationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GpInterpolationSweep, NoiselessFitReproducesTrainingTargets) {
  const std::size_t d = GetParam();
  Rng rng(31 + d);
  auto f = [](const Vector& x) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      acc += std::sin(2.0 * x[i]) + 0.3 * x[i] * x[i];
    return acc;
  };
  const std::size_t n = 10 + 5 * d;
  std::vector<Vector> x = linalg::latinHypercube(n, Box::unitCube(d), rng);
  std::vector<double> y;
  y.reserve(n);
  for (const Vector& xi : x) y.push_back(f(xi));
  const double y_spread =
      *std::max_element(y.begin(), y.end()) -
      *std::min_element(y.begin(), y.end());

  gp::GpConfig cfg;
  cfg.seed = 31 + d;
  gp::GpRegressor model(std::make_unique<gp::SeArdKernel>(d), cfg);
  model.fit(x, y);

  // Property 1: near-interpolation of noiseless training data.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(model.predict(x[i]).mean, y[i], 0.05 * y_spread + 1e-6)
        << "d=" << d << " i=" << i;
  }
  // Property 2: predictive variance at a training point is no larger than
  // far outside the sampled cube.
  const Vector far(d, 5.0);
  EXPECT_LE(model.predict(x[0]).var, model.predict(far).var + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Dims, GpInterpolationSweep,
                         ::testing::Values(1, 2, 3, 5));

// ----------------------------------------------- EI / PF property grids ----

struct EiCase {
  double mu, sd, tau;
};

class EiSweep : public ::testing::TestWithParam<EiCase> {};

TEST_P(EiSweep, Invariants) {
  const auto [mu, sd, tau] = GetParam();
  const gp::Prediction p{mu, sd * sd};
  const double ei = bo::expectedImprovement(p, tau);
  // Non-negative.
  EXPECT_GE(ei, 0.0);
  // At least the deterministic improvement.
  EXPECT_GE(ei, std::max(0.0, tau - mu) - 1e-12);
  // Monotone in τ: a looser incumbent can only increase EI.
  EXPECT_GE(bo::expectedImprovement(p, tau + 0.5) + 1e-15, ei);
  // Monotone in σ when µ ≥ τ (pure upside).
  if (mu >= tau) {
    const gp::Prediction wider{mu, (sd + 0.5) * (sd + 0.5)};
    EXPECT_GE(bo::expectedImprovement(wider, tau) + 1e-15, ei);
  }
  // PF is a probability, decreasing in µ.
  const double pf = bo::probabilityOfFeasibility(p);
  EXPECT_GE(pf, 0.0);
  EXPECT_LE(pf, 1.0);
  const gp::Prediction worse{mu + 0.5, sd * sd};
  EXPECT_LE(bo::probabilityOfFeasibility(worse), pf + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EiSweep,
    ::testing::Values(EiCase{-2.0, 0.1, 0.0}, EiCase{-2.0, 2.0, 0.0},
                      EiCase{0.0, 0.1, 0.0}, EiCase{0.0, 1.0, 0.0},
                      EiCase{1.5, 0.5, 0.0}, EiCase{3.0, 0.01, 0.0},
                      EiCase{0.3, 1.0, 1.0}, EiCase{-1.0, 0.0, -2.0},
                      EiCase{5.0, 4.0, -5.0}));

// --------------------------------------- optimizers stay inside the box ----

/// An unconstrained objective on a box, as a problem for the DE baseline.
class BoxedObjective final : public bo::Problem {
 public:
  BoxedObjective(Box box, opt::ScalarObjective f)
      : box_(std::move(box)), f_(std::move(f)) {}
  std::string name() const override { return "boxed_objective"; }
  std::size_t dim() const override { return box_.dim(); }
  std::size_t numConstraints() const override { return 0; }
  Box bounds() const override { return box_; }
  bo::Evaluation evaluate(const Vector& x, bo::Fidelity) override {
    return {f_(x), {}};
  }
  double costRatio() const override { return 1.0; }

 private:
  Box box_;
  opt::ScalarObjective f_;
};

class BoxRespectSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BoxRespectSweep, NelderMeadAndDeNeverLeaveTheBox) {
  const std::size_t d = GetParam();
  Rng rng(37 + d);
  Box box(rng.uniformVector(d, -2.0, 0.0), rng.uniformVector(d, 0.5, 3.0));
  std::size_t outside = 0;
  opt::ScalarObjective f = [&](const Vector& x) {
    if (!box.contains(x)) ++outside;
    return x.squaredNorm() + std::sin(3.0 * x.sum());
  };
  opt::NelderMeadOptions nm;
  nm.max_evaluations = 150;
  opt::nelderMeadMinimize(f, box.fromUnit(rng.uniformVector(d)), box, nm);
  BoxedObjective problem(box, f);
  bo::DeBaselineOptions de;
  de.population = 12;
  de.max_sims = 12 + 12 * 10;  // the initial population and 10 generations
  const bo::SynthesisResult r = bo::DeBaseline(de).run(problem, 37 + d);
  EXPECT_EQ(r.n_high, 132u);
  EXPECT_EQ(outside, 0u);
}

INSTANTIATE_TEST_SUITE_P(Dims, BoxRespectSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 36));

// -------------------------------------------------- LHS stratification -----

struct LhsCase {
  std::size_t n, d;
};

class LhsSweep : public ::testing::TestWithParam<LhsCase> {};

TEST_P(LhsSweep, EveryStratumHitExactlyOncePerDimension) {
  const auto [n, d] = GetParam();
  Rng rng(41 + n + d);
  const auto samples = linalg::latinHypercube(n, Box::unitCube(d), rng);
  ASSERT_EQ(samples.size(), n);
  for (std::size_t dim = 0; dim < d; ++dim) {
    std::set<std::size_t> strata;
    for (const auto& s : samples)
      strata.insert(std::min<std::size_t>(
          n - 1,
          static_cast<std::size_t>(s[dim] * static_cast<double>(n))));
    EXPECT_EQ(strata.size(), n) << "n=" << n << " d=" << d << " dim=" << dim;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, LhsSweep,
                         ::testing::Values(LhsCase{2, 1}, LhsCase{5, 3},
                                           LhsCase{16, 2}, LhsCase{16, 8},
                                           LhsCase{33, 5}, LhsCase{64, 36}));

// ------------------------------------- voltage divider across resistances --

struct DividerCase {
  double r1, r2;
};

class DividerSweep : public ::testing::TestWithParam<DividerCase> {};

TEST_P(DividerSweep, MatchesAnalyticRatio) {
  const auto [r1, r2] = GetParam();
  circuit::Netlist n;
  const auto in = n.node("in"), mid = n.node("mid");
  n.addVSource("v", in, circuit::kGround, circuit::Waveform::dc(1.0));
  n.addResistor("r1", in, mid, r1);
  n.addResistor("r2", mid, circuit::kGround, r2);
  circuit::Simulator sim(n);
  const auto dc = sim.dcOperatingPoint();
  ASSERT_TRUE(dc.converged);
  const double expected = r2 / (r1 + r2);
  EXPECT_NEAR(dc.solution[static_cast<std::size_t>(mid)], expected,
              1e-6 + 1e-3 * expected);
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, DividerSweep,
    ::testing::Values(DividerCase{1.0, 1.0}, DividerCase{1e3, 1e3},
                      DividerCase{1e6, 1e3}, DividerCase{1e3, 1e6},
                      DividerCase{47.0, 330.0}, DividerCase{1e8, 1e8}));

// ------------------------------------ MFBO budget respect across configs ---

struct BudgetCase {
  double budget;
  double ratio;
};

class BudgetSweep : public ::testing::TestWithParam<BudgetCase> {};

TEST_P(BudgetSweep, EquivalentCostNeverExceedsBudget) {
  const auto [budget, ratio] = GetParam();
  problems::LambdaProblem problem(
      "toy", Box::unitCube(2), 0, ratio,
      [](const Vector& x, bo::Fidelity f) {
        bo::Evaluation e;
        e.objective = x.squaredNorm() +
                      (f == bo::Fidelity::kLow ? 0.05 * std::sin(7 * x[0])
                                               : 0.0);
        return e;
      });
  bo::MfboOptions opt;
  opt.n_init_low = 6;
  opt.n_init_high = 2;
  opt.budget = budget;
  opt.msp.n_starts = 6;
  opt.msp.local.max_evaluations = 40;
  opt.nargp.n_mc = 20;
  opt.nargp.low.n_restarts = 1;
  opt.nargp.high.n_restarts = 1;
  const auto r = bo::MfboSynthesizer(opt).run(problem, 7);
  EXPECT_LE(r.equivalent_high_sims, budget + 1e-6);
  EXPECT_NEAR(r.equivalent_high_sims,
              static_cast<double>(r.n_high) +
                  static_cast<double>(r.n_low) / ratio,
              1e-9);
  // History cost is strictly increasing.
  for (std::size_t i = 1; i < r.history.size(); ++i)
    EXPECT_GT(r.history[i].cumulative_cost,
              r.history[i - 1].cumulative_cost);
}

INSTANTIATE_TEST_SUITE_P(Cases, BudgetSweep,
                         ::testing::Values(BudgetCase{5, 5},
                                           BudgetCase{8, 20},
                                           BudgetCase{6, 2},
                                           BudgetCase{10, 50}));

}  // namespace
