// Unit and property tests for the mfbo::opt optimizers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/check.h"
#include "opt/de.h"
#include "opt/lbfgs.h"
#include "opt/multistart.h"
#include "opt/nelder_mead.h"
#include "opt/objective.h"

namespace {

using namespace mfbo::opt;
using mfbo::linalg::Rng;

// Classic test functions ----------------------------------------------------

double sphere(const Vector& x) { return x.squaredNorm(); }

double rosenbrock(const Vector& x) {
  double acc = 0.0;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const double a = x[i + 1] - x[i] * x[i];
    const double b = 1.0 - x[i];
    acc += 100.0 * a * a + b * b;
  }
  return acc;
}

double quadraticWithGrad(const Vector& x, Vector* grad) {
  // f = (x0-3)^2 + 2(x1+1)^2
  if (grad) {
    *grad = Vector(2);
    (*grad)[0] = 2.0 * (x[0] - 3.0);
    (*grad)[1] = 4.0 * (x[1] + 1.0);
  }
  const double a = x[0] - 3.0, b = x[1] + 1.0;
  return a * a + 2.0 * b * b;
}

// ------------------------------------------------------- numeric gradient --

TEST(NumericGradient, MatchesAnalyticOnSmoothFunction) {
  GradObjective numeric = withNumericGradient(rosenbrock);
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    Vector x = rng.uniformVector(3, -2.0, 2.0);
    Vector g_num;
    numeric(x, &g_num);
    // Analytic Rosenbrock gradient.
    Vector g(3);
    for (std::size_t i = 0; i < 3; ++i) {
      if (i + 1 < 3) {
        g[i] += -400.0 * x[i] * (x[i + 1] - x[i] * x[i]) - 2.0 * (1.0 - x[i]);
      }
      if (i > 0) g[i] += 200.0 * (x[i] - x[i - 1] * x[i - 1]);
    }
    for (std::size_t i = 0; i < 3; ++i)
      EXPECT_NEAR(g_num[i], g[i], 1e-3 * std::max(1.0, std::abs(g[i])));
  }
}

TEST(NumericGradient, ValueIsPassedThrough) {
  GradObjective numeric = withNumericGradient(sphere);
  Vector x{1.0, 2.0};
  EXPECT_DOUBLE_EQ(numeric(x, nullptr), 5.0);
}

// ------------------------------------------------------------------ LBFGS --

TEST(Lbfgs, SolvesQuadraticExactly) {
  OptResult r = lbfgsMinimize(quadraticWithGrad, Vector{0.0, 0.0});
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x[0], 3.0, 1e-5);
  EXPECT_NEAR(r.x[1], -1.0, 1e-5);
  EXPECT_NEAR(r.value, 0.0, 1e-9);
}

TEST(Lbfgs, SolvesRosenbrockFromStandardStart) {
  GradObjective f = withNumericGradient(rosenbrock, 1e-7);
  LbfgsOptions opts;
  opts.max_iterations = 500;
  OptResult r = lbfgsMinimize(f, Vector{-1.2, 1.0}, std::nullopt, opts);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(Lbfgs, RespectsBoxConstraint) {
  // Unconstrained minimum at (3,-1) lies outside the box [0,2]x[0,2];
  // the constrained minimizer is (2, 0).
  Box box(Vector{0.0, 0.0}, Vector{2.0, 2.0});
  OptResult r = lbfgsMinimize(quadraticWithGrad, Vector{1.0, 1.0}, box);
  EXPECT_NEAR(r.x[0], 2.0, 1e-5);
  EXPECT_NEAR(r.x[1], 0.0, 1e-5);
  EXPECT_TRUE(box.contains(r.x));
}

TEST(Lbfgs, HandlesNanObjectiveGracefully) {
  GradObjective nan_f = [](const Vector& x, Vector* grad) {
    if (grad) *grad = Vector(x.size(), std::nan(""));
    return std::nan("");
  };
  OptResult r = lbfgsMinimize(nan_f, Vector{1.0});
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.x.size(), 1u);
}

TEST(Lbfgs, StartAtMinimumConvergesImmediately) {
  OptResult r = lbfgsMinimize(quadraticWithGrad, Vector{3.0, -1.0});
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 1u);
}

// ------------------------------------------------------------ Nelder-Mead --

TEST(NelderMead, SolvesSphere) {
  OptResult r = nelderMeadMinimize(sphere, Vector{1.0, -1.0, 0.5});
  EXPECT_NEAR(r.value, 0.0, 1e-6);
}

TEST(NelderMead, SolvesRosenbrock2d) {
  NelderMeadOptions opts;
  opts.max_evaluations = 2000;
  OptResult r = nelderMeadMinimize(rosenbrock, Vector{-1.2, 1.0},
                                   std::nullopt, opts);
  EXPECT_NEAR(r.x[0], 1.0, 1e-2);
  EXPECT_NEAR(r.x[1], 1.0, 1e-2);
}

TEST(NelderMead, StaysInsideBox) {
  Box box(Vector{0.5, 0.5}, Vector{4.0, 4.0});
  ScalarObjective f = [](const Vector& x) {
    return (x[0] + 1.0) * (x[0] + 1.0) + (x[1] + 1.0) * (x[1] + 1.0);
  };
  NelderMeadOptions opts;
  opts.max_evaluations = 500;
  OptResult r = nelderMeadMinimize(f, Vector{2.0, 2.0}, box, opts);
  EXPECT_TRUE(box.contains(r.x));
  EXPECT_NEAR(r.x[0], 0.5, 1e-4);
  EXPECT_NEAR(r.x[1], 0.5, 1e-4);
}

TEST(NelderMead, RespectsEvaluationBudget) {
  std::size_t calls = 0;
  ScalarObjective counting = [&](const Vector& x) {
    ++calls;
    return sphere(x);
  };
  NelderMeadOptions opts;
  opts.max_evaluations = 50;
  nelderMeadMinimize(counting, Vector{5.0, 5.0, 5.0, 5.0}, std::nullopt, opts);
  // Initial simplex (d+1) plus per-iteration evals can exceed by the last
  // iteration's shrink at most.
  EXPECT_LE(calls, 50u + 6u);
}

TEST(NelderMead, SurvivesNanRegions) {
  ScalarObjective partial = [](const Vector& x) {
    if (x[0] < 0.0) return std::nan("");
    return (x[0] - 1.0) * (x[0] - 1.0);
  };
  OptResult r = nelderMeadMinimize(partial, Vector{0.5});
  EXPECT_NEAR(r.x[0], 1.0, 1e-4);
}

// --------------------------------------------------------------------- DE --

/// The textbook DE/rand/1/bin loop (Storn & Price 1997), written out as a
/// reference: the forced coordinate is drawn first, then one uniform per
/// coordinate that is not forced.
Vector textbookTrial(Vector target, const Vector& a, const Vector& b,
                     const Vector& c, double f, double cr, Rng& rng) {
  const std::size_t forced = rng.index(target.size());
  for (std::size_t j = 0; j < target.size(); ++j) {
    const bool take = j == forced || rng.uniform() < cr;
    if (take) target[j] = a[j] + f * (b[j] - c[j]);
  }
  return target;
}

bool sameBits(const Vector& x, const Vector& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

TEST(DeRand1Bin, MatchesTheTextbookLoopDrawForDraw) {
  for (const std::size_t d : {1u, 5u, 36u}) {
    for (const double cr : {0.0, 0.8, 1.0}) {
      Rng parents(1000 + d);
      const Vector target = parents.uniformVector(d);
      const Vector a = parents.uniformVector(d);
      const Vector b = parents.uniformVector(d);
      const Vector c = parents.uniformVector(d);
      Rng rng_lib(77 + d), rng_ref(77 + d);
      for (int round = 0; round < 20; ++round) {
        const Vector got = deRand1Bin(target, a, b, c, 0.7, cr, rng_lib);
        const Vector want = textbookTrial(target, a, b, c, 0.7, cr, rng_ref);
        ASSERT_TRUE(sameBits(got, want)) << "d=" << d << " cr=" << cr;
      }
      // Both generators consumed the same draws.
      EXPECT_EQ(rng_lib.uniform(), rng_ref.uniform())
          << "d=" << d << " cr=" << cr;
    }
  }
}

TEST(DeRand1Bin, CrossoverRateBoundsTheMutantGenes) {
  const std::size_t d = 36;
  Rng parents(5);
  const Vector target = parents.uniformVector(d, 2.0, 3.0);
  const Vector a = parents.uniformVector(d);
  const Vector b = parents.uniformVector(d);
  const Vector c = parents.uniformVector(d);
  Rng rng(6);
  const auto changed = [&](double cr) {
    const Vector trial = deRand1Bin(target, a, b, c, 0.5, cr, rng);
    std::size_t n = 0;
    for (std::size_t j = 0; j < d; ++j) n += trial[j] != target[j];
    return n;
  };
  for (int round = 0; round < 10; ++round) {
    EXPECT_EQ(changed(0.0), 1u);  // only the forced coordinate
    EXPECT_EQ(changed(1.0), d);   // every coordinate
  }
}

TEST(DeRand1Bin, RejectsMismatchedParents) {
  Rng rng(1);
  const Vector x3{0.0, 0.0, 0.0};
  EXPECT_THROW(deRand1Bin(x3, x3, x3, Vector{0.0}, 0.7, 0.8, rng),
               mfbo::ContractViolation);
  const Vector empty;
  EXPECT_THROW(deRand1Bin(empty, empty, empty, empty, 0.7, 0.8, rng),
               mfbo::ContractViolation);
}

// -------------------------------------------------------------- Multistart --

TEST(Multistart, FindsGlobalAmongLocalMinima) {
  // f has local minimum near x=2 (value ~1) and global near x=-2 (value 0).
  ScalarObjective f = [](const Vector& v) {
    const double x = v[0];
    const double a = (x - 2.0) * (x - 2.0) + 1.0;
    const double b = (x + 2.0) * (x + 2.0);
    return std::min(a, b);
  };
  Box box(Vector{-4.0}, Vector{4.0});
  Rng rng(55);
  auto starts = mfbo::linalg::latinHypercube(10, box, rng);
  OptResult r = multistartMinimize(f, starts, box);
  EXPECT_NEAR(r.x[0], -2.0, 1e-3);
  EXPECT_NEAR(r.value, 0.0, 1e-6);
}

TEST(Multistart, ThrowsOnEmptyStarts) {
  Box box = Box::unitCube(1);
  EXPECT_THROW(multistartMinimize(sphere, {}, box), mfbo::ContractViolation);
}

TEST(Multistart, ComposeStartsCountsAndPlacement) {
  Box box = Box::unitCube(2);
  Rng rng(66);
  Vector inc_a{0.1, 0.1};
  Vector inc_b{0.9, 0.9};
  auto starts = composeStarts(5, {inc_a, inc_b}, {3, 4}, 0.02, box, rng);
  ASSERT_EQ(starts.size(), 12u);
  // The scattered starts must be near their incumbents.
  for (std::size_t i = 5; i < 8; ++i)
    EXPECT_LT((starts[i] - inc_a).norm(), 0.2);
  for (std::size_t i = 8; i < 12; ++i)
    EXPECT_LT((starts[i] - inc_b).norm(), 0.2);
  for (const auto& s : starts) EXPECT_TRUE(box.contains(s));
}

}  // namespace
