// Unit and property tests for mfbo::gp — kernels, NLML, and the regressor.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/memstats.h"
#include "gp/gp_regressor.h"
#include "gp/kernel.h"
#include "linalg/rng.h"
#include "linalg/sampling.h"

namespace {

using namespace mfbo::gp;
using mfbo::linalg::Box;
using mfbo::linalg::Cholesky;
using mfbo::linalg::Rng;

// ---------------------------------------------------------------- kernels --

TEST(SeArdKernel, SelfCovarianceIsSignalVariance) {
  SeArdKernel k(3, /*sigma_f=*/2.0, /*lengthscale=*/0.7);
  Rng rng(1);
  Vector x = rng.uniformVector(3);
  EXPECT_NEAR(k.eval(x, x), 4.0, 1e-12);
}

TEST(SeArdKernel, SymmetricAndDecaysWithDistance) {
  SeArdKernel k(2);
  Vector a{0.0, 0.0}, b{0.5, 0.1}, c{2.0, 2.0};
  EXPECT_DOUBLE_EQ(k.eval(a, b), k.eval(b, a));
  EXPECT_GT(k.eval(a, b), k.eval(a, c));
  EXPECT_GT(k.eval(a, a), k.eval(a, b));
}

TEST(SeArdKernel, KnownValue) {
  // 1-d, sf=1, l=1: k(0, 1) = exp(-0.5).
  SeArdKernel k(1, 1.0, 1.0);
  EXPECT_NEAR(k.eval(Vector{0.0}, Vector{1.0}), std::exp(-0.5), 1e-14);
}

TEST(SeArdKernel, ArdLengthscalesActPerDimension) {
  SeArdKernel k(2);
  // l_0 small, l_1 large: movement along dim 0 should matter far more.
  k.setParams(Vector{0.0, std::log(0.1), std::log(10.0)});
  Vector origin{0.0, 0.0};
  const double along0 = k.eval(origin, Vector{0.3, 0.0});
  const double along1 = k.eval(origin, Vector{0.0, 0.3});
  EXPECT_LT(along0, along1);
}

TEST(SeArdKernel, ParamsRoundTrip) {
  SeArdKernel k(4);
  Vector p{0.3, -0.1, 0.2, -0.5, 1.0};
  k.setParams(p);
  EXPECT_LT(mfbo::linalg::maxAbsDiff(k.params(), p), 1e-15);
  EXPECT_EQ(k.numParams(), 5u);
  EXPECT_EQ(k.paramName(0), "log_sigma_f");
  EXPECT_EQ(k.paramName(2), "log_l1");
}

TEST(SeArdKernel, GramIsSpd) {
  Rng rng(3);
  SeArdKernel k(3);
  std::vector<Vector> x;
  for (int i = 0; i < 12; ++i) x.push_back(rng.uniformVector(3));
  Matrix gram = k.gram(x);
  // SPD up to jitter.
  EXPECT_NO_THROW(Cholesky::factorWithJitter(gram));
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < x.size(); ++j)
      EXPECT_DOUBLE_EQ(gram(i, j), gram(j, i));
}

TEST(NargpKernel, ReducesToSumWhenYlMatches) {
  // When y_l coordinates coincide, k1 = 1 so k = k2 + k3 with matching x.
  NargpKernel k(2);
  Vector a{0.1, 0.2, 0.7};
  Vector b{0.4, 0.9, 0.7};  // same y_l = 0.7
  // Compare with manual evaluation using the kernel's own parameters.
  const Vector p = k.params();
  const double sf2 = std::exp(p[1]), l2_0 = std::exp(p[2]),
               l2_1 = std::exp(p[3]);
  const double sf3 = std::exp(p[4]), l3_0 = std::exp(p[5]),
               l3_1 = std::exp(p[6]);
  auto se = [](double sf, double q) { return sf * sf * std::exp(-0.5 * q); };
  const double q2 = std::pow((a[0] - b[0]) / l2_0, 2) +
                    std::pow((a[1] - b[1]) / l2_1, 2);
  const double q3 = std::pow((a[0] - b[0]) / l3_0, 2) +
                    std::pow((a[1] - b[1]) / l3_1, 2);
  EXPECT_NEAR(k.eval(a, b), se(sf2, q2) + se(sf3, q3), 1e-12);
}

TEST(NargpKernel, YlDifferenceReducesCovariance) {
  NargpKernel k(2);
  Vector a{0.1, 0.2, 0.0};
  Vector same_yl{0.3, 0.4, 0.0};
  Vector diff_yl{0.3, 0.4, 2.0};
  EXPECT_GT(k.eval(a, same_yl), k.eval(a, diff_yl));
}

TEST(NargpKernel, ParamsRoundTripAndNames) {
  NargpKernel k(3);
  EXPECT_EQ(k.numParams(), 9u);
  Rng rng(5);
  Vector p = rng.normalVector(9);
  k.setParams(p);
  EXPECT_LT(mfbo::linalg::maxAbsDiff(k.params(), p), 1e-15);
  EXPECT_EQ(k.paramName(0), "log_l_rho");
  EXPECT_EQ(k.paramName(1), "log_sf2");
  EXPECT_EQ(k.paramName(5), "log_sf3");
}

TEST(NargpKernel, GramIsSpd) {
  Rng rng(7);
  NargpKernel k(2);
  std::vector<Vector> z;
  for (int i = 0; i < 10; ++i) z.push_back(rng.uniformVector(3));
  EXPECT_NO_THROW(Cholesky::factorWithJitter(k.gram(z)));
}

/// Symmetric n×n matrix of standard-normal draws (lower triangle drawn
/// row by row, mirrored).
Matrix randomSymmetric(std::size_t n, Rng& rng) {
  Matrix w(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      w(i, j) = rng.normal();
      w(j, i) = w(i, j);
    }
  return w;
}

// Finite-difference check of accumulateWeightedGrad for both kernels:
// Σ w_ij k_ij differentiated numerically must match the accumulated grad.
template <typename K>
void checkWeightedGrad(K& kernel, std::size_t input_dim, unsigned seed) {
  Rng rng(seed);
  std::vector<Vector> x;
  for (int i = 0; i < 7; ++i) x.push_back(rng.uniformVector(input_dim));
  const Matrix w = randomSymmetric(7, rng);
  const Vector p0 = kernel.params();
  auto contraction = [&](const Vector& p) {
    kernel.setParams(p);
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
      for (std::size_t j = 0; j < x.size(); ++j)
        acc += w(i, j) * kernel.eval(x[i], x[j]);
    return acc;
  };
  Vector grad(kernel.numParams());
  kernel.setParams(p0);
  kernel.accumulateWeightedGrad(x, w, grad);
  const double h = 1e-6;
  for (std::size_t t = 0; t < kernel.numParams(); ++t) {
    Vector pp = p0, pm = p0;
    pp[t] += h;
    pm[t] -= h;
    const double fd = (contraction(pp) - contraction(pm)) / (2.0 * h);
    EXPECT_NEAR(grad[t], fd, 1e-5 * std::max(1.0, std::abs(fd)))
        << "param " << t << " (" << kernel.paramName(t) << ")";
  }
  kernel.setParams(p0);
}

TEST(SeArdKernel, WeightedGradMatchesFiniteDifference) {
  SeArdKernel k(3);
  k.setParams(Vector{0.2, -0.4, 0.1, -0.8});
  checkWeightedGrad(k, 3, 11);
}

TEST(NargpKernel, WeightedGradMatchesFiniteDifference) {
  NargpKernel k(2);
  k.setParams(Vector{-0.3, 0.2, -0.5, 0.4, -0.2, 0.1, -0.6});
  checkWeightedGrad(k, 3, 13);
}

// ------------------------------------------ cached inverse length scales --

// The kernels' formulas with exp(−log l) taken inline per dimension, as
// they were before the kernels cached it: the cached evaluation must
// reproduce these bits exactly.
double referenceSeArd(const Vector& p, const Vector& a, const Vector& b) {
  double q = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scaled = (a[i] - b[i]) * std::exp(-p[1 + i]);
    q += scaled * scaled;
  }
  return std::exp(2.0 * p[0] - 0.5 * q);
}

// p = [log l_ρ, log σ_f2, log l2_1..d, log σ_f3, log l3_1..d].
double referenceNargp(const Vector& p, std::size_t d, const Vector& a,
                      const Vector& b) {
  const double dy = a[d] - b[d];
  const double inv_lr = std::exp(-p[0]);
  const double k1 = std::exp(-0.5 * dy * dy * inv_lr * inv_lr);
  double q2 = 0.0, q3 = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    const double diff = a[i] - b[i];
    const double s2 = diff * std::exp(-p[2 + i]);
    const double s3 = diff * std::exp(-p[3 + d + i]);
    q2 += s2 * s2;
    q3 += s3 * s3;
  }
  const double k2 = std::exp(2.0 * p[1] - 0.5 * q2);
  const double k3 = std::exp(2.0 * p[2 + d] - 0.5 * q3);
  return k1 * k2 + k3;
}

/// accumulateWeightedGrad of @p kernel, which reads the cached squared
/// inverse length scales.
Vector weightedGrad(const Kernel& kernel, const std::vector<Vector>& x,
                    const Matrix& w) {
  Vector grad(kernel.numParams());
  kernel.accumulateWeightedGrad(x, w, grad);
  return grad;
}

void expectSameBits(const Vector& got, const Vector& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], want[i]) << "entry " << i;
}

TEST(KernelScaleCache, SeArdSetParamsLeavesNoStaleScales) {
  Rng rng(61);
  const std::size_t d = 5;
  const Vector p1 = rng.normalVector(d + 1);
  const Vector p2 = rng.normalVector(d + 1);
  SeArdKernel reused(d);
  reused.setParams(p1);
  reused.setParams(p2);
  SeArdKernel fresh(d);
  fresh.setParams(p2);
  const std::unique_ptr<Kernel> cloned = reused.clone();

  std::vector<Vector> x;
  for (int i = 0; i < 6; ++i) x.push_back(rng.uniformVector(d));
  for (const Vector& a : x) {
    for (const Vector& b : x) {
      const double want = referenceSeArd(p2, a, b);
      EXPECT_EQ(fresh.eval(a, b), want);
      EXPECT_EQ(reused.eval(a, b), want);
      EXPECT_EQ(cloned->eval(a, b), want);
    }
  }
  const Matrix w = randomSymmetric(x.size(), rng);
  const Vector want_grad = weightedGrad(fresh, x, w);
  expectSameBits(weightedGrad(reused, x, w), want_grad);
  expectSameBits(weightedGrad(*cloned, x, w), want_grad);
}

TEST(KernelScaleCache, NargpSetParamsLeavesNoStaleScales) {
  Rng rng(67);
  const std::size_t d = 4;
  NargpKernel reused(d);
  const Vector p1 = rng.normalVector(reused.numParams());
  const Vector p2 = rng.normalVector(reused.numParams());
  reused.setParams(p1);
  reused.setParams(p2);
  NargpKernel fresh(d);
  fresh.setParams(p2);
  const std::unique_ptr<Kernel> cloned_base = reused.clone();
  const auto& cloned = static_cast<const NargpKernel&>(*cloned_base);

  std::vector<Vector> z;
  for (int i = 0; i < 6; ++i) z.push_back(rng.uniformVector(d + 1));
  for (const Vector& a : z) {
    for (const Vector& b : z) {
      const double want = referenceNargp(p2, d, a, b);
      EXPECT_EQ(fresh.eval(a, b), want);
      EXPECT_EQ(reused.eval(a, b), want);
      EXPECT_EQ(cloned.eval(a, b), want);
      const double dy = (a[d] - b[d]) * std::exp(-p2[0]);
      const double want_k1 = std::exp(-0.5 * dy * dy);
      EXPECT_EQ(fresh.k1Scalar(a[d], b[d]), want_k1);
      EXPECT_EQ(reused.k1Scalar(a[d], b[d]), want_k1);
      EXPECT_EQ(cloned.k1Scalar(a[d], b[d]), want_k1);
    }
  }

  const Vector x_star = rng.uniformVector(d);
  Vector want_c2, want_c3, c2, c3;
  fresh.crossXParts(z, x_star, want_c2, want_c3);
  reused.crossXParts(z, x_star, c2, c3);
  expectSameBits(c2, want_c2);
  expectSameBits(c3, want_c3);
  cloned.crossXParts(z, x_star, c2, c3);
  expectSameBits(c2, want_c2);
  expectSameBits(c3, want_c3);

  const Matrix w = randomSymmetric(z.size(), rng);
  const Vector want_grad = weightedGrad(fresh, z, w);
  expectSameBits(weightedGrad(reused, z, w), want_grad);
  expectSameBits(weightedGrad(cloned, z, w), want_grad);
}

// ------------------------------------------------------------------- NLML --

TEST(Nlml, MatchesDirectFormula) {
  // Compare against the textbook NLML computed with explicit inverse.
  Rng rng(17);
  SeArdKernel kernel(2);
  std::vector<Vector> x;
  Vector y(6);
  for (int i = 0; i < 6; ++i) {
    x.push_back(rng.uniformVector(2));
    y[static_cast<std::size_t>(i)] = rng.normal();
  }
  const double log_sn = std::log(0.2);
  const double got = negLogMarginalLikelihood(kernel, log_sn, x, y);

  Matrix k = kernel.gram(x);
  for (std::size_t i = 0; i < 6; ++i) k(i, i) += std::exp(2.0 * log_sn);
  Cholesky chol = Cholesky::factor(k);
  const Vector alpha = chol.solve(y);
  const double expected = 0.5 * dot(y, alpha) + 0.5 * chol.logDet() +
                          3.0 * std::log(2.0 * M_PI);
  EXPECT_NEAR(got, expected, 1e-10);
}

TEST(Nlml, GradientMatchesFiniteDifference) {
  Rng rng(19);
  SeArdKernel kernel(2);
  std::vector<Vector> x;
  Vector y(8);
  for (int i = 0; i < 8; ++i) {
    x.push_back(rng.uniformVector(2));
    y[static_cast<std::size_t>(i)] =
        std::sin(3.0 * x.back()[0]) + 0.1 * rng.normal();
  }
  const Vector p0 = kernel.params();
  const double log_sn0 = std::log(0.15);

  Vector grad;
  negLogMarginalLikelihood(kernel, log_sn0, x, y, &grad);
  ASSERT_EQ(grad.size(), kernel.numParams() + 1);

  auto eval_at = [&](const Vector& kp, double log_sn) {
    kernel.setParams(kp);
    const double v = negLogMarginalLikelihood(kernel, log_sn, x, y);
    kernel.setParams(p0);
    return v;
  };
  const double h = 1e-6;
  for (std::size_t t = 0; t < kernel.numParams(); ++t) {
    Vector pp = p0, pm = p0;
    pp[t] += h;
    pm[t] -= h;
    const double fd = (eval_at(pp, log_sn0) - eval_at(pm, log_sn0)) / (2 * h);
    EXPECT_NEAR(grad[t], fd, 1e-4 * std::max(1.0, std::abs(fd)))
        << "kernel param " << t;
  }
  const double fd_noise =
      (eval_at(p0, log_sn0 + h) - eval_at(p0, log_sn0 - h)) / (2 * h);
  EXPECT_NEAR(grad[kernel.numParams()], fd_noise,
              1e-4 * std::max(1.0, std::abs(fd_noise)));
}

TEST(Nlml, ThrowsOnEmptyData) {
  SeArdKernel kernel(1);
  EXPECT_THROW(negLogMarginalLikelihood(kernel, 0.0, {}, Vector{}),
               mfbo::ContractViolation);
}

// -------------------------------------------------------------- regressor --

GpRegressor makeFitted1d(std::size_t n, double noise_sd, unsigned seed,
                         double (*f)(double)) {
  Rng rng(seed);
  std::vector<Vector> x;
  std::vector<double> y;
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = static_cast<double>(i) / static_cast<double>(n - 1);
    x.push_back(Vector{xi});
    y.push_back(f(xi) + noise_sd * rng.normal());
  }
  GpConfig cfg;
  cfg.seed = seed;
  GpRegressor gp(std::make_unique<SeArdKernel>(1), cfg);
  gp.fit(std::move(x), std::move(y));
  return gp;
}

TEST(GpRegressor, InterpolatesNoiselessData) {
  auto f = [](double x) { return std::sin(6.0 * x); };
  GpRegressor gp = makeFitted1d(15, 0.0, 23, f);
  for (double xq : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const Prediction p = gp.predict(Vector{xq});
    EXPECT_NEAR(p.mean, f(xq), 5e-2) << "x=" << xq;
  }
}

TEST(GpRegressor, PredictionUncertaintyGrowsAwayFromData) {
  auto f = [](double x) { return x * x; };
  GpRegressor gp = makeFitted1d(10, 0.01, 29, f);
  const Prediction near = gp.predict(Vector{0.5});
  const Prediction far = gp.predict(Vector{3.0});
  EXPECT_LT(near.var, far.var);
}

TEST(GpRegressor, RecoversFunctionUnderNoise) {
  auto f = [](double x) { return std::cos(4.0 * x); };
  GpRegressor gp = makeFitted1d(40, 0.05, 31, f);
  double rmse = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double xq = static_cast<double>(i) / 49.0;
    const double err = gp.predict(Vector{xq}).mean - f(xq);
    rmse += err * err;
  }
  rmse = std::sqrt(rmse / 50.0);
  EXPECT_LT(rmse, 0.1);
}

TEST(GpRegressor, LearnedNoiseIsReasonable) {
  auto f = [](double x) { return 2.0 * x; };
  GpRegressor gp = makeFitted1d(60, 0.1, 37, f);
  // Output standardization: raw sd of y ≈ sd(2x) ≈ 0.58, so noise 0.1 raw
  // ≈ 0.17 standardized. Accept a generous bracket.
  EXPECT_GT(gp.noiseSd(), 0.01);
  EXPECT_LT(gp.noiseSd(), 0.8);
}

TEST(GpRegressor, AddPointUpdatesPosterior) {
  auto f = [](double x) { return std::sin(5.0 * x); };
  GpRegressor gp = makeFitted1d(8, 0.0, 41, f);
  const double x_new = 0.62;
  const Prediction before = gp.predict(Vector{x_new});
  gp.addPoint(Vector{x_new}, f(x_new), /*retrain=*/false);
  const Prediction after = gp.predict(Vector{x_new});
  EXPECT_LT(after.var, before.var);
  EXPECT_NEAR(after.mean, f(x_new), 0.05);
  EXPECT_EQ(gp.size(), 9u);
}

TEST(GpRegressor, AddPointWithRetrainStillInterpolates) {
  auto f = [](double x) { return x * std::sin(8.0 * x); };
  GpRegressor gp = makeFitted1d(10, 0.0, 43, f);
  gp.addPoint(Vector{0.33}, f(0.33), /*retrain=*/true);
  EXPECT_NEAR(gp.predict(Vector{0.33}).mean, f(0.33), 0.05);
}

TEST(GpRegressor, BestObservedIsMinimum) {
  GpRegressor gp(std::make_unique<SeArdKernel>(1));
  gp.fit({Vector{0.0}, Vector{0.5}, Vector{1.0}}, {3.0, -2.0, 7.0});
  EXPECT_DOUBLE_EQ(gp.bestObserved(), -2.0);
}

TEST(GpRegressor, ThrowsOnMisuse) {
  GpRegressor gp(std::make_unique<SeArdKernel>(2));
  EXPECT_THROW(gp.predict(Vector{0.0, 0.0}), std::logic_error);
  EXPECT_THROW(gp.fit({}, {}), mfbo::ContractViolation);
  EXPECT_THROW(gp.fit({Vector{0.0}}, {1.0}), mfbo::ContractViolation);
  EXPECT_THROW(gp.fit({Vector{0.0, 0.0}}, {1.0, 2.0}),
               mfbo::ContractViolation);
}

TEST(GpRegressor, CopyIsIndependent) {
  auto f = [](double x) { return x; };
  GpRegressor gp = makeFitted1d(6, 0.0, 47, f);
  GpRegressor copy = gp;
  copy.addPoint(Vector{0.9}, 5.0, false);
  EXPECT_EQ(gp.size(), 6u);
  EXPECT_EQ(copy.size(), 7u);
  // Original predictions unchanged by mutating the copy.
  EXPECT_NEAR(gp.predict(Vector{0.5}).mean, 0.5, 0.05);
}

TEST(GpRegressor, HandlesConstantTargets) {
  GpRegressor gp(std::make_unique<SeArdKernel>(1));
  gp.fit({Vector{0.0}, Vector{0.5}, Vector{1.0}}, {2.0, 2.0, 2.0});
  const Prediction p = gp.predict(Vector{0.7});
  EXPECT_NEAR(p.mean, 2.0, 0.2);
  EXPECT_TRUE(std::isfinite(p.var));
}

TEST(GpRegressor, PredictMakesOneAllocationPerCall) {
  // k* is the only allocation: the variance's forward solve runs in place
  // over it. predict opens no parallel region, so the calling thread's
  // counters see all of its work.
  auto f = [](double x) { return std::sin(4.0 * x); };
  const GpRegressor gp = makeFitted1d(12, 0.0, 29, f);
  const Vector q{0.37};
  const std::uint64_t before = mfbo::memstats::threadCounters().alloc_count;
  const Prediction p = gp.predict(q);
  const std::uint64_t after = mfbo::memstats::threadCounters().alloc_count;
  EXPECT_EQ(after - before, 1u);
  EXPECT_TRUE(std::isfinite(p.mean));
}

TEST(GpRegressor, DuplicateInputsDoNotCrash) {
  GpRegressor gp(std::make_unique<SeArdKernel>(1));
  gp.fit({Vector{0.3}, Vector{0.3}, Vector{0.8}}, {1.0, 1.1, -0.5});
  EXPECT_NO_THROW(gp.predict(Vector{0.3}));
}

TEST(GpRegressor, WorksInHigherDimensions) {
  Rng rng(53);
  auto f = [](const Vector& x) {
    return x[0] * x[0] + std::sin(3.0 * x[1]) - 0.5 * x[2];
  };
  std::vector<Vector> x;
  std::vector<double> y;
  Box cube = Box::unitCube(3);
  for (const auto& xi : mfbo::linalg::latinHypercube(40, cube, rng)) {
    x.push_back(xi);
    y.push_back(f(xi));
  }
  GpConfig cfg;
  cfg.seed = 53;
  GpRegressor gp(std::make_unique<SeArdKernel>(3), cfg);
  gp.fit(x, y);
  double rmse = 0.0;
  const auto queries = mfbo::linalg::latinHypercube(20, cube, rng);
  for (const auto& q : queries) {
    const double err = gp.predict(q).mean - f(q);
    rmse += err * err;
  }
  rmse = std::sqrt(rmse / static_cast<double>(queries.size()));
  EXPECT_LT(rmse, 0.15);
}

}  // namespace
