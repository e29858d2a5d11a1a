// Tests for the multi-fidelity surrogates: NARGP (nonlinear fusion) and the
// AR(1) cokriging baseline. The Perdikaris pedagogical pair — the same
// functions behind the paper's Figures 1-2 — doubles as the ground truth.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/memstats.h"
#include "common/parallel.h"
#include "gp/gp_regressor.h"
#include "linalg/rng.h"
#include "mf/ar1.h"
#include "mf/nargp.h"

namespace {

using namespace mfbo::mf;
namespace memstats = mfbo::memstats;
using mfbo::gp::GpConfig;
using mfbo::gp::GpRegressor;
using mfbo::gp::SeArdKernel;
using mfbo::linalg::Rng;

struct ScopedThreads {
  explicit ScopedThreads(std::size_t n) { mfbo::parallel::setMaxThreads(n); }
  ~ScopedThreads() { mfbo::parallel::setMaxThreads(0); }
};

// Perdikaris et al. 2017 pedagogical pair on [0, 1]: the high-fidelity
// function is a *nonlinear* (quadratic) transformation of the low one.
double pedagogicalLow(double x) { return std::sin(8.0 * M_PI * x); }
double pedagogicalHigh(double x) {
  const double yl = pedagogicalLow(x);
  return (x - std::sqrt(2.0)) * yl * yl;
}

struct PedagogicalData {
  std::vector<mfbo::linalg::Vector> x_low, x_high;
  std::vector<double> y_low, y_high;
};

// Half-offset grids: an aligned grid i/(n-1) would hit the zeros of
// sin(8πx) exactly and produce degenerate all-zero targets.
PedagogicalData makePedagogical(std::size_t n_low, std::size_t n_high) {
  PedagogicalData d;
  for (std::size_t i = 0; i < n_low; ++i) {
    const double x =
        (static_cast<double>(i) + 0.5) / static_cast<double>(n_low);
    d.x_low.push_back(mfbo::linalg::Vector{x});
    d.y_low.push_back(pedagogicalLow(x));
  }
  for (std::size_t i = 0; i < n_high; ++i) {
    const double x =
        (static_cast<double>(i) + 0.5) / static_cast<double>(n_high);
    d.x_high.push_back(mfbo::linalg::Vector{x});
    d.y_high.push_back(pedagogicalHigh(x));
  }
  return d;
}

double highRmse(const MfSurrogate& model, std::size_t n_grid = 101) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n_grid; ++i) {
    const double x = static_cast<double>(i) / static_cast<double>(n_grid - 1);
    const double err =
        model.predictHigh(mfbo::linalg::Vector{x}).mean - pedagogicalHigh(x);
    acc += err * err;
  }
  return std::sqrt(acc / static_cast<double>(n_grid));
}

NargpConfig fastNargpConfig() {
  NargpConfig cfg;
  cfg.low.n_restarts = 1;
  cfg.high.n_restarts = 1;
  cfg.n_mc = 50;
  return cfg;
}

// ------------------------------------------------------------------ NARGP --

TEST(Nargp, FitsPedagogicalHighFunction) {
  auto d = makePedagogical(33, 15);
  NargpModel model(1, fastNargpConfig());
  model.fit(d.x_low, d.y_low, d.x_high, d.y_high);
  EXPECT_LT(highRmse(model), 0.15);
}

TEST(Nargp, BeatsSingleFidelityGpWithSameHighData) {
  // The headline claim of Figure 1: with few high-fidelity points, fusing
  // the cheap data gives a far better high-fidelity posterior than a GP
  // trained on the high-fidelity points alone.
  auto d = makePedagogical(33, 15);

  NargpModel mf_model(1, fastNargpConfig());
  mf_model.fit(d.x_low, d.y_low, d.x_high, d.y_high);

  GpConfig cfg;
  GpRegressor sf_model(std::make_unique<SeArdKernel>(1), cfg);
  sf_model.fit(d.x_high, d.y_high);

  double sf_rmse = 0.0;
  for (int i = 0; i < 101; ++i) {
    const double x = i / 100.0;
    const double err =
        sf_model.predict(mfbo::linalg::Vector{x}).mean - pedagogicalHigh(x);
    sf_rmse += err * err;
  }
  sf_rmse = std::sqrt(sf_rmse / 101.0);

  EXPECT_LT(highRmse(mf_model), 0.5 * sf_rmse);
}

TEST(Nargp, PredictLowMatchesLowFunction) {
  auto d = makePedagogical(33, 5);
  NargpModel model(1, fastNargpConfig());
  model.fit(d.x_low, d.y_low, d.x_high, d.y_high);
  for (double x : {0.13, 0.5, 0.87}) {
    EXPECT_NEAR(model.predictLow(mfbo::linalg::Vector{x}).mean,
                pedagogicalLow(x), 0.1);
  }
}

TEST(Nargp, PredictionIsDeterministicBetweenUpdates) {
  auto d = makePedagogical(17, 5);
  NargpModel model(1, fastNargpConfig());
  model.fit(d.x_low, d.y_low, d.x_high, d.y_high);
  const mfbo::linalg::Vector q{0.42};
  const Prediction a = model.predictHigh(q);
  const Prediction b = model.predictHigh(q);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.var, b.var);
}

TEST(Nargp, PredictHighAllocationsDoNotGrowWithVarianceSamples) {
  // At 1 thread the MC region runs as one chunk. Its variance samples
  // share one stacked right-hand-side matrix and one in-place solve, so a
  // call allocates the same at any n_mc_var: k* of the low GP, the two
  // k2/k3 x-part vectors, the mean and variance slots, the region's body,
  // and the chunk's k* and stacked-solve scratch — 8 in all.
  const ScopedThreads one_thread(1);
  const PedagogicalData d = makePedagogical(17, 6);
  const auto allocs_per_call = [&](std::size_t n_mc_var) {
    NargpConfig cfg = fastNargpConfig();
    cfg.n_mc = 40;
    cfg.n_mc_var = n_mc_var;
    NargpModel model(1, cfg);
    model.fit(d.x_low, d.y_low, d.x_high, d.y_high);
    const mfbo::linalg::Vector q{0.42};
    const std::uint64_t before = memstats::threadCounters().alloc_count;
    const Prediction p = model.predictHigh(q);
    const std::uint64_t after = memstats::threadCounters().alloc_count;
    EXPECT_TRUE(std::isfinite(p.var));
    return after - before;
  };
  const std::uint64_t one = allocs_per_call(1);
  EXPECT_EQ(allocs_per_call(20), one);
  EXPECT_EQ(allocs_per_call(40), one);
  EXPECT_LE(one, 8u);
}

TEST(Nargp, VarianceShrinksAtNewHighPoint) {
  auto d = makePedagogical(17, 5);
  NargpModel model(1, fastNargpConfig());
  model.fit(d.x_low, d.y_low, d.x_high, d.y_high);
  const mfbo::linalg::Vector q{0.61};
  const double var_before = model.predictHigh(q).var;
  model.addHigh(q, pedagogicalHigh(0.61), /*retrain=*/false);
  const double var_after = model.predictHigh(q).var;
  EXPECT_LT(var_after, var_before);
  EXPECT_EQ(model.numHigh(), 6u);
}

TEST(Nargp, AddLowRefreshesLowPosterior) {
  auto d = makePedagogical(9, 4);
  NargpModel model(1, fastNargpConfig());
  model.fit(d.x_low, d.y_low, d.x_high, d.y_high);
  const mfbo::linalg::Vector q{0.275};
  const double var_before = model.predictLow(q).var;
  model.addLow(q, pedagogicalLow(0.275), /*retrain=*/false);
  EXPECT_LT(model.predictLow(q).var, var_before);
  EXPECT_EQ(model.numLow(), 10u);
}

TEST(Nargp, TracksBestObserved) {
  auto d = makePedagogical(17, 5);
  NargpModel model(1, fastNargpConfig());
  model.fit(d.x_low, d.y_low, d.x_high, d.y_high);
  double expected_low = *std::min_element(d.y_low.begin(), d.y_low.end());
  double expected_high = *std::min_element(d.y_high.begin(), d.y_high.end());
  EXPECT_DOUBLE_EQ(model.bestLowObserved(), expected_low);
  EXPECT_DOUBLE_EQ(model.bestHighObserved(), expected_high);
  model.addHigh(mfbo::linalg::Vector{0.5}, -100.0, false);
  EXPECT_DOUBLE_EQ(model.bestHighObserved(), -100.0);
}

TEST(Nargp, ThrowsOnMisuse) {
  EXPECT_THROW(NargpModel(0), mfbo::ContractViolation);
  NargpModel model(1, fastNargpConfig());
  EXPECT_THROW(model.predictHigh(mfbo::linalg::Vector{0.5}), std::logic_error);
  auto d = makePedagogical(5, 3);
  EXPECT_THROW(model.fit({}, {}, d.x_high, d.y_high),
               mfbo::ContractViolation);
  EXPECT_THROW(model.fit(d.x_low, d.y_low, {}, {}), mfbo::ContractViolation);
}

TEST(Nargp, WorksIn2d) {
  // Low fidelity: smooth bowl; high fidelity: nonlinear transform of it.
  auto low = [](const mfbo::linalg::Vector& x) {
    return x[0] * x[0] + x[1] * x[1];
  };
  auto high = [&](const mfbo::linalg::Vector& x) {
    const double yl = low(x);
    return std::sin(2.0 * yl) + 0.3 * yl;
  };
  Rng rng(71);
  auto cube = mfbo::linalg::Box::unitCube(2);
  PedagogicalData d;
  for (const auto& x : mfbo::linalg::latinHypercube(30, cube, rng)) {
    d.x_low.push_back(x);
    d.y_low.push_back(low(x));
  }
  for (const auto& x : mfbo::linalg::latinHypercube(10, cube, rng)) {
    d.x_high.push_back(x);
    d.y_high.push_back(high(x));
  }
  NargpModel model(2, fastNargpConfig());
  model.fit(d.x_low, d.y_low, d.x_high, d.y_high);
  double rmse = 0.0;
  const auto queries = mfbo::linalg::latinHypercube(25, cube, rng);
  for (const auto& q : queries) {
    const double err = model.predictHigh(q).mean - high(q);
    rmse += err * err;
  }
  rmse = std::sqrt(rmse / static_cast<double>(queries.size()));
  EXPECT_LT(rmse, 0.25);
}

// -------------------------------------------------------------------- AR1 --

TEST(Ar1, RecoversLinearCorrelationExactly) {
  // y_h = 2.5·y_l: the linear model is exactly right here.
  auto low = [](double x) { return std::sin(3.0 * x); };
  std::vector<mfbo::linalg::Vector> xl, xh;
  std::vector<double> yl, yh;
  for (int i = 0; i < 25; ++i) {
    const double x = i / 24.0;
    xl.push_back(mfbo::linalg::Vector{x});
    yl.push_back(low(x));
  }
  for (int i = 0; i < 7; ++i) {
    const double x = i / 6.0;
    xh.push_back(mfbo::linalg::Vector{x});
    yh.push_back(2.5 * low(x));
  }
  Ar1Model model(1);
  model.fit(xl, yl, xh, yh);
  EXPECT_NEAR(model.rho(), 2.5, 0.1);
  for (double x : {0.21, 0.55, 0.83}) {
    EXPECT_NEAR(model.predictHigh(mfbo::linalg::Vector{x}).mean,
                2.5 * low(x), 0.15)
        << "x=" << x;
  }
}

TEST(Ar1, NargpBeatsAr1OnNonlinearMap) {
  // The motivating claim of §3.1: linear fusion cannot capture the
  // quadratic low→high map of the pedagogical pair.
  auto d = makePedagogical(33, 15);
  Ar1Model ar1(1);
  ar1.fit(d.x_low, d.y_low, d.x_high, d.y_high);
  NargpModel nargp(1, fastNargpConfig());
  nargp.fit(d.x_low, d.y_low, d.x_high, d.y_high);
  EXPECT_LT(highRmse(nargp), highRmse(ar1));
}

TEST(Ar1, AddPointsAndBestObserved) {
  auto d = makePedagogical(17, 5);
  Ar1Model model(1);
  model.fit(d.x_low, d.y_low, d.x_high, d.y_high);
  EXPECT_EQ(model.numLow(), 17u);
  EXPECT_EQ(model.numHigh(), 5u);
  model.addLow(mfbo::linalg::Vector{0.111}, pedagogicalLow(0.111), false);
  model.addHigh(mfbo::linalg::Vector{0.222}, -50.0, false);
  EXPECT_EQ(model.numLow(), 18u);
  EXPECT_EQ(model.numHigh(), 6u);
  EXPECT_DOUBLE_EQ(model.bestHighObserved(), -50.0);
}

TEST(Ar1, VarianceCombinesBothLevels) {
  auto d = makePedagogical(17, 5);
  Ar1Model model(1);
  model.fit(d.x_low, d.y_low, d.x_high, d.y_high);
  const Prediction p = model.predictHigh(mfbo::linalg::Vector{0.5});
  // Variance must be at least the scaled low-fidelity variance.
  const Prediction low = model.predictLow(mfbo::linalg::Vector{0.5});
  EXPECT_GE(p.var, model.rho() * model.rho() * low.var * 0.99);
}

TEST(Ar1, ThrowsOnMisuse) {
  EXPECT_THROW(Ar1Model(0), mfbo::ContractViolation);
  Ar1Model model(2);
  EXPECT_THROW(model.addHigh(mfbo::linalg::Vector{0.0}, 1.0),
               mfbo::ContractViolation);
}

}  // namespace
