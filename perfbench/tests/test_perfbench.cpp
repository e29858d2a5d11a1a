// Tests for the benchmark's own helpers: the percentile / sample-count
// rule, metric-name validation, seed-determinism of the generated inputs,
// and the transparency of the surrogate decorator.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "layers.h"
#include "linalg/rng.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace mf = mfbo::mf;
using mfbo::linalg::Vector;

TEST(PerfbenchStats, QuantileInterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.9), 7.0);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.9), 9.0);
}

TEST(PerfbenchStats, PercentileNeedsTenSamplesBeyondIt) {
  EXPECT_FALSE(percentileReportable(99, 0.9));
  EXPECT_TRUE(percentileReportable(100, 0.9));
  EXPECT_FALSE(percentileReportable(999, 0.99));
  EXPECT_TRUE(percentileReportable(1000, 0.99));
  EXPECT_DOUBLE_EQ(highestReportablePercentile(6, {0.9, 0.99}), 0.5);
  EXPECT_DOUBLE_EQ(highestReportablePercentile(150, {0.9, 0.99}), 0.9);
  EXPECT_DOUBLE_EQ(highestReportablePercentile(5000, {0.9, 0.99}), 0.99);
}

TEST(PerfbenchStats, MetricNamesMatchTheAllowedAlphabet) {
  for (const char* ok : {"job_s_p50", "problems.eval_high.busy_s",
                         "parallel.pooled_frac", "a-b.c_d", "9lives"})
    EXPECT_TRUE(validMetricName(ok)) << ok;
  for (const char* bad : {"", "_leading", ".dot", "has space", "slash/name",
                          "percent%", "colon:x"})
    EXPECT_FALSE(validMetricName(bad)) << bad;
  EXPECT_TRUE(validMetricName(std::string(64, 'x')));
  EXPECT_FALSE(validMetricName(std::string(65, 'x')));
}

TEST(PerfbenchWorkloads, SameSeedGivesTheSameInputs) {
  for (Workload w :
       {Workload::kPaSynth, Workload::kCpSynth, Workload::kFleetSessions}) {
    std::set<std::uint64_t> seeds;
    for (std::size_t j = 0; j < 64; ++j) {
      const JobInput a = jobInput(w, 42, j);
      const JobInput b = jobInput(w, 42, j);
      EXPECT_EQ(a.seed, b.seed);
      EXPECT_EQ(a.batch_size, b.batch_size);
      EXPECT_EQ(a.id, b.id);
      seeds.insert(a.seed);
    }
    EXPECT_EQ(seeds.size(), 64u) << workloadName(w);
    EXPECT_NE(jobInput(w, 42, 0).seed, jobInput(w, 43, 0).seed);
  }
}

TEST(PerfbenchWorkloads, FleetMixesBatchSizesAndCircuitsStaySequential) {
  std::set<std::size_t> fleet_q;
  for (std::size_t j = 0; j < 64; ++j) {
    fleet_q.insert(jobInput(Workload::kFleetSessions, 7, j).batch_size);
    EXPECT_EQ(jobInput(Workload::kPaSynth, 7, j).batch_size, 1u);
    EXPECT_EQ(jobInput(Workload::kCpSynth, 7, j).batch_size, 1u);
  }
  EXPECT_EQ(fleet_q, (std::set<std::size_t>{1, 2}));
}

TEST(PerfbenchWorkloads, NamesRoundTrip) {
  for (Workload w :
       {Workload::kPaSynth, Workload::kCpSynth, Workload::kFleetSessions})
    EXPECT_EQ(parseWorkload(workloadName(w)), w);
  EXPECT_FALSE(parseWorkload("hit").has_value());
}

/// Low/high training sets of a smooth 2-D two-fidelity function.
struct Data {
  std::vector<Vector> xl, xh;
  std::vector<double> yl, yh;
};

Data twoFidelityData() {
  Data d;
  mfbo::linalg::Rng rng(5);
  auto high = [](const Vector& x) {
    return std::sin(6.0 * x[0]) + x[1] * x[1];
  };
  for (int i = 0; i < 12; ++i) {
    Vector x{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    d.xl.push_back(x);
    d.yl.push_back(0.8 * high(x) + 0.3 * x[0]);
    if (i % 3 == 0) {
      d.xh.push_back(x);
      d.yh.push_back(high(x));
    }
  }
  return d;
}

void expectSamePrediction(const mf::Prediction& a, const mf::Prediction& b) {
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.var, b.var);
}

TEST(PerfbenchLayers, WrappedNargpMatchesUnwrappedExactly) {
  const Data d = twoFidelityData();
  const auto opts = workloadOptions(Workload::kFleetSessions, 1);
  SurrogateStats stats;
  const auto plain = defaultNargp(opts.nargp, 2, 99);
  const auto wrapped = timedNargpFactory(opts.nargp, stats)(2, 99);
  plain->fit(d.xl, d.yl, d.xh, d.yh);
  wrapped->fit(d.xl, d.yl, d.xh, d.yh);
  EXPECT_EQ(plain->hyperparameters(), wrapped->hyperparameters());

  const Vector probe{0.3, 0.7};
  expectSamePrediction(plain->predictLow(probe), wrapped->predictLow(probe));
  expectSamePrediction(plain->predictHigh(probe), wrapped->predictHigh(probe));

  plain->addHigh(Vector{0.5, 0.5}, 1.0, /*retrain=*/false);
  wrapped->addHigh(Vector{0.5, 0.5}, 1.0, /*retrain=*/false);
  plain->addLow(Vector{0.1, 0.9}, 0.2, /*retrain=*/true);
  wrapped->addLow(Vector{0.1, 0.9}, 0.2, /*retrain=*/true);
  EXPECT_EQ(plain->hyperparameters(), wrapped->hyperparameters());
  expectSamePrediction(plain->predictHigh(probe), wrapped->predictHigh(probe));

  const auto plain_clone = plain->clone();
  const auto wrapped_clone = wrapped->clone();
  expectSamePrediction(plain_clone->predictHigh(probe),
                       wrapped_clone->predictHigh(probe));

  EXPECT_EQ(stats.fit.count.load(), 1u);
  EXPECT_EQ(stats.add_incremental.count.load(), 1u);
  EXPECT_EQ(stats.add_retrain.count.load(), 1u);
  EXPECT_EQ(stats.predict_low.count.load(), 1u);
  EXPECT_EQ(stats.predict_high.count.load(), 3u);
  EXPECT_EQ(stats.clones.load(), 1u);
}

}  // namespace
