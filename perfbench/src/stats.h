// Small statistics and naming helpers shared by the benchmark driver and its
// tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (the "type 7" rule) of @p samples,
/// q in [0, 1]. 0 for an empty sample.
inline double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Arithmetic mean; 0 for an empty sample.
inline double mean(const std::vector<double>& samples) {
  double sum = 0.0;
  for (double v : samples) sum += v;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

/// Samples needed beyond a reported percentile. A tail percentile drawn
/// from fewer observations is mostly one or two outliers.
constexpr std::size_t kTailSamples = 10;

/// True when percentile @p q of @p n samples has at least kTailSamples
/// samples beyond it, i.e. n·(1−q) ≥ 10. The median needs 20 samples by
/// this rule, but it is always reported, with its n.
inline bool percentileReportable(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) + 1e-9 >=
         static_cast<double>(kTailSamples);
}

/// The highest of @p candidates (ascending) that percentileReportable()
/// allows for @p n samples; 0.5 when none does.
inline double highestReportablePercentile(std::size_t n,
                                          const std::vector<double>& candidates) {
  double best = 0.5;
  for (double q : candidates)
    if (percentileReportable(n, q)) best = std::max(best, q);
  return best;
}

/// Metric names: 1-64 characters of [A-Za-z0-9_.-], starting with a letter
/// or a digit.
inline bool validMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  for (char c : name)
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  return true;
}

}  // namespace perfbench
