#include "common/telemetry.h"

#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/memstats.h"
#include "common/spans.h"

namespace mfbo {
namespace telemetry {

std::size_t Histogram::bucketIndex(double seconds) {
  // NaN and sub-minimum samples land in the underflow bucket: the
  // comparison below is false for NaN, so only the explicit <= edge test
  // routes — keep it first.
  if (!(seconds > 1e-7)) return 0;
  const double min_edge = static_cast<double>(kMinExponent);
  const double position =
      (std::log10(seconds) - min_edge) * kBucketsPerDecade;
  if (position >= static_cast<double>(kBuckets - 2)) return kBuckets - 1;
  const std::size_t idx = 1 + static_cast<std::size_t>(position);
  return idx < kBuckets - 1 ? idx : kBuckets - 1;
}

double Histogram::bucketUpperEdge(std::size_t index) {
  MFBO_DCHECK(index < kBuckets, "bucket index out of range");
  if (index == 0) return 1e-7;
  // The overflow bucket reports the last finite edge (1e3 s): a bounded
  // answer an SLO dashboard can plot, explicitly "at least this".
  if (index >= kBuckets - 1) index = kBuckets - 2;
  return std::pow(
      10.0, static_cast<double>(kMinExponent) +
                static_cast<double>(index) /
                    static_cast<double>(kBucketsPerDecade));
}

void Histogram::record(double seconds) {
  counts_[bucketIndex(seconds)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const double ns = seconds * 1e9;
  if (!(ns > 0.0)) return;  // NaN and non-positive samples add nothing
  // Samples past the int64 nanosecond range (+inf included) saturate
  // instead of overflowing the cast, and so does the running total.
  constexpr std::int64_t kMaxNs = std::numeric_limits<std::int64_t>::max();
  const std::int64_t add = ns < static_cast<double>(kMaxNs)
                               ? static_cast<std::int64_t>(ns)
                               : kMaxNs;
  std::int64_t total = total_ns_.load(std::memory_order_relaxed);
  while (!total_ns_.compare_exchange_weak(
      total, total > kMaxNs - add ? kMaxNs : total + add,
      std::memory_order_relaxed)) {
  }
}

std::uint64_t Histogram::count() const {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::totalSeconds() const {
  return static_cast<double>(total_ns_.load(std::memory_order_relaxed)) *
         1e-9;
}

double Histogram::quantileSeconds(double q) const {
  MFBO_CHECK(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  const std::uint64_t total = count_.load(std::memory_order_relaxed);
  if (total == 0) return 0.0;
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  if (rank < 1) rank = 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i].load(std::memory_order_relaxed);
    if (seen >= rank) return bucketUpperEdge(i);
  }
  return bucketUpperEdge(kBuckets - 1);
}

void Histogram::reset() {
  for (std::size_t i = 0; i < kBuckets; ++i)
    counts_[i].store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  total_ns_.store(0, std::memory_order_relaxed);
}

Json metricsSnapshot(bool include_timers) {
  // Snapshot construction allocates heavily; none of it is workload memory.
  const memstats::PauseScope alloc_pause;
  Json snapshot = Json::object();
  if (include_timers) {
    // The kernel's high-water mark is real-machine state: meaningful for a
    // human, nondeterministic by nature, and therefore only present when
    // the wall-clock fields are.
    snapshot.set("peak_rss_bytes",
                 Json::number(static_cast<double>(memstats::peakRssBytes())));
  }
  if (spans::enabled())
    snapshot.set("spans", spans::snapshot(/*include_timing=*/include_timers));
  return snapshot;
}

}  // namespace telemetry
}  // namespace mfbo
