#include "common/telemetry.h"

#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>

#include "common/check.h"
#include "common/memstats.h"
#include "common/spans.h"

namespace mfbo {
namespace telemetry {

namespace {

/// Name-keyed metric store. std::map keeps snapshots sorted (deterministic
/// artifact output); unique_ptr keeps references stable across rehashing.
/// Lookups and traversals lock: parallel workers resolve get() through the
/// function-local `Metric&` lookups of instrumentation sites.
template <typename Metric>
class Registry {
 public:
  Metric& get(std::string_view name) {
    // First-use metric creation is telemetry overhead; keep it out of the
    // per-span memory attribution (common/memstats.h) so a counter's first
    // bump costs the same "workload memory" as every later one: none.
    const memstats::PauseScope alloc_pause;
    const std::lock_guard<std::mutex> lock(mu_);
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      it = metrics_
               .emplace(std::string(name), std::make_unique<Metric>())
               .first;
    }
    return *it->second;
  }

  void resetAll() {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& entry : metrics_) entry.second->reset();
  }

  template <typename Fn>
  void forEach(Fn&& fn) const {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const auto& entry : metrics_) fn(entry.first, *entry.second);
  }

 private:
  mutable std::mutex mu_;
  // Transparent comparator: lookups by string_view without allocating.
  std::map<std::string, std::unique_ptr<Metric>, std::less<>> metrics_;
};

std::atomic<TraceSink*>& sinkSlot() {
  static std::atomic<TraceSink*> sink{nullptr};
  return sink;
}

/// The calling thread's scoped registry, nullptr meaning globalMetrics().
/// Stored raw (not resolved) so nested scopes restore exactly.
thread_local MetricsRegistry* t_active_registry = nullptr;

}  // namespace

struct MetricsRegistry::Impl {
  Registry<Counter> counters;
  Registry<Gauge> gauges;
  Registry<Histogram> histograms;
};

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
  const std::int64_t clamped =
      ns > 0.0 ? static_cast<std::int64_t>(ns) : 0;
  total_ns_.fetch_add(clamped, std::memory_order_relaxed);
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

MetricsRegistry::MetricsRegistry() {
  // The registry skeleton itself is observability overhead, not workload
  // memory (sessions construct theirs inside instrumented scopes).
  const memstats::PauseScope alloc_pause;
  impl_ = std::make_unique<Impl>();
}

MetricsRegistry::~MetricsRegistry() = default;

Counter& MetricsRegistry::counter(std::string_view name) {
  return impl_->counters.get(name);
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  return impl_->gauges.get(name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  return impl_->histograms.get(name);
}

void MetricsRegistry::reset() {
  impl_->counters.resetAll();
  impl_->gauges.resetAll();
  impl_->histograms.resetAll();
}

Json MetricsRegistry::metricsJson(bool include_timers) const {
  // Snapshot construction allocates heavily; none of it is workload memory.
  const memstats::PauseScope alloc_pause;
  Json snapshot = Json::object();
  Json counter_obj = Json::object();
  impl_->counters.forEach([&](const std::string& name, const Counter& c) {
    counter_obj.set(name, Json::number(static_cast<double>(c.value())));
  });
  Json gauge_obj = Json::object();
  impl_->gauges.forEach([&](const std::string& name, const Gauge& g) {
    gauge_obj.set(name, Json::number(g.value()));
  });
  snapshot.set("counters", std::move(counter_obj));
  snapshot.set("gauges", std::move(gauge_obj));
  if (include_timers) {
    Json histogram_obj = Json::object();
    impl_->histograms.forEach(
        [&](const std::string& name, const Histogram& h) {
          Json entry = Json::object();
          entry.set("count", Json::number(static_cast<double>(h.count())));
          entry.set("total_s", Json::number(h.totalSeconds()));
          entry.set("p50_s", Json::number(h.quantileSeconds(0.50)));
          entry.set("p90_s", Json::number(h.quantileSeconds(0.90)));
          entry.set("p99_s", Json::number(h.quantileSeconds(0.99)));
          histogram_obj.set(name, std::move(entry));
        });
    snapshot.set("histograms", std::move(histogram_obj));
  }
  return snapshot;
}

MetricsRegistry& globalMetrics() {
  static MetricsRegistry registry;
  return registry;
}

TelemetryScope::TelemetryScope(MetricsRegistry& registry)
    : previous_(detail::exchangeActiveRegistry(&registry)) {}

TelemetryScope::~TelemetryScope() {
  detail::exchangeActiveRegistry(previous_);
}

namespace detail {

MetricsRegistry* activeRegistry() {
  return t_active_registry != nullptr ? t_active_registry : &globalMetrics();
}

// mfbo-lint: allow(C001) — nullptr is the documented "back to global" value
MetricsRegistry* exchangeActiveRegistry(MetricsRegistry* registry) {
  MetricsRegistry* previous = t_active_registry;
  t_active_registry = registry;
  return previous;
}

}  // namespace detail

Counter& counter(std::string_view name) {
  return detail::activeRegistry()->counter(name);
}
Gauge& gauge(std::string_view name) {
  return detail::activeRegistry()->gauge(name);
}
Histogram& histogram(std::string_view name) {
  return detail::activeRegistry()->histogram(name);
}

Json metricsSnapshot(bool include_timers) {
  // Snapshot construction allocates heavily; none of it is workload memory.
  const memstats::PauseScope alloc_pause;
  Json snapshot = detail::activeRegistry()->metricsJson(include_timers);
  if (include_timers) {
    // The kernel's high-water mark, like the histograms, is real-machine
    // state: meaningful for a human, nondeterministic by nature, and
    // therefore only present when the wall-clock sections are.
    snapshot.set("peak_rss_bytes",
                 Json::number(static_cast<double>(memstats::peakRssBytes())));
  }
  if (spans::enabled())
    snapshot.set("spans", spans::snapshot(/*include_timing=*/include_timers));
  return snapshot;
}

void resetMetrics() { detail::activeRegistry()->reset(); }

TraceWriter::TraceWriter(const std::string& path)
    : stream_(std::fopen(path.c_str(), "w")), owns_stream_(true) {
  if (stream_ == nullptr)
    throw std::runtime_error("TraceWriter: cannot open '" + path +
                             "' for writing");
}

TraceWriter::TraceWriter(std::FILE* stream) : stream_(stream) {
  MFBO_CHECK(stream_ != nullptr, "null trace stream");
}

TraceWriter::~TraceWriter() {
  if (owns_stream_ && stream_ != nullptr) std::fclose(stream_);
}

void TraceWriter::write(const Json& event) {
  const std::string line = event.dump();
  const std::lock_guard<std::mutex> lock(mu_);
  // Detect short writes and flush failures (ENOSPC, closed pipe, ...): a
  // dropped event must not count as written, and the operator gets exactly
  // one stderr warning per writer instead of a silent hole in the trace.
  const bool ok =
      std::fwrite(line.data(), 1, line.size(), stream_) == line.size() &&
      std::fputc('\n', stream_) != EOF && std::fflush(stream_) == 0;
  if (ok) {
    ++events_written_;
    return;
  }
  ++write_errors_;
  // Trace plumbing is process infrastructure, not session workload: the
  // error count belongs to the global registry no matter which session's
  // scope happens to be active on the failing thread.
  globalMetrics().counter("telemetry.trace_write_errors").add();
  if (!warned_) {
    warned_ = true;
    std::fprintf(stderr,
                 "mfbo: warning: trace write failed; further events on this "
                 "sink may be lost (see telemetry.trace_write_errors)\n");
  }
  std::clearerr(stream_);
}

std::uint64_t TraceWriter::eventsWritten() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_written_;
}

std::uint64_t TraceWriter::writeErrors() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return write_errors_;
}

void setTraceSink(TraceSink* sink) {
  sinkSlot().store(sink, std::memory_order_release);
}

TraceSink* traceSink() {
  return sinkSlot().load(std::memory_order_acquire);
}

bool traceEnabled() {
  return sinkSlot().load(std::memory_order_acquire) != nullptr;
}

void emitTrace(const Json& event) {
  if (TraceSink* sink = sinkSlot().load(std::memory_order_acquire))
    sink->write(event);
}

}  // namespace telemetry
}  // namespace mfbo
