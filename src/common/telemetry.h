// mfbo — telemetry: scoped metrics registries and structured tracing.
//
// The BO loop makes every interesting decision silently — the eq. (11)/(12)
// fidelity choice, MSP restart outcomes, first-feasible switching, Cholesky
// jitter retries — which makes table-level discrepancies against the paper
// impossible to diagnose without a debugger. This header provides the two
// observability primitives the rest of the library hooks into:
//
//   * Metrics — named monotonic Counters, Gauges, and latency Histograms in
//     a MetricsRegistry. There is one process-wide default registry
//     (globalMetrics()); a TelemetryScope temporarily points the calling
//     thread's free counter()/gauge()/histogram() lookups at a private registry
//     instead, which is how the session layer (src/service) keeps N
//     concurrent engines from interleaving their counters in one shared
//     store. Instrumentation sites look their metric up once per *call*
//     (a function-local reference), never once per *process*: a cached
//     `static Metric&` would pin whichever registry happened to be active
//     at first touch forever, which is exactly the cross-session
//     interleaving bug the scoping exists to fix (lint rule D005 rejects
//     the static form). `metricsSnapshot()` serializes the active registry
//     to JSON for the bench `--out` artifacts; `resetMetrics()` zeroes its
//     values (references stay valid) so tests and repeated bench runs can
//     isolate measurements.
//
//   * Tracing — structured events (JSON objects) routed to an installable
//     TraceSink. The default sink is null: `traceEnabled()` is a single
//     pointer test, and every emission site guards event construction behind
//     it, so an untraced run does no formatting work and produces no output.
//     TraceWriter is the JSONL file sink (one event per line, flushed);
//     CollectingTraceSink buffers events in memory for tests and embedders.
//
// The metrics side is thread-safe: instrumented sites run inside the
// deterministic parallel regions of common/parallel.h, so counter, gauge
// and histogram updates are relaxed atomics, and registry lookups are
// mutex-protected (references stay stable and valid forever). Where a
// phase's wall time matters, the span profiler (common/spans.h) measures
// it.
// Trace sinks remain single-writer by contract — events are emitted only
// from the serial sections of the synthesis loops — except TraceWriter,
// which locks per line so embedders tracing from their own threads get
// whole-line interleaving.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"

namespace mfbo {
namespace telemetry {

/// Monotonic event counter. add() is a relaxed atomic: totals are exact at
/// any thread count, only the interleaving is unordered.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value-wins instantaneous metric (atomic store/load).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket log-scale latency histogram for the service health layer
/// (src/service/health.h). It answers the operator's SLO question — p50/
/// p90/p99 over an unbounded stream — with *bucket-exact* quantiles at a
/// fixed resolution of kBucketsPerDecade buckets per decade over
/// [100ns, 1000s], plus an underflow and an overflow bucket. record() is
/// lock-free (three relaxed atomic bumps, no allocation ever), so it is
/// safe on every hot path and readable mid-flight by a health scrape. Quantiles report the upper
/// edge of the covering bucket: deterministic for fixed counts, never
/// underestimates the tail.
class Histogram {
 public:
  static constexpr std::size_t kBucketsPerDecade = 5;
  static constexpr int kMinExponent = -7;  ///< first edge: 1e-7 s (100 ns)
  static constexpr int kMaxExponent = 3;   ///< last edge: 1e3 s
  /// Log-spaced buckets plus underflow (index 0) and overflow (last).
  static constexpr std::size_t kBuckets =
      kBucketsPerDecade *
          static_cast<std::size_t>(kMaxExponent - kMinExponent) +
      2;

  /// Count one observation. Negative and NaN values clamp into the
  /// underflow bucket. Lock-free; never allocates.
  void record(double seconds);
  std::uint64_t count() const;
  double totalSeconds() const;
  /// Upper bucket edge covering the nearest-rank quantile; q in [0, 1].
  /// 0 when nothing was recorded; overflow reports the last finite edge.
  double quantileSeconds(double q) const;
  void reset();

 private:
  static std::size_t bucketIndex(double seconds);
  static double bucketUpperEdge(std::size_t index);

  std::atomic<std::uint64_t> counts_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> total_ns_{0};
};

/// An isolated named-metric store. Lookups create the metric on first use
/// and return references that stay valid for the registry's lifetime
/// (reset() zeroes values without invalidating references). The process has
/// one default instance — globalMetrics() — backing the free
/// counter()/gauge()/histogram() functions; the session layer gives every
/// concurrent optimization run a private instance via TelemetryScope so
/// snapshots never mix two runs' counters.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Zero every registered metric (references stay valid).
  void reset();

  /// Serialize this registry's metrics, sorted by name:
  /// {"counters":{...},"gauges":{...},
  ///  "histograms":{name:{count,total_s,p50_s,p90_s,p99_s}}}.
  /// With include_timers=false the wall-clock "histograms" section is
  /// omitted; counters and gauges are deterministic for a
  /// fixed seed at any thread count, so the remaining document is
  /// byte-reproducible.
  Json metricsJson(bool include_timers) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The process-wide default registry: what counter()/gauge()/histogram()
/// resolve against when no TelemetryScope is active on the calling thread.
MetricsRegistry& globalMetrics();

/// RAII registry scoping: while alive, the constructing thread's free
/// counter()/gauge()/histogram()/metricsSnapshot()/resetMetrics() calls resolve
/// against @p registry instead of globalMetrics(). Scopes nest (restore the
/// previous registry on destruction) and are thread-local — the parallel
/// pool propagates the active registry into its workers per region, so
/// instrumentation inside parallelFor bodies lands in the scoping session's
/// registry too (common/parallel.cpp). The registry is borrowed, not owned:
/// it must outlive the scope and every reference handed out through it.
class TelemetryScope {
 public:
  explicit TelemetryScope(MetricsRegistry& registry);
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;
  ~TelemetryScope();

 private:
  MetricsRegistry* previous_;
};

namespace detail {
/// Registry the calling thread currently resolves metrics against:
/// the innermost TelemetryScope's registry, or globalMetrics() without one.
/// The parallel pool captures this at region submission and installs it on
/// its workers for the duration of the region (common/parallel.cpp).
MetricsRegistry* activeRegistry();
/// Install @p registry (nullptr = back to globalMetrics()) as the calling
/// thread's active registry; returns the previous raw slot value for
/// restoration. Used by TelemetryScope and the pool workers only.
MetricsRegistry* exchangeActiveRegistry(MetricsRegistry* registry);
}  // namespace detail

/// Lookup in the calling thread's active registry; creates the metric on
/// first use. The reference stays valid for the registry's lifetime, so a
/// call site that bumps in a loop hoists the lookup into a *function-local*
/// reference:
///
///   telemetry::Counter& retries =
///       telemetry::counter("linalg.cholesky.jitter_retries");
///   retries.add();
///
/// Never cache the reference in a `static` — that pins whichever registry
/// was active at first call for the process lifetime, silently routing
/// later sessions' metrics into the wrong store (lint rule D005).
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Serialize the active registry (MetricsRegistry::metricsJson) and append
/// process-level observability state:
/// {"counters":{...},"gauges":{...},
///  "histograms":{name:{count,total_s,p50_s,p90_s,p99_s}},
///  "peak_rss_bytes":...}.
/// When the span profiler is enabled (common/spans.h) the calling thread's
/// span tree is appended under a "spans" key. With include_timers=false the
/// wall-clock "histograms" section and the nondeterministic process peak-RSS
/// sample (common/memstats.h) are omitted and the span tree drops its
/// total_s/self_s fields — counters, gauges, span counts, and the per-span
/// allocation counters are deterministic for a fixed seed at any thread
/// count, so the remaining snapshot is byte-reproducible (the bench
/// --no-timing artifacts rely on this).
Json metricsSnapshot(bool include_timers = true);

/// Zero every metric in the active registry (references stay valid).
void resetMetrics();

/// RAII wall-clock latency sample recording into a Histogram on
/// destruction.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& h)
      : histogram_(h), start_(std::chrono::steady_clock::now()) {}
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_.record(std::chrono::duration<double>(elapsed).count());
  }

 private:
  Histogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Destination for structured trace events.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void write(const Json& event) = 0;
};

/// JSONL file sink: one compact JSON object per line, flushed per event so
/// a crashed run still leaves a readable trace prefix. write() locks per
/// event, so concurrent writers interleave whole lines, never fragments.
/// Write failures (ENOSPC, closed pipe, ...) are not silent: a failed event
/// bumps the "telemetry.trace_write_errors" counter and the first failure
/// per writer prints one stderr warning; eventsWritten() counts only events
/// that reached the stream in full.
class TraceWriter final : public TraceSink {
 public:
  /// Opens (truncates) @p path; throws std::runtime_error on failure.
  explicit TraceWriter(const std::string& path);
  /// Adopts an already-open stream (not closed on destruction); used to
  /// trace to stderr or a pipe.
  explicit TraceWriter(std::FILE* stream);
  ~TraceWriter() override;
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void write(const Json& event) override;
  /// Events fully written and flushed to the stream.
  std::uint64_t eventsWritten() const;
  /// Events dropped (partially written or unflushed) because the stream
  /// reported an error.
  std::uint64_t writeErrors() const;

 private:
  mutable std::mutex mu_;
  std::FILE* stream_ = nullptr;
  bool owns_stream_ = false;
  bool warned_ = false;
  std::uint64_t events_written_ = 0;
  std::uint64_t write_errors_ = 0;
};

/// In-memory sink for tests and embedders that post-process events.
/// Single-writer by the trace-emission contract (events come from the
/// serial sections of the synthesis loops, never from parallel workers).
class CollectingTraceSink final : public TraceSink {
 public:
  void write(const Json& event) override { events.push_back(event); }
  std::vector<Json> events;
};

/// Install (or, with nullptr, remove) the process-wide trace sink. The sink
/// is borrowed, not owned; the caller keeps it alive while installed.
void setTraceSink(TraceSink* sink);
TraceSink* traceSink();

/// True when a sink is installed. Emission sites use this to skip event
/// construction entirely on untraced runs.
bool traceEnabled();

/// Route an event to the installed sink; no-op without one.
void emitTrace(const Json& event);

/// RAII sink installation for scoped tracing (tests, bench runs): installs
/// @p sink on construction, restores the previous sink on destruction.
class ScopedTraceSink {
 public:
  explicit ScopedTraceSink(TraceSink* sink) : previous_(traceSink()) {
    setTraceSink(sink);
  }
  ScopedTraceSink(const ScopedTraceSink&) = delete;
  ScopedTraceSink& operator=(const ScopedTraceSink&) = delete;
  ~ScopedTraceSink() { setTraceSink(previous_); }

 private:
  TraceSink* previous_;
};

}  // namespace telemetry
}  // namespace mfbo
