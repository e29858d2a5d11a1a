// mfbo — telemetry: latency histograms, the artifact metrics snapshot, and
// structured tracing.
//
// The BO loop makes every interesting decision silently — the eq. (11)/(12)
// fidelity choice, MSP restart outcomes, first-feasible switching, Cholesky
// jitter retries — which makes table-level discrepancies against the paper
// impossible to diagnose without a debugger. Counting those events is the
// span profiler's job (common/spans.h): every library counter is a span
// counter attributed to the innermost open span, so it is scoped per
// session and merged across pool workers by the same machinery as the span
// tree, and it is recorded only while the profiler is on. This header
// provides the rest:
//
//   * Histogram — a fixed-bucket latency histogram for the service health
//     layer's SLO quantiles, fed by ScopedLatency and kept as a plain
//     member by its owner (service/session.h).
//   * metricsSnapshot() — the `"metrics"` section of the bench `--out`
//     artifacts and session artifacts: the process peak RSS when timed and
//     the calling thread's span tree when the profiler is on.
//   * Tracing — structured events (JSON objects) routed to an installable
//     TraceSink. The default sink is null: `traceEnabled()` is a single
//     pointer test, and every emission site guards event construction behind
//     it, so an untraced run does no formatting work and produces no output.
//     TraceWriter is the JSONL file sink (one event per line, flushed);
//     CollectingTraceSink buffers events in memory for tests and embedders.
//
// Histogram updates are relaxed atomics, safe from any thread. Trace sinks
// remain single-writer by contract — events are emitted only from the
// serial sections of the synthesis loops — except TraceWriter, which locks
// per line so embedders tracing from their own threads get whole-line
// interleaving.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"

namespace mfbo {
namespace telemetry {

/// Fixed-bucket log-scale latency histogram for the service health layer
/// (src/service/health.h). It answers the operator's SLO question — p50/
/// p90/p99 over an unbounded stream — with *bucket-exact* quantiles at a
/// fixed resolution of kBucketsPerDecade buckets per decade over
/// [100ns, 1000s], plus an underflow and an overflow bucket. record() is
/// lock-free (relaxed atomics, no allocation ever), so it is safe on every
/// hot path and readable mid-flight by a health scrape. Quantiles report the
/// upper edge of the covering bucket: deterministic for fixed counts, never
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
  /// underflow bucket and add nothing to the total; the total saturates
  /// rather than overflow, so +inf or an absurdly long sample keeps
  /// totalSeconds() finite and non-negative. Lock-free; never allocates.
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

/// The artifact "metrics" section:
/// {"peak_rss_bytes":..., "spans":{...}}.
/// peak_rss_bytes (common/memstats.h) is present only with include_timers —
/// it is real-machine state, nondeterministic by nature. When the span
/// profiler is enabled (common/spans.h) the calling thread's span tree —
/// the installed session arena under an ArenaScope — is appended under
/// "spans", with its total_s/self_s fields only when include_timers is set.
/// Span counts, span counters and the per-span allocation counters are
/// deterministic for a fixed seed at any thread count, so the
/// include_timers=false snapshot is byte-reproducible (the bench
/// --no-timing artifacts rely on this).
Json metricsSnapshot(bool include_timers = true);

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
/// Write failures (ENOSPC, closed pipe, ...) are not silent: writeErrors()
/// counts every dropped event and the first failure per writer prints one
/// stderr warning; eventsWritten() counts only events that reached the
/// stream in full.
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
