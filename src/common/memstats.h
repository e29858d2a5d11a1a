// mfbo — per-thread allocation accounting and process memory statistics.
//
// The span profiler (common/spans.h) answers "where did the time go"; this
// header answers "what did it allocate". A replaced global operator
// new/delete (defined in memstats.cpp, linked process-wide through
// mfbo_common) bumps thread-local counters on every allocation, and
// ScopedSpan snapshots those counters at each span boundary so every span
// node gains deterministic `alloc_count` / `alloc_bytes` counters —
// aggregated and thread-merged exactly like the existing span counters, so
// the values are byte-identical at 1 and N threads for a fixed seed.
//
// Hook contract (see DESIGN.md for the full rationale):
//   * The hook never allocates, never locks, and touches only trivially-
//     destructible thread-local integers — safe from any context the
//     replaced operators can legally run in, including static
//     initialization, thread start/teardown, and (re-entrantly) from the
//     allocator the observability layer itself uses.
//   * Accounting is suppressible per thread via PauseScope. The
//     observability machinery (span arenas, artifact snapshots, the pool,
//     the timeline recorder) wraps its own allocations in a PauseScope so
//     instrumentation overhead never shows up as workload memory — the one
//     property that keeps the counters identical across thread counts.
//   * Under ASan/TSan the hook forwards to malloc/free, which the
//     sanitizers intercept; poisoning, leak checking, and race detection
//     keep working unchanged.
//
// peakRssBytes() reads the kernel-maintained process high-water mark
// (getrusage ru_maxrss). It is machine- and run-dependent by nature, so
// telemetry::metricsSnapshot() surfaces it only alongside the span wall
// times, never in the deterministic --no-timing artifact fields.
#pragma once

#include <cstddef>
#include <cstdint>

namespace mfbo {
namespace memstats {

/// Monotonic per-thread allocation totals since thread start. Counts the
/// requests the program made (sizes as passed to operator new), not
/// allocator-internal overhead, so the values are a property of the code
/// path, not of the malloc implementation.
struct ThreadCounters {
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t free_count = 0;
};

/// Snapshot of the calling thread's counters.
ThreadCounters threadCounters();

/// True while the calling thread's accounting is suppressed.
bool paused();

/// RAII accounting suppression for the calling thread (nestable). Used by
/// the observability layer around its own allocations so instrumentation
/// cost is invisible to the workload counters.
class PauseScope {
 public:
  PauseScope();
  PauseScope(const PauseScope&) = delete;
  PauseScope& operator=(const PauseScope&) = delete;
  ~PauseScope();
};

/// Process peak resident set size in bytes (kernel high-water mark via
/// getrusage), 0 where unsupported. Nondeterministic by nature; excluded
/// from the deterministic artifact fields.
std::uint64_t peakRssBytes();

namespace detail {

/// Called by the replaced global operator new/delete. No-ops while the
/// calling thread is paused.
void noteAlloc(std::size_t size);
void noteFree();

}  // namespace detail

}  // namespace memstats
}  // namespace mfbo
