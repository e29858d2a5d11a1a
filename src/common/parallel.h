// mfbo — deterministic parallel execution layer.
//
// The reproduction's hot loops — MSP multi-start acquisition optimization
// (§4.1), GP hyperparameter training restarts (§2.2), the Monte-Carlo
// integration of the low-fidelity posterior (eq. 10), and per-repeat bench
// runs — are embarrassingly parallel: every task is an independent pure
// computation whose inputs are fixed before the loop starts. This header
// provides the one primitive they all share, a lazily-initialized
// process-wide thread pool with *deterministic* semantics:
//
//   * Slot-indexed results. parallelFor/parallelMap write each task's output
//     into a pre-sized slot keyed by its index; callers reduce (argmin,
//     accumulate) serially in index order afterwards. Because every task's
//     floating-point work is independent and the reduction order is fixed,
//     results are byte-identical at 1 thread and N threads.
//   * No shared RNG. Parallel bodies must not draw from a shared generator;
//     call sites either pre-draw their streams serially (NARGP's common
//     random numbers, the GP restart start list) or derive a per-index
//     stream with linalg::Rng::split(i).
//   * Ordered exception propagation. When bodies throw, every task still
//     runs (side effects stay deterministic) and the exception from the
//     lowest-indexed failing range is rethrown on the calling thread.
//   * Nested calls run serially. A parallelFor issued from inside a worker
//     (or from the caller's share of an active region) executes inline on
//     the current thread, so composed parallel code cannot deadlock or
//     oversubscribe.
//   * Span capture. Every worker records the spans and span counters of
//     the bodies it runs into a private arena that the calling thread
//     merges into its innermost open span at region end, so counters
//     bumped inside parallel bodies land where the serial path would put
//     them — in the submitting session's arena, even though the pool
//     threads are shared by all sessions (common/spans.h).
//
// Thread count resolution, per region: setMaxThreads(n) override (the bench
// --threads flag) > the MFBO_THREADS environment variable > hardware
// concurrency. A count of 1 bypasses the pool entirely — the serial
// reference path that the determinism tests compare against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

namespace mfbo {
namespace parallel {

/// Body over a half-open index range [begin, end).
using RangeBody = std::function<void(std::size_t, std::size_t)>;

/// Threads a new parallel region may use (>= 1): the setMaxThreads override
/// when set, else a valid positive MFBO_THREADS value, else
/// hardware_concurrency (1 when unknown). Re-resolved per call, so tests
/// can flip the environment variable between regions.
std::size_t maxThreads();

/// Override the thread count for subsequent regions; 0 restores automatic
/// resolution (MFBO_THREADS / hardware). The count is re-resolved at every
/// region start, so calling this *between* regions — even while other
/// sessions are mid-run — is safe and takes effect at the next region.
/// Calling it from inside a parallel region (a pool worker or a parallelFor
/// body) is rejected with ContractViolation: a region resizing the pool
/// that is executing it has no coherent meaning.
void setMaxThreads(std::size_t n);

/// True on a pool worker, or on the caller while it executes its share of
/// an active region. parallelFor uses this to run nested regions serially.
bool inParallelRegion();

/// Number of pool workers currently alive (0 until the first region that
/// actually needs the pool; lifecycle observability for tests).
std::size_t poolWorkers();

/// Point-in-time pool gauges for the service health layer
/// (src/service/health.h). regions/chunks are cumulative totals since
/// process start; queue_depth is the unclaimed-chunk backlog of the job
/// in flight right now (0 between regions — the interesting reads come
/// from a concurrent scrape or a crash dump). regions and chunks are
/// deterministic for a fixed workload; pooled_regions and workers depend
/// on the thread count, which is why they live here and not in an
/// artifact.
struct PoolStats {
  std::size_t workers = 0;          ///< pool threads currently alive
  std::uint64_t regions = 0;        ///< parallel regions entered (any path)
  std::uint64_t pooled_regions = 0; ///< regions dispatched to the pool
  std::uint64_t chunks = 0;         ///< chunks executed across all regions
  std::uint64_t queue_depth = 0;    ///< unclaimed chunks of the live job
};
PoolStats poolStats();

/// Run body(lo, hi) over [0, n) split into chunks of at most @p grain
/// indices, distributed dynamically over maxThreads() threads (the caller
/// participates). Chunk *assignment* to threads is nondeterministic; the
/// work done per index is not, so slot-indexed outputs are deterministic.
/// Serial (1 thread, nested, or n <= grain) runs body(0, n) in one call —
/// per-chunk setup such as scratch buffers is paid once on that path.
void parallelForChunked(std::size_t n, std::size_t grain,
                        const RangeBody& body);

/// Run fn(i) for every i in [0, n), one index per task.
void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

/// Evaluate fn(i) for every i in [0, n) and return the results in index
/// order. The element type must be default-constructible (slots are
/// pre-sized) and move-assignable.
template <typename Fn>
// mfbo-lint: allow(C001) — any n is a valid task count; out(n) is the deal
auto parallelMap(std::size_t n, Fn&& fn)
    -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
  std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> out(n);
  parallelFor(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace parallel
}  // namespace mfbo
