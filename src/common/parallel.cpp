#include "common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "common/memstats.h"
#include "common/spans.h"

namespace mfbo {
namespace parallel {

namespace {

constexpr std::size_t kNoError = std::numeric_limits<std::size_t>::max();

/// One parallel region. Heap-allocated and shared with the workers so a
/// worker that wakes up late (after the caller has already moved on) only
/// ever touches its own job's state: its index claims come up empty instead
/// of stealing work from a newer region.
struct Job {
  const RangeBody* body = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t chunks_total = 0;
  std::size_t worker_cap = 0;  ///< pool workers allowed in (caller excluded)

  std::atomic<std::size_t> next{0};     ///< next unclaimed index
  std::atomic<std::size_t> entered{0};  ///< workers that joined this job

  std::mutex mu;  ///< guards chunks_done / error / captured_spans below
  std::condition_variable done_cv;
  std::size_t chunks_done = 0;
  std::size_t error_index = kNoError;  ///< begin of lowest-indexed failure
  std::exception_ptr error;
  /// Span trees recorded by pool workers while draining this job; the
  /// calling thread merges them into its open span after the region ends.
  std::vector<spans::SpanNode*> captured_spans;
};

thread_local bool t_in_region = false;

// Health-layer gauges (parallel::poolStats). Relaxed atomics: totals are
// exact, only interleaving is unordered. queue-depth is the unclaimed
// backlog of the one job in flight (regions serialize on region_mu_), so
// a concurrent health scrape sees how much of the current fan-out is
// still waiting.
std::atomic<std::uint64_t> g_regions_total{0};
std::atomic<std::uint64_t> g_pooled_regions{0};
std::atomic<std::uint64_t> g_chunks_total{0};
std::atomic<std::uint64_t> g_queue_remaining{0};

/// Claim and execute chunks of @p job until the index space is exhausted.
/// Exceptions are recorded (lowest begin index wins) and never abort the
/// remaining chunks, so side effects stay deterministic. Returns the number
/// of chunks executed by this thread.
std::size_t drainJob(Job& job) {
  std::size_t executed = 0;
  for (;;) {
    const std::size_t lo =
        job.next.fetch_add(job.grain, std::memory_order_relaxed);
    if (lo >= job.n) return executed;
    g_queue_remaining.fetch_sub(1, std::memory_order_relaxed);
    const std::size_t hi = std::min(job.n, lo + job.grain);
    try {
      (*job.body)(lo, hi);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(job.mu);
      if (lo < job.error_index) {
        job.error_index = lo;
        job.error = std::current_exception();
      }
    }
    ++executed;
    g_chunks_total.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Lazily-started worker pool. Workers park on a condition variable and are
/// handed whole jobs (not individual tasks); index distribution inside a
/// job is a single atomic fetch_add per chunk.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  std::size_t workers() {
    const std::lock_guard<std::mutex> lock(mu_);
    return workers_.size();
  }

  /// Execute @p body over [0, n) with up to @p threads participants
  /// (including the calling thread). Blocks until every chunk completed;
  /// rethrows the lowest-indexed body exception.
  void run(std::size_t n, std::size_t grain, const RangeBody& body,
           std::size_t threads) {
    // Serialize whole regions: two independent caller threads share the
    // pool by taking turns rather than interleaving jobs.
    const std::lock_guard<std::mutex> region(region_mu_);

    std::shared_ptr<Job> job;
    {
      // Pool bookkeeping (job allocation, lazy worker start) is machinery:
      // it only exists at thread counts > 1, so it must stay invisible to
      // the per-span allocation counters for 1-vs-N byte identity.
      const memstats::PauseScope alloc_pause;
      job = std::make_shared<Job>();
      job->body = &body;
      job->n = n;
      job->grain = grain;
      job->chunks_total = (n + grain - 1) / grain;
      job->worker_cap = threads - 1;
      g_pooled_regions.fetch_add(1, std::memory_order_relaxed);
      g_queue_remaining.store(job->chunks_total, std::memory_order_relaxed);

      const std::lock_guard<std::mutex> lock(mu_);
      ensureWorkersLocked(job->worker_cap);
      job_ = job;
      ++generation_;
    }
    work_cv_.notify_all();

    // The caller is a full participant; its share of the region counts as
    // "in parallel" so nested parallelFor calls run inline.
    t_in_region = true;
    const std::size_t executed = drainJob(*job);
    t_in_region = false;

    std::unique_lock<std::mutex> lock(job->mu);
    job->chunks_done += executed;
    job->done_cv.wait(lock,
                      [&] { return job->chunks_done == job->chunks_total; });
    // Take the exception out of the job so it is released on this thread.
    // A worker may drop the last Job reference after the caller's handler
    // has read the exception; freed there, ThreadSanitizer reports a race,
    // as the exception's refcount lives in the uninstrumented C++ runtime.
    const std::exception_ptr error = std::move(job->error);
    std::vector<spans::SpanNode*> captured;
    captured.swap(job->captured_spans);
    lock.unlock();

    // Attribute worker-side spans to this caller's innermost open span.
    // Merge order does not matter: trees aggregate by name and serialize
    // sorted, so the result is identical at any thread count.
    for (spans::SpanNode* tree : captured)
      spans::detail::mergeCapturedTree(tree);

    {
      // Drop the pool's reference so the job dies with the last straggler.
      const std::lock_guard<std::mutex> pool_lock(mu_);
      if (job_ == job) job_.reset();
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& w : workers_) w.join();
  }

  void ensureWorkersLocked(std::size_t wanted) {
    while (workers_.size() < wanted)
      workers_.emplace_back([this] { workerLoop(); });
  }

  void workerLoop() {
    t_in_region = true;  // workers never start nested regions themselves
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      const std::shared_ptr<Job> job = job_;
      lock.unlock();
      if (job != nullptr &&
          job->entered.fetch_add(1, std::memory_order_relaxed) <
              job->worker_cap) {
        // Record this worker's spans and span counters into a private
        // arena handed back to the caller with (and under the same lock as)
        // the completion count, so the caller's done_cv wait covers the
        // hand-off. The caller merges it into its own innermost span — a
        // session's arena when a session submitted the job.
        const spans::detail::WorkerCapture capture =
            spans::detail::beginWorkerCapture();
        const std::size_t executed = drainJob(*job);
        spans::SpanNode* tree = spans::detail::endWorkerCapture(capture);
        bool complete = false;
        {
          // The hand-off vector is pool machinery, not workload memory.
          const memstats::PauseScope alloc_pause;
          const std::lock_guard<std::mutex> job_lock(job->mu);
          if (tree != nullptr) job->captured_spans.push_back(tree);
          job->chunks_done += executed;
          complete = job->chunks_done == job->chunks_total;
        }
        if (complete) job->done_cv.notify_all();
      }
      lock.lock();
    }
  }

  std::mutex region_mu_;  ///< at most one region in flight

  std::mutex mu_;  ///< guards workers_ / job_ / generation_ / stop_
  std::condition_variable work_cv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> job_;
  std::uint64_t generation_ = 0;
  bool stop_ = false;
};

std::atomic<std::size_t> g_thread_override{0};

/// MFBO_THREADS when it parses as a positive integer that fits
/// std::size_t (strict: digits only), otherwise 0.
std::size_t envThreads() {
  // Read once before the pool spins up; nothing in the library calls
  // setenv, so the lookup cannot race a concurrent environment write.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* env = std::getenv("MFBO_THREADS");
  if (env == nullptr || *env == '\0') return 0;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t value = 0;
  for (const char* c = env; *c != '\0'; ++c) {
    if (*c < '0' || *c > '9') return 0;
    const auto digit = static_cast<std::size_t>(*c - '0');
    if (value > (kMax - digit) / 10) return 0;  // would wrap
    value = value * 10 + digit;
  }
  return value;
}

}  // namespace

std::size_t maxThreads() {
  if (const std::size_t n = g_thread_override.load(std::memory_order_relaxed))
    return n;
  if (const std::size_t n = envThreads()) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void setMaxThreads(std::size_t n) {
  // Between regions the override is a plain atomic store re-read at the
  // next region start; from *inside* a region it would be a request to
  // resize the pool mid-flight, which has no coherent meaning — reject it
  // rather than silently apply it to an unpredictable set of regions.
  MFBO_CHECK(!inParallelRegion(),
             "setMaxThreads may not be called from inside a parallel region");
  g_thread_override.store(n, std::memory_order_relaxed);
}

bool inParallelRegion() { return t_in_region; }

std::size_t poolWorkers() { return Pool::instance().workers(); }

PoolStats poolStats() {
  PoolStats stats;
  stats.workers = Pool::instance().workers();
  stats.regions = g_regions_total.load(std::memory_order_relaxed);
  stats.pooled_regions = g_pooled_regions.load(std::memory_order_relaxed);
  stats.chunks = g_chunks_total.load(std::memory_order_relaxed);
  stats.queue_depth = g_queue_remaining.load(std::memory_order_relaxed);
  return stats;
}

void parallelForChunked(std::size_t n, std::size_t grain,
                        const RangeBody& body) {
  if (n == 0) return;
  MFBO_CHECK(grain >= 1, "grain must be >= 1");
  g_regions_total.fetch_add(1, std::memory_order_relaxed);
  const std::size_t threads = maxThreads();
  if (threads <= 1 || n <= grain || t_in_region) {
    // Serial reference path: one call covering the whole range, so
    // per-chunk scratch setup is paid exactly once. It is still a region —
    // the setMaxThreads() rejection contract must not depend on the thread
    // count — so mark it for the body's duration (restoring the prior
    // value: nested regions land here with the flag already set).
    const bool was_in_region = t_in_region;
    t_in_region = true;
    try {
      body(0, n);
    } catch (...) {
      t_in_region = was_in_region;
      throw;
    }
    t_in_region = was_in_region;
    g_chunks_total.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Pool::instance().run(n, grain, body, threads);
}

void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn) {
  parallelForChunked(n, 1, [&fn](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) fn(i);
  });
}

}  // namespace parallel
}  // namespace mfbo
