// Thread-race battery for the deterministic parallel execution layer:
// pool lifecycle, index coverage, ordered exception propagation, nested
// regions, env-variable thread resolution, serial equivalence, span-counter
// hammering, and the Rng::split per-index stream contract.
//
// Every test restores the automatic thread resolution (setMaxThreads(0))
// on exit so tests stay order-independent; these tests are also the
// primary target of the tsan preset.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/spans.h"
#include "linalg/rng.h"

namespace {

using namespace mfbo;

/// RAII thread-count override so a failing ASSERT cannot leak the setting
/// into later tests.
struct ScopedThreads {
  explicit ScopedThreads(std::size_t n) { parallel::setMaxThreads(n); }
  ~ScopedThreads() { parallel::setMaxThreads(0); }
};

/// RAII environment variable (re)setter.
struct ScopedEnv {
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_, old_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_ = false;
  std::string old_;
};

/// RAII profiler switch: a fresh, enabled span tree for the test, discarded
/// (and the profiler switched off) on exit.
struct ScopedProfiler {
  ScopedProfiler() {
    spans::reset();
    spans::setEnabled(true);
  }
  ~ScopedProfiler() {
    spans::setEnabled(false);
    spans::reset();
  }
};

// --- thread-count resolution --------------------------------------------

TEST(MaxThreads, OverrideBeatsEnvironment) {
  const ScopedEnv env("MFBO_THREADS", "3");
  const ScopedThreads threads(5);
  EXPECT_EQ(parallel::maxThreads(), 5u);
}

TEST(MaxThreads, EnvironmentVariableIsHonored) {
  const ScopedThreads reset(0);  // make sure no override is active
  const ScopedEnv env("MFBO_THREADS", "7");
  EXPECT_EQ(parallel::maxThreads(), 7u);
}

TEST(MaxThreads, MalformedEnvironmentFallsBackToHardware) {
  const ScopedThreads reset(0);
  // mfbo-lint: allow(D004) — mirrors maxThreads()'s hardware fallback
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t expected = hw > 0 ? hw : 1;
  {
    const ScopedEnv env("MFBO_THREADS", "4x");
    EXPECT_EQ(parallel::maxThreads(), expected);
  }
  {
    const ScopedEnv env("MFBO_THREADS", "-2");
    EXPECT_EQ(parallel::maxThreads(), expected);
  }
  {
    const ScopedEnv env("MFBO_THREADS", "");
    EXPECT_EQ(parallel::maxThreads(), expected);
  }
  // Past std::size_t, an unchecked digit-by-digit parse wraps: the first
  // to 7766279631452241920 threads, the second (2^64 + 1) to 1.
  {
    const ScopedEnv env("MFBO_THREADS", "100000000000000000000");
    EXPECT_EQ(parallel::maxThreads(), expected);
  }
  {
    const ScopedEnv env("MFBO_THREADS", "18446744073709551617");
    EXPECT_EQ(parallel::maxThreads(), expected);
  }
  {
    const ScopedEnv env("MFBO_THREADS", nullptr);
    EXPECT_EQ(parallel::maxThreads(), expected);
  }
}

TEST(MaxThreads, ReconfigurationInsideAParallelRegionIsRejected) {
  // Pool reconfiguration racing in-flight work has no sane semantics:
  // setMaxThreads() from inside a region is a ContractViolation (thrown in
  // the offending task, propagated by the region like any task failure),
  // and the override in force stays untouched.
  const ScopedThreads threads(2);
  EXPECT_THROW(parallel::parallelFor(
                   8, [](std::size_t) { parallel::setMaxThreads(3); }),
               ContractViolation);
  EXPECT_EQ(parallel::maxThreads(), 2u);

  // Between regions the same call is legal and takes effect at the next
  // region — the only supported reconfiguration point.
  parallel::setMaxThreads(4);
  EXPECT_EQ(parallel::maxThreads(), 4u);
  std::atomic<std::size_t> visited{0};
  parallel::parallelFor(64, [&](std::size_t) { visited.fetch_add(1); });
  EXPECT_EQ(visited.load(), 64u) << "pool unusable after rejected call";
}

TEST(MaxThreads, SerialRegionAlsoRejectsReconfiguration) {
  // The serial fast path (one thread, caller-inlined) is still "inside a
  // region": allowing the call there would make the contract depend on the
  // thread count.
  const ScopedThreads threads(1);
  EXPECT_THROW(parallel::parallelFor(
                   4, [](std::size_t) { parallel::setMaxThreads(2); }),
               ContractViolation);
  EXPECT_EQ(parallel::maxThreads(), 1u);
}

TEST(MaxThreads, ZeroRestoresAutomaticResolution) {
  const ScopedEnv env("MFBO_THREADS", "2");
  parallel::setMaxThreads(9);
  EXPECT_EQ(parallel::maxThreads(), 9u);
  parallel::setMaxThreads(0);
  EXPECT_EQ(parallel::maxThreads(), 2u);
}

// --- pool lifecycle ------------------------------------------------------

TEST(PoolLifecycle, WorkersSpawnLazilyAndPersist) {
  // gtest_discover_tests runs each test in its own process, so no region
  // can have run before this one.
  const ScopedEnv env("MFBO_THREADS", nullptr);
  {
    const ScopedThreads threads(1);
    parallel::parallelFor(64, [](std::size_t) {});
    EXPECT_EQ(parallel::poolWorkers(), 0u)
        << "serial path must not start the pool";
  }
  {
    const ScopedThreads threads(4);
    parallel::parallelFor(64, [](std::size_t) {});
    EXPECT_EQ(parallel::poolWorkers(), 3u)
        << "4-thread region = caller + 3 pool workers";
    // A narrower region must not shrink the pool...
    parallel::setMaxThreads(2);
    parallel::parallelFor(64, [](std::size_t) {});
    EXPECT_EQ(parallel::poolWorkers(), 3u);
    // ...and a wider one grows it.
    parallel::setMaxThreads(6);
    parallel::parallelFor(64, [](std::size_t) {});
    EXPECT_EQ(parallel::poolWorkers(), 5u);
  }
}

// --- coverage ------------------------------------------------------------

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const ScopedThreads threads(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> visits(kN);
  parallel::parallelFor(kN, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, ZeroIterationsIsANoOp) {
  const ScopedThreads threads(4);
  bool called = false;
  parallel::parallelFor(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForChunked, ChunksTileTheRange) {
  const ScopedThreads threads(4);
  constexpr std::size_t kN = 1001;  // deliberately not a multiple of grain
  std::vector<std::atomic<int>> visits(kN);
  std::atomic<std::size_t> max_chunk{0};
  parallel::parallelForChunked(kN, 16, [&](std::size_t lo, std::size_t hi) {
    ASSERT_LT(lo, hi);
    ASSERT_LE(hi, kN);
    std::size_t seen = max_chunk.load();
    while (hi - lo > seen && !max_chunk.compare_exchange_weak(seen, hi - lo)) {
    }
    for (std::size_t i = lo; i < hi; ++i)
      visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
  EXPECT_LE(max_chunk.load(), 16u);
}

TEST(ParallelMap, ReturnsResultsInIndexOrder) {
  const ScopedThreads threads(4);
  const std::vector<std::size_t> out =
      parallel::parallelMap(257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i * i);
}

// --- exception propagation ----------------------------------------------

TEST(ParallelExceptions, LowestIndexExceptionWinsAndAllTasksRun) {
  const ScopedThreads threads(4);
  constexpr std::size_t kN = 500;
  std::vector<std::atomic<int>> visits(kN);
  try {
    parallel::parallelFor(kN, [&](std::size_t i) {
      visits[i].fetch_add(1, std::memory_order_relaxed);
      if (i == 17 || i == 80 || i == 333)
        throw std::runtime_error("boom at " + std::to_string(i));
    });
    FAIL() << "expected the body exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 17")
        << "must deterministically rethrow the lowest-indexed failure";
  }
  // A failing chunk must not cancel the rest of the region — side effects
  // stay identical to the serial reference.
  for (std::size_t i = 0; i < kN; ++i)
    ASSERT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ParallelExceptions, SerialPathPropagatesToo) {
  const ScopedThreads threads(1);
  EXPECT_THROW(parallel::parallelFor(
                   10, [](std::size_t i) {
                     if (i == 3) throw std::invalid_argument("serial boom");
                   }),
               std::invalid_argument);
}

TEST(ParallelExceptions, PoolSurvivesAThrowingRegion) {
  const ScopedThreads threads(4);
  EXPECT_THROW(parallel::parallelFor(
                   100, [](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  // The next region must run normally on the same pool.
  std::atomic<std::size_t> count{0};
  parallel::parallelFor(100, [&](std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100u);
}

// --- nesting -------------------------------------------------------------

TEST(NestedParallel, InnerRegionsRunInlineWithFullCoverage) {
  const ScopedThreads threads(4);
  constexpr std::size_t kOuter = 24;
  constexpr std::size_t kInner = 100;
  EXPECT_FALSE(parallel::inParallelRegion());
  std::vector<std::atomic<int>> visits(kOuter * kInner);
  parallel::parallelFor(kOuter, [&](std::size_t o) {
    EXPECT_TRUE(parallel::inParallelRegion());
    parallel::parallelFor(kInner, [&](std::size_t i) {
      visits[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_FALSE(parallel::inParallelRegion());
  for (std::size_t i = 0; i < visits.size(); ++i)
    ASSERT_EQ(visits[i].load(), 1) << "slot " << i;
}

TEST(NestedParallel, NestedMapMatchesFlatComputation) {
  const ScopedThreads threads(4);
  const std::vector<double> out = parallel::parallelMap(16, [](std::size_t o) {
    const std::vector<double> inner = parallel::parallelMap(
        64, [o](std::size_t i) { return std::sin(0.01 * (o * 64.0 + i)); });
    return std::accumulate(inner.begin(), inner.end(), 0.0);
  });
  for (std::size_t o = 0; o < 16; ++o) {
    double expect = 0.0;
    for (std::size_t i = 0; i < 64; ++i)
      expect += std::sin(0.01 * (o * 64.0 + i));
    ASSERT_EQ(out[o], expect) << "outer " << o;
  }
}

// --- serial equivalence --------------------------------------------------

/// A deliberately order-sensitive floating-point computation: the slot
/// writes are independent per index, the reduction is serial, so 1-thread
/// and N-thread runs must agree bitwise.
double slotReduceChecksum(std::size_t n) {
  const std::vector<double> slots = parallel::parallelMap(n, [](std::size_t i) {
    double acc = 1e-3 * static_cast<double>(i);
    for (int k = 0; k < 50; ++k) acc = std::cos(acc) + 1e-9 * k;
    return acc;
  });
  double sum = 0.0;
  for (double v : slots) sum += v;  // ordered reduction
  return sum;
}

TEST(SerialEquivalence, OneThreadMatchesFourBitwise) {
  double serial = 0.0, pooled = 0.0;
  {
    const ScopedThreads threads(1);
    serial = slotReduceChecksum(4097);
  }
  {
    const ScopedThreads threads(4);
    pooled = slotReduceChecksum(4097);
  }
  EXPECT_EQ(serial, pooled);  // exact, not near
}

TEST(SerialEquivalence, EnvThreadsOneTakesTheSerialPath) {
  const ScopedEnv env("MFBO_THREADS", "1");
  const ScopedThreads reset(0);
  parallel::parallelFor(1000, [](std::size_t) {});
  EXPECT_EQ(parallel::poolWorkers(), 0u);
}

// --- telemetry hammering -------------------------------------------------
// Span counters are the library's only counters. Counters bumped on pool
// workers land in per-worker capture arenas that merge by name into the
// submitting thread's open span.

TEST(TelemetryRace, CounterHammeringLosesNoIncrements) {
  const ScopedThreads threads(8);
  const ScopedProfiler profiler;
  constexpr std::size_t kTasks = 2000;
  constexpr int kPerTask = 50;
  {
    const spans::ScopedSpan region("region");
    parallel::parallelFor(kTasks, [&](std::size_t) {
      for (int k = 0; k < kPerTask; ++k)
        spans::addCounter("test.parallel.hammer");
    });
  }
  const Json snap = spans::snapshot(false);
  EXPECT_EQ(snap.at("children")
                .at("region")
                .at("counters")
                .at("test.parallel.hammer")
                .asNumber(),
            static_cast<double>(kTasks * kPerTask));
}

TEST(TelemetryRace, RegistryLookupsFromWorkersAreSafe) {
  // Few distinct names, many concurrent lookups + inserts: every worker
  // creates the names in its own arena and the merge adds them by name.
  static const char* const kNames[] = {
      "test.parallel.reg0", "test.parallel.reg1", "test.parallel.reg2",
      "test.parallel.reg3", "test.parallel.reg4", "test.parallel.reg5",
      "test.parallel.reg6"};
  constexpr std::size_t kTasks = 500;
  const ScopedThreads threads(8);
  const ScopedProfiler profiler;
  {
    const spans::ScopedSpan region("region");
    parallel::parallelFor(kTasks, [&](std::size_t i) {
      spans::addCounter(kNames[i % 7]);
    });
  }
  const Json snap = spans::snapshot(false);
  const Json& counters = snap.at("children").at("region").at("counters");
  double total = 0.0;
  for (std::size_t k = 0; k < 7; ++k) {
    const double expected = static_cast<double>((kTasks - k + 6) / 7);
    EXPECT_EQ(counters.at(kNames[k]).asNumber(), expected) << kNames[k];
    total += counters.at(kNames[k]).asNumber();
  }
  EXPECT_EQ(total, static_cast<double>(kTasks));
}

// --- Rng::split ----------------------------------------------------------

TEST(RngSplit, DoesNotAdvanceTheParent) {
  linalg::Rng a(123), b(123);
  (void)a.split(0);
  (void)a.split(41);
  for (int i = 0; i < 16; ++i)
    ASSERT_EQ(a.uniform(), b.uniform()) << "draw " << i;
}

TEST(RngSplit, IsCallOrderIndependent) {
  linalg::Rng parent(99);
  linalg::Rng first = parent.split(5);
  (void)parent.uniform();          // advance the parent in between
  linalg::Rng again = parent.split(5);
  for (int i = 0; i < 16; ++i)
    ASSERT_EQ(first.uniform(), again.uniform()) << "draw " << i;
}

TEST(RngSplit, SiblingStreamsAreDecorrelated) {
  linalg::Rng parent(7);
  std::set<std::uint64_t> firsts;
  for (std::uint64_t s = 0; s < 64; ++s) {
    linalg::Rng child = parent.split(s);
    firsts.insert(child.engine()());
  }
  EXPECT_EQ(firsts.size(), 64u) << "stream collision";
}

TEST(RngSplit, MatchesAcrossParallelSchedules) {
  // The canonical per-index pattern: task i draws from split(i). The
  // resulting slot values must not depend on the thread count.
  linalg::Rng parent(2024);
  const auto draw = [&](std::size_t i) { return parent.split(i).normal(); };
  std::vector<double> serial, pooled;
  {
    const ScopedThreads threads(1);
    serial = parallel::parallelMap(512, draw);
  }
  {
    const ScopedThreads threads(4);
    pooled = parallel::parallelMap(512, draw);
  }
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(serial[i], pooled[i]) << "slot " << i;
}

}  // namespace
