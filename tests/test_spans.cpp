// Tests for the hierarchical span profiler (common/spans.h): nesting and
// self-vs-total accounting, counter attribution, parallel-region merge
// determinism (1 vs 4 threads), disabled-mode zero-allocation, and a
// golden-schema check pinning the trace/artifact JSON keys that
// tools/run_report.py and the docs consume.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bo/mfbo.h"
#include "common/check.h"
#include "common/memstats.h"
#include "common/parallel.h"
#include "common/spans.h"
#include "common/telemetry.h"
#include "problems/synthetic.h"

namespace {

using namespace mfbo;

/// Enables the profiler for one test and restores a clean disabled state
/// (empty tree) afterwards, so tests cannot leak spans into each other.
class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    spans::reset();
    spans::setEnabled(true);
  }
  void TearDown() override {
    spans::setEnabled(false);
    spans::reset();
  }
};

// --- nesting / aggregation ----------------------------------------------

TEST_F(SpanTest, NestedSpansFormATree) {
  {
    const spans::ScopedSpan outer("outer");
    { const spans::ScopedSpan inner("inner_a"); }
    { const spans::ScopedSpan inner("inner_b"); }
  }
  const Json snap = spans::snapshot(/*include_timing=*/false);
  const Json& outer = snap.at("children").at("outer");
  EXPECT_EQ(outer.at("count").asNumber(), 1.0);
  const Json& kids = outer.at("children");
  EXPECT_EQ(kids.at("inner_a").at("count").asNumber(), 1.0);
  EXPECT_EQ(kids.at("inner_b").at("count").asNumber(), 1.0);
}

TEST_F(SpanTest, SameNameUnderSameParentAggregates) {
  {
    const spans::ScopedSpan outer("outer");
    for (int i = 0; i < 5; ++i) {
      const spans::ScopedSpan inner("inner");
    }
  }
  const Json snap = spans::snapshot(false);
  EXPECT_EQ(snap.at("children")
                .at("outer")
                .at("children")
                .at("inner")
                .at("count")
                .asNumber(),
            5.0);
}

TEST_F(SpanTest, SameNameUnderDifferentParentsStaysDistinct) {
  {
    const spans::ScopedSpan a("a");
    const spans::ScopedSpan shared("shared");
  }
  {
    const spans::ScopedSpan b("b");
    const spans::ScopedSpan shared("shared");
    const spans::ScopedSpan child("shared_child");
  }
  const Json snap = spans::snapshot(false);
  const Json& children = snap.at("children");
  const Json& under_a = children.at("a").at("children").at("shared");
  const Json& under_b = children.at("b").at("children").at("shared");
  EXPECT_EQ(under_a.at("count").asNumber(), 1.0);
  EXPECT_EQ(under_b.at("count").asNumber(), 1.0);
  // Call paths are separate nodes: a/shared never saw shared_child.
  EXPECT_FALSE(under_a.contains("children"));
  EXPECT_TRUE(under_b.contains("children"));
}

TEST_F(SpanTest, SelfPlusChildrenEqualsTotal) {
  {
    const spans::ScopedSpan outer("outer");
    for (int i = 0; i < 3; ++i) {
      const spans::ScopedSpan inner("inner");
      volatile double sink = 0.0;
      for (int k = 0; k < 50000; ++k) sink = sink + static_cast<double>(k);
    }
  }
  const Json snap = spans::snapshot(/*include_timing=*/true);
  const Json& outer = snap.at("children").at("outer");
  const double total = outer.at("total_s").asNumber();
  const double self = outer.at("self_s").asNumber();
  const double child =
      outer.at("children").at("inner").at("total_s").asNumber();
  EXPECT_GT(child, 0.0);  // the busy loop took measurable time
  EXPECT_GE(total, child);
  EXPECT_GE(self, 0.0);
  // Serial nesting: self is exactly total minus the children's totals
  // (a sub-nanosecond rounding slack covers the ns→s conversion).
  EXPECT_NEAR(self + child, total, 1e-9);
}

TEST_F(SpanTest, CountersAttachToInnermostOpenSpan) {
  {
    const spans::ScopedSpan outer("outer");
    spans::addCounter("outer_events", 2);
    {
      const spans::ScopedSpan inner("inner");
      spans::addCounter("inner_events");
      spans::addCounter("inner_events", 3);
    }
  }
  spans::addCounter("root_events", 7);  // no open span: lands on the root
  const Json snap = spans::snapshot(false);
  const Json& outer = snap.at("children").at("outer");
  EXPECT_EQ(outer.at("counters").at("outer_events").asNumber(), 2.0);
  EXPECT_EQ(outer.at("children")
                .at("inner")
                .at("counters")
                .at("inner_events")
                .asNumber(),
            4.0);
  EXPECT_EQ(snap.at("counters").at("root_events").asNumber(), 7.0);
}

TEST_F(SpanTest, ResetDiscardsTheTree) {
  { const spans::ScopedSpan s("something"); }
  spans::reset();
  EXPECT_EQ(spans::snapshot(false).dump(), "{}");
}

TEST_F(SpanTest, TimingFreeSnapshotHasNoWallClockKeys) {
  { const spans::ScopedSpan s("phase"); }
  const std::string text = spans::snapshot(false).dump();
  EXPECT_EQ(text.find("total_s"), std::string::npos) << text;
  EXPECT_EQ(text.find("self_s"), std::string::npos) << text;
  const std::string timed = spans::snapshot(true).dump();
  EXPECT_NE(timed.find("total_s"), std::string::npos) << timed;
  EXPECT_NE(timed.find("self_s"), std::string::npos) << timed;
}

// --- disabled mode ------------------------------------------------------

TEST(SpanDisabled, SnapshotIsEmptyAndSpansAreInert) {
  spans::setEnabled(false);
  spans::reset();
  {
    const spans::ScopedSpan s("ignored");
    spans::addCounter("ignored");
  }
  EXPECT_EQ(spans::snapshot().dump(), "{}");
}

TEST(SpanDisabled, ScopedSpanAllocatesNothing) {
  spans::setEnabled(false);
  spans::reset();
  // The process-wide operator new hook (common/memstats.h) counts this
  // thread's allocations; a disabled span must contribute zero.
  const std::uint64_t before = memstats::threadCounters().alloc_count;
  for (int i = 0; i < 1000; ++i) {
    const spans::ScopedSpan s("hot_path");
    spans::addCounter("events");
  }
  EXPECT_EQ(memstats::threadCounters().alloc_count, before);
}

// --- parallel merge -----------------------------------------------------

Json spanTreeAtThreads(std::size_t threads) {
  parallel::setMaxThreads(threads);
  spans::reset();
  spans::setEnabled(true);
  {
    const spans::ScopedSpan region("region");
    parallel::parallelFor(32, [](std::size_t i) {
      const spans::ScopedSpan body("body");
      spans::addCounter("work");
      if (i % 2 == 0) {
        const spans::ScopedSpan nested("even_half");
      }
    });
  }
  Json snap = spans::snapshot(/*include_timing=*/false);
  spans::setEnabled(false);
  spans::reset();
  parallel::setMaxThreads(0);
  return snap;
}

TEST(SpanParallelMerge, WorkerSpansAttributeToEnclosingSpan) {
  const Json snap = spanTreeAtThreads(4);
  const Json& region = snap.at("children").at("region");
  const Json& body = region.at("children").at("body");
  EXPECT_EQ(body.at("count").asNumber(), 32.0);
  EXPECT_EQ(body.at("counters").at("work").asNumber(), 32.0);
  EXPECT_EQ(body.at("children").at("even_half").at("count").asNumber(),
            16.0);
}

TEST(SpanParallelMerge, OneVsFourThreadsByteIdentical) {
  const std::string serial = spanTreeAtThreads(1).dump();
  const std::string parallel4 = spanTreeAtThreads(4).dump();
  EXPECT_EQ(serial, parallel4);
  EXPECT_NE(serial, "{}");
}

TEST(SpanParallelMerge, NestedRegionsStayAttributed) {
  parallel::setMaxThreads(4);
  spans::reset();
  spans::setEnabled(true);
  {
    const spans::ScopedSpan region("outer_region");
    parallel::parallelFor(8, [](std::size_t) {
      const spans::ScopedSpan task("task");
      // Nested region: runs inline on the worker, so its body spans nest
      // under this worker's "task" span and merge along with it.
      parallel::parallelFor(4, [](std::size_t) {
        const spans::ScopedSpan inner("inner_body");
      });
    });
  }
  const Json snap = spans::snapshot(false);
  spans::setEnabled(false);
  spans::reset();
  parallel::setMaxThreads(0);
  const Json& task =
      snap.at("children").at("outer_region").at("children").at("task");
  EXPECT_EQ(task.at("count").asNumber(), 8.0);
  EXPECT_EQ(task.at("children").at("inner_body").at("count").asNumber(),
            32.0);
}

TEST(SpanParallelMerge, DisabledRunRecordsNothingAcrossThreads) {
  parallel::setMaxThreads(4);
  spans::setEnabled(false);
  spans::reset();
  parallel::parallelFor(16, [](std::size_t) {
    const spans::ScopedSpan body("body");
  });
  EXPECT_EQ(spans::snapshot(false).dump(), "{}");
  parallel::setMaxThreads(0);
}

// --- session arenas ------------------------------------------------------

TEST_F(SpanTest, ArenaScopesKeepInterleavedSessionsSeparate) {
  // Two arenas alternating on one thread — the session-manager pattern.
  // Each arena accumulates only its own spans, across repeated installs.
  spans::SpanArena a, b;
  for (int i = 0; i < 3; ++i) {
    {
      const spans::ArenaScope scope(a);
      const spans::ScopedSpan s("phase_a");
      spans::addCounter("work_a");
    }
    {
      const spans::ArenaScope scope(b);
      const spans::ScopedSpan s("phase_b");
    }
  }
  {
    const spans::ArenaScope scope(a);
    const Json snap = spans::snapshot(false);
    EXPECT_EQ(snap.at("children").at("phase_a").at("count").asNumber(), 3.0);
    EXPECT_EQ(
        snap.at("children").at("phase_a").at("counters").at("work_a")
            .asNumber(),
        3.0);
    EXPECT_FALSE(snap.at("children").contains("phase_b"));
  }
  {
    const spans::ArenaScope scope(b);
    const Json snap = spans::snapshot(false);
    EXPECT_EQ(snap.at("children").at("phase_b").at("count").asNumber(), 3.0);
    EXPECT_FALSE(snap.at("children").contains("phase_a"));
  }
  // The thread's own tree saw none of it.
  const Json thread_snap = spans::snapshot(false);
  EXPECT_FALSE(thread_snap.contains("children"));
}

TEST_F(SpanTest, ArenaCapturesWorkerSpansByteIdenticalAcrossThreads) {
  // A parallel region under an installed arena: worker trees merge into
  // the arena like they merge into a thread tree, and the result does not
  // depend on the thread count — allocation attribution included.
  const auto run = [](std::size_t threads) {
    parallel::setMaxThreads(threads);
    spans::SpanArena arena;
    {
      const spans::ArenaScope scope(arena);
      const spans::ScopedSpan region("region");
      parallel::parallelFor(16, [](std::size_t i) {
        const spans::ScopedSpan body("body");
        spans::addCounter("units");
        // Deterministic per-index allocation, whichever worker runs it.
        std::vector<double> sink(i % 4 + 1);
        sink[0] = static_cast<double>(i);
      });
    }
    std::string dump;
    {
      const spans::ArenaScope scope(arena);
      dump = spans::snapshot(false).dump();
    }
    // Worker counters followed the job's caller into its arena; the
    // thread's own tree saw none of them.
    EXPECT_FALSE(spans::snapshot(false).contains("children"));
    parallel::setMaxThreads(0);
    return dump;
  };
  const std::string serial = run(1);
  const std::string pooled = run(4);
  EXPECT_EQ(serial, pooled);
  EXPECT_NE(serial, "{}");
}

TEST_F(SpanTest, ArenaScopeRejectsInstallUnderAnOpenSpan) {
  // Moving to a different tree mid-span would tear the active stack.
  spans::SpanArena arena;
  const spans::ScopedSpan open("open");
  EXPECT_THROW({ const spans::ArenaScope scope(arena); },
               ContractViolation);
}

TEST(SpanDisabled, ArenaScopeIsInertWhenProfilerIsOff) {
  spans::setEnabled(false);
  spans::reset();
  spans::SpanArena arena;
  {
    const spans::ArenaScope scope(arena);
    const spans::ScopedSpan s("ignored");
  }
  {
    const spans::ArenaScope scope(arena);
    EXPECT_EQ(spans::snapshot(false).dump(), "{}");
  }
}

// --- golden schema ------------------------------------------------------

std::set<std::string> keysOf(const Json& obj) {
  std::set<std::string> keys;
  for (const auto& member : obj.members()) keys.insert(member.first);
  return keys;
}

/// Every span node may carry exactly these keys; counts are mandatory.
void validateSpanNode(const Json& node, bool timing) {
  const std::set<std::string> allowed =
      timing ? std::set<std::string>{"count", "total_s", "self_s",
                                     "counters", "children"}
             : std::set<std::string>{"count", "counters", "children"};
  for (const std::string& key : keysOf(node))
    EXPECT_TRUE(allowed.count(key)) << "unexpected span key: " << key;
  EXPECT_TRUE(node.contains("count"));
  if (timing) {
    EXPECT_TRUE(node.contains("total_s"));
    EXPECT_TRUE(node.contains("self_s"));
  }
  if (node.contains("children"))
    for (const auto& member : node.at("children").members())
      validateSpanNode(member.second, timing);
}

TEST(SpanGoldenSchema, MetricsSnapshotAndTraceKeysDoNotDrift) {
  spans::reset();
  spans::setEnabled(true);
  telemetry::CollectingTraceSink sink;
  {
    const telemetry::ScopedTraceSink scoped(&sink);
    problems::ConstrainedQuadraticProblem problem(2);
    bo::MfboOptions options;
    options.budget = 6.0;
    options.n_init_low = 6;
    options.n_init_high = 3;
    options.nargp.n_mc = 16;
    options.msp.n_starts = 2;
    options.msp.local.max_evaluations = 30;
    options.gamma = 0.1;
    const bo::MfboSynthesizer synthesizer(options);
    (void)synthesizer.run(problem, 11);
  }

  // Trace: first event is run_start, last is run_end, the middle ones are
  // iterations carrying the fidelity-decision fields the report plots.
  ASSERT_GE(sink.events.size(), 3u);
  const Json& start = sink.events.front();
  EXPECT_EQ(start.at("type").asString(), "run_start");
  for (const char* key : {"algo", "problem", "dim", "num_constraints",
                          "cost_ratio", "budget", "seed"})
    EXPECT_TRUE(start.contains(key)) << "run_start lost key: " << key;
  const Json& iter = sink.events[1];
  EXPECT_EQ(iter.at("type").asString(), "iteration");
  for (const char* key :
       {"algo", "iter", "fidelity", "acq", "tau_l", "tau_h", "max_norm_var",
        "threshold", "norm_low_var", "x", "objective", "feasible",
        "best_objective", "feasible_found", "cost"})
    EXPECT_TRUE(iter.contains(key)) << "iteration lost key: " << key;
  const Json& end = sink.events.back();
  EXPECT_EQ(end.at("type").asString(), "run_end");
  for (const char* key : {"algo", "best_objective", "feasible_found",
                          "n_low", "n_high", "equivalent_high_sims"})
    EXPECT_TRUE(end.contains(key)) << "run_end lost key: " << key;

  // Artifact metrics snapshot: spans tree present with the pinned node
  // schema in both timing modes; phase wall times and every counter live
  // in the span tree, so there is no separate counter or timer section.
  for (const bool timing : {true, false}) {
    const Json snapshot = telemetry::metricsSnapshot(timing);
    for (const char* gone : {"counters", "gauges", "histograms", "timers"})
      EXPECT_FALSE(snapshot.contains(gone)) << gone;
    // Peak RSS is machine state: present only with the wall-clock fields,
    // never in the deterministic --no-timing artifact keys.
    EXPECT_EQ(snapshot.contains("peak_rss_bytes"), timing);
    if (timing) {
      EXPECT_GT(snapshot.at("peak_rss_bytes").asNumber(), 0.0);
    }
    ASSERT_TRUE(snapshot.contains("spans"));
    const Json& tree = snapshot.at("spans");
    ASSERT_TRUE(tree.contains("children"));
    ASSERT_TRUE(tree.at("children").contains("mfbo"));
    for (const auto& member : tree.at("children").members())
      validateSpanNode(member.second, timing);
  }

  // The instrumented phases the report's flame table groups by.
  const Json snapshot = telemetry::metricsSnapshot(false);
  const Json& mfbo_node = snapshot.at("spans").at("children").at("mfbo");
  const std::set<std::string> phases = keysOf(mfbo_node.at("children"));
  for (const char* phase :
       {"acq_low", "acq_high", "fidelity_decision", "fit_low", "fit_high",
        "simulate_low", "simulate_high"})
    EXPECT_TRUE(phases.count(phase)) << "mfbo lost phase: " << phase;

  // Memory attribution (common/memstats.h): a synthesis run allocates, so
  // the tree must carry the alloc counters somewhere below "mfbo".
  const std::string tree_text = mfbo_node.dump();
  EXPECT_NE(tree_text.find("\"alloc_count\""), std::string::npos) << tree_text;
  EXPECT_NE(tree_text.find("\"alloc_bytes\""), std::string::npos) << tree_text;
  // The library's counters ride in the same tree.
  EXPECT_NE(tree_text.find("\"bo.mfbo.iterations\""), std::string::npos)
      << tree_text;

  spans::setEnabled(false);
  spans::reset();
}

}  // namespace
