// Tests for the telemetry subsystem: the Json value type, counters and the
// metrics snapshot, and the iteration trace a run's observer feeds —
// including the end-to-end guarantees the benches rely on: one `iteration`
// event per synthesis-loop iteration, byte-identical traces across
// same-seed runs, and unchanged results whether or not a run is traced.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bo/mfbo.h"
#include "common/json.h"
#include "common/spans.h"
#include "common/telemetry.h"
#include "problems/synthetic.h"

namespace {

using namespace mfbo;

// --- Json ---------------------------------------------------------------

TEST(Json, DumpScalarsAndContainers) {
  Json doc = Json::object();
  doc.set("a", 1.0);
  doc.set("b", true);
  doc.set("c", "text");
  doc.set("d", Json::null());
  Json arr = Json::array();
  arr.push(Json::number(0.5));
  arr.push(Json::boolean(false));
  doc.set("e", arr);
  EXPECT_EQ(doc.dump(),
            "{\"a\":1,\"b\":true,\"c\":\"text\",\"d\":null,"
            "\"e\":[0.5,false]}");
}

TEST(Json, PreservesInsertionOrderAndReplacesInPlace) {
  Json doc = Json::object();
  doc.set("z", 1.0);
  doc.set("a", 2.0);
  doc.set("z", 3.0);  // replaced, stays first
  EXPECT_EQ(doc.dump(), "{\"z\":3,\"a\":2}");
}

TEST(Json, EscapesStrings) {
  Json doc = Json::object();
  doc.set("k", std::string("a\"b\\c\n\t"));
  const Json back = Json::parse(doc.dump());
  EXPECT_EQ(back.at("k").asString(), "a\"b\\c\n\t");
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  Json arr = Json::array();
  arr.push(Json::number(std::numeric_limits<double>::quiet_NaN()));
  arr.push(Json::number(std::numeric_limits<double>::infinity()));
  EXPECT_EQ(arr.dump(), "[null,null]");
}

TEST(Json, NumbersRoundTripExactly) {
  const double values[] = {0.1, 1.0 / 3.0, 1e-300, 123456789.123456789,
                           -2.5e17};
  for (double v : values) {
    const Json parsed = Json::parse(Json::number(v).dump());
    EXPECT_EQ(parsed.asNumber(), v);
  }
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), std::runtime_error);
  EXPECT_THROW(Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(Json::parse("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(Json::parse("nul"), std::runtime_error);
}

TEST(Json, ParseHandlesNestedDocuments) {
  const Json doc =
      Json::parse("{\"a\":[1,2,{\"b\":\"\\u0041\"}],\"c\":{\"d\":null}}");
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_EQ(doc.at("a").at(2).at("b").asString(), "A");
  EXPECT_TRUE(doc.at("c").at("d").isNull());
}

// --- Counters and the metrics snapshot ---------------------------------

/// Profiler on for one test, off and empty afterwards: library counters
/// are span counters and exist only while it is on.
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

TEST(Metrics, CounterAccumulatesAndResets) {
  const ScopedProfiler profiler;
  spans::addCounter("test.metrics.counter");
  spans::addCounter("test.metrics.counter", 4);
  EXPECT_EQ(spans::snapshot(false)
                .at("counters")
                .at("test.metrics.counter")
                .asNumber(),
            5.0);
  // Counters reset with the span tree they live in.
  spans::reset();
  EXPECT_EQ(spans::snapshot(false).dump().find("test.metrics.counter"),
            std::string::npos);
}

TEST(Metrics, SnapshotContainsRegisteredMetrics) {
  {
    const ScopedProfiler profiler;
    {
      const spans::ScopedSpan phase("test_phase");
      spans::addCounter("test.metrics.snap_counter", 7);
    }
    const Json snap = telemetry::metricsSnapshot();
    EXPECT_EQ(snap.at("spans")
                  .at("children")
                  .at("test_phase")
                  .at("counters")
                  .at("test.metrics.snap_counter")
                  .asNumber(),
              7.0);
    // Peak RSS is machine state: present only in the timed snapshot.
    EXPECT_GT(snap.at("peak_rss_bytes").asNumber(), 0.0);
    EXPECT_FALSE(telemetry::metricsSnapshot(false).contains("peak_rss_bytes"));
    // dump() of the snapshot parses back.
    EXPECT_NO_THROW(Json::parse(snap.dump()));
  }
  // Profiler off: no span tree, so the deterministic snapshot is empty.
  EXPECT_EQ(telemetry::metricsSnapshot(false).dump(), "{}");
}

// --- Iteration traces ---------------------------------------------------

bo::MfboOptions tinyMfbo() {
  bo::MfboOptions o;
  o.n_init_low = 6;
  o.n_init_high = 3;
  o.budget = 6.0;
  o.msp.n_starts = 4;
  o.msp.local.max_evaluations = 30;
  o.nargp.n_mc = 10;
  o.nargp.low.n_restarts = 1;
  o.nargp.high.n_restarts = 1;
  return o;
}

/// One MFBO run traced the way a bench's --trace traces it: its run_start
/// line, one iterationJson line per observer call, its run_end line.
std::string tracedRunJsonl(bo::MfboOptions options, std::uint64_t seed,
                           bo::SynthesisResult* result = nullptr) {
  problems::ForresterProblem problem;
  std::string trace =
      bo::runStartJson("mfbo", problem, seed, options.budget).dump() + '\n';
  options.observer = [&trace](const bo::IterationRecord& r) {
    trace += bo::iterationJson(r).dump() + '\n';
  };
  const bo::SynthesisResult run =
      bo::MfboSynthesizer(options).run(problem, seed);
  trace += bo::runEndJson("mfbo", run).dump() + '\n';
  if (result != nullptr) *result = run;
  return trace;
}

TEST(Trace, MfboEmitsOneIterationEventPerLoopIteration) {
  problems::ForresterProblem problem;
  bo::MfboOptions options = tinyMfbo();
  std::size_t observer_calls = 0;
  std::vector<Json> events;
  options.observer = [&](const bo::IterationRecord& r) {
    ++observer_calls;
    EXPECT_EQ(r.algo, "mfbo");
    EXPECT_EQ(r.iteration, observer_calls);
    ASSERT_NE(r.x, nullptr);
    ASSERT_NE(r.eval, nullptr);
    EXPECT_TRUE(std::isfinite(r.max_norm_var));
    EXPECT_TRUE(std::isfinite(r.threshold));
    events.push_back(bo::iterationJson(r));
  };
  const bo::SynthesisResult result =
      bo::MfboSynthesizer(options).run(problem, 3);

  ASSERT_GT(observer_calls, 0u);
  EXPECT_EQ(events.size(), observer_calls);
  for (const Json& e : events) {
    EXPECT_EQ(e.at("type").asString(), "iteration");
    EXPECT_EQ(e.at("algo").asString(), "mfbo");
    for (const char* key :
         {"iter", "fidelity", "max_norm_var", "threshold", "norm_low_var",
          "x_star_l", "x", "objective", "best_objective", "cost"})
      EXPECT_TRUE(e.contains(key)) << "missing key " << key;
  }
  const Json start = bo::runStartJson("mfbo", problem, 3, options.budget);
  EXPECT_EQ(start.at("type").asString(), "run_start");
  EXPECT_EQ(start.at("problem").asString(), "forrester");
  const Json end = bo::runEndJson("mfbo", result);
  EXPECT_EQ(end.at("type").asString(), "run_end");
  EXPECT_TRUE(end.contains("best_objective"));
}

TEST(Trace, SameSeedRunsProduceByteIdenticalJsonl) {
  const std::string trace1 = tracedRunJsonl(tinyMfbo(), 11);
  const std::string trace2 = tracedRunJsonl(tinyMfbo(), 11);
  ASSERT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, trace2);

  // Every line is a standalone JSON object; the run has iterations
  // between its run_start and run_end lines.
  std::istringstream lines(trace1);
  std::string line;
  std::size_t n_lines = 0;
  while (std::getline(lines, line)) {
    ++n_lines;
    const Json e = Json::parse(line);
    EXPECT_TRUE(e.isObject());
    EXPECT_TRUE(e.contains("type"));
  }
  EXPECT_GT(n_lines, 2u);
}

TEST(Trace, TracingDoesNotPerturbResults) {
  problems::ForresterProblem problem;
  const bo::MfboOptions options = tinyMfbo();

  const bo::SynthesisResult plain =
      bo::MfboSynthesizer(options).run(problem, 5);

  bo::SynthesisResult traced;
  const std::string trace = tracedRunJsonl(options, 5, &traced);

  EXPECT_NE(trace.find("\"type\":\"iteration\""), std::string::npos);
  EXPECT_EQ(plain.history.size(), traced.history.size());
  EXPECT_EQ(plain.best_eval.objective, traced.best_eval.objective);
  EXPECT_EQ(plain.n_low, traced.n_low);
  EXPECT_EQ(plain.n_high, traced.n_high);
}

}  // namespace
