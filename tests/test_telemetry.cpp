// Tests for the telemetry subsystem: the Json value type, counters and the
// metrics snapshot, and the trace-sink plumbing — including the end-to-end
// guarantees the benches rely on: one `iteration` event per synthesis-loop
// iteration, byte-identical traces across same-seed runs, and zero output
// (and unchanged results) when no sink is installed.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
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

// --- Trace sinks --------------------------------------------------------

TEST(Trace, DisabledByDefaultAndScopedInstall) {
  EXPECT_FALSE(telemetry::traceEnabled());
  telemetry::CollectingTraceSink sink;
  {
    telemetry::ScopedTraceSink scope(&sink);
    EXPECT_TRUE(telemetry::traceEnabled());
    Json e = Json::object();
    e.set("type", "test");
    telemetry::emitTrace(e);
  }
  EXPECT_FALSE(telemetry::traceEnabled());
  ASSERT_EQ(sink.events.size(), 1u);
  EXPECT_EQ(sink.events[0].at("type").asString(), "test");
}

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

TEST(Trace, MfboEmitsOneIterationEventPerLoopIteration) {
  problems::ForresterProblem problem;
  bo::MfboOptions options = tinyMfbo();
  std::size_t observer_calls = 0;
  options.observer = [&](const bo::IterationRecord& r) {
    ++observer_calls;
    EXPECT_EQ(r.algo, "mfbo");
    EXPECT_EQ(r.iteration, observer_calls);
    ASSERT_NE(r.x, nullptr);
    ASSERT_NE(r.eval, nullptr);
    EXPECT_TRUE(std::isfinite(r.max_norm_var));
    EXPECT_TRUE(std::isfinite(r.threshold));
  };

  telemetry::CollectingTraceSink sink;
  telemetry::ScopedTraceSink scope(&sink);
  bo::MfboSynthesizer(options).run(problem, 3);

  ASSERT_GT(observer_calls, 0u);
  std::size_t iteration_events = 0, run_starts = 0, run_ends = 0;
  for (const Json& e : sink.events) {
    const std::string& type = e.at("type").asString();
    if (type == "iteration") {
      ++iteration_events;
      EXPECT_EQ(e.at("algo").asString(), "mfbo");
      for (const char* key :
           {"iter", "fidelity", "max_norm_var", "threshold", "norm_low_var",
            "x_star_l", "x", "objective", "best_objective", "cost"})
        EXPECT_TRUE(e.contains(key)) << "missing key " << key;
    } else if (type == "run_start") {
      ++run_starts;
      EXPECT_EQ(e.at("problem").asString(), "forrester");
    } else if (type == "run_end") {
      ++run_ends;
      EXPECT_TRUE(e.contains("best_objective"));
    }
  }
  EXPECT_EQ(iteration_events, observer_calls);
  EXPECT_EQ(run_starts, 1u);
  EXPECT_EQ(run_ends, 1u);
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Trace, SameSeedRunsProduceByteIdenticalJsonl) {
  problems::ForresterProblem problem;
  const bo::MfboOptions options = tinyMfbo();
  const std::string path1 = "test_telemetry_trace1.jsonl";
  const std::string path2 = "test_telemetry_trace2.jsonl";

  for (const std::string& path : {path1, path2}) {
    telemetry::TraceWriter writer(path);
    telemetry::ScopedTraceSink scope(&writer);
    bo::MfboSynthesizer(options).run(problem, 11);
    EXPECT_GT(writer.eventsWritten(), 2u);
  }

  const std::string trace1 = readFile(path1);
  const std::string trace2 = readFile(path2);
  ASSERT_FALSE(trace1.empty());
  EXPECT_EQ(trace1, trace2);

  // Every line is a standalone JSON object.
  std::istringstream lines(trace1);
  std::string line;
  while (std::getline(lines, line)) {
    const Json e = Json::parse(line);
    EXPECT_TRUE(e.isObject());
    EXPECT_TRUE(e.contains("type"));
  }
  std::remove(path1.c_str());
  std::remove(path2.c_str());
}

TEST(Trace, TracingDoesNotPerturbResults) {
  problems::ForresterProblem problem;
  const bo::MfboOptions options = tinyMfbo();

  const bo::SynthesisResult plain =
      bo::MfboSynthesizer(options).run(problem, 5);

  telemetry::CollectingTraceSink sink;
  bo::SynthesisResult traced;
  {
    telemetry::ScopedTraceSink scope(&sink);
    traced = bo::MfboSynthesizer(options).run(problem, 5);
  }

  EXPECT_GT(sink.events.size(), 0u);
  EXPECT_EQ(plain.history.size(), traced.history.size());
  EXPECT_EQ(plain.best_eval.objective, traced.best_eval.objective);
  EXPECT_EQ(plain.n_low, traced.n_low);
  EXPECT_EQ(plain.n_high, traced.n_high);
}

TEST(Trace, NullSinkEmitsNothing) {
  ASSERT_FALSE(telemetry::traceEnabled());
  problems::ForresterProblem problem;
  // No observer, no sink: the run must not emit or collect anything.
  bo::MfboSynthesizer(tinyMfbo()).run(problem, 5);
  EXPECT_EQ(telemetry::traceSink(), nullptr);
}

TEST(Trace, WriterWritesOneLinePerEvent) {
  const std::string path = "test_telemetry_writer.jsonl";
  {
    telemetry::TraceWriter writer(path);
    Json e = Json::object();
    e.set("type", "a");
    writer.write(e);
    e.set("type", "b");
    writer.write(e);
    EXPECT_EQ(writer.eventsWritten(), 2u);
  }
  const std::string text = readFile(path);
  EXPECT_EQ(text, "{\"type\":\"a\"}\n{\"type\":\"b\"}\n");
  std::remove(path.c_str());
}

TEST(Trace, WriterThrowsOnUnopenablePath) {
  EXPECT_THROW(telemetry::TraceWriter("/nonexistent-dir/trace.jsonl"),
               std::runtime_error);
}

TEST(Trace, WriterCountsWriteErrorsAndWarnsOnce) {
  // /dev/full accepts the open but fails every flush with ENOSPC — the
  // canonical disk-full simulation.
  std::FILE* full = std::fopen("/dev/full", "w");
  if (full == nullptr) GTEST_SKIP() << "/dev/full unavailable";
  {
    telemetry::TraceWriter writer(full);  // borrowed stream
    Json e = Json::object();
    e.set("type", "doomed");
    ::testing::internal::CaptureStderr();
    writer.write(e);
    writer.write(e);
    const std::string warning = ::testing::internal::GetCapturedStderr();
    // Dropped events never count as written; every failure is counted.
    EXPECT_EQ(writer.eventsWritten(), 0u);
    EXPECT_EQ(writer.writeErrors(), 2u);
    // Exactly one stderr warning per writer, not one per event.
    const std::string needle = "trace write failed";
    std::size_t occurrences = 0;
    for (std::size_t pos = warning.find(needle); pos != std::string::npos;
         pos = warning.find(needle, pos + needle.size()))
      ++occurrences;
    EXPECT_EQ(occurrences, 1u);
  }
  std::fclose(full);
}

}  // namespace
