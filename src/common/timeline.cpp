#include "common/timeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/json.h"
#include "common/memstats.h"
#include "common/spans.h"

namespace mfbo {
namespace timeline {
namespace {

/// One buffered span boundary. Names are literals (the spans contract), so
/// storing the pointer is safe and an event is four words.
struct Event {
  const char* name;
  std::uint32_t tid;
  std::int64_t ts_ns;
  bool begin;
};

// All recorder state is guarded by g_mu. recordBegin/recordEnd reach this
// file only while spans.cpp's dispatch flag says a recording is active, and
// they re-check g_events under the lock, so a stop() racing with a worker's
// last events is safe: late events are simply dropped.
std::mutex g_mu;
std::FILE* g_stream = nullptr;
std::string g_path;
std::vector<Event>* g_events = nullptr;
std::chrono::steady_clock::time_point g_epoch;
std::atomic<std::uint32_t> g_next_tid{0};

/// Small sequential per-thread id, assigned on first event. The ids are
/// labels for the trace viewer, not OS thread ids; the main/bench thread is
/// almost always 1.
std::uint32_t threadId() {
  thread_local std::uint32_t tid = 0;
  if (tid == 0) tid = g_next_tid.fetch_add(1, std::memory_order_relaxed) + 1;
  return tid;
}

void record(const char* name, bool begin) {
  // Recorder allocations (buffer growth) must stay invisible to the
  // deterministic per-span memory counters.
  const memstats::PauseScope pause;
  const std::uint32_t tid = threadId();
  const std::lock_guard<std::mutex> lock(g_mu);
  if (g_events == nullptr) return;
  // The timestamp is taken under the lock: marginally coarser, but it
  // sequences events against start()/stop() and keeps g_epoch race-free.
  const std::int64_t ts_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - g_epoch)
          .count();
  g_events->push_back(Event{name, tid, ts_ns, begin});
}

Json eventToJson(const Event& event) {
  Json out = Json::object();
  out.set("name", event.name);
  out.set("cat", "span");
  out.set("ph", event.begin ? "B" : "E");
  // Trace-event timestamps are microseconds; keep sub-us precision.
  out.set("ts", static_cast<double>(event.ts_ns) * 1e-3);
  out.set("pid", 1);
  out.set("tid", static_cast<double>(event.tid));
  return out;
}

Json metadataEvent(const char* name, int tid, const char* value) {
  Json args = Json::object();
  args.set("name", value);
  Json out = Json::object();
  out.set("name", name);
  out.set("ph", "M");
  out.set("pid", 1);
  out.set("tid", tid);
  out.set("args", std::move(args));
  return out;
}

}  // namespace

void start(const std::string& path) {
  const memstats::PauseScope pause;
  std::FILE* stream = std::fopen(path.c_str(), "wb");
  if (stream == nullptr)
    throw std::runtime_error("timeline path is not writable: " + path);
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    MFBO_CHECK(g_stream == nullptr,
               "timeline::start: a recording is already active");
    g_stream = stream;
    g_path = path;
    g_events = new std::vector<Event>();
    g_events->reserve(4096);
    g_epoch = std::chrono::steady_clock::now();
  }
  spans::detail::setTimelineRecording(true);
}

bool recording() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_stream != nullptr;
}

std::size_t eventCount() {
  const std::lock_guard<std::mutex> lock(g_mu);
  return g_events == nullptr ? 0 : g_events->size();
}

void stop() {
  const memstats::PauseScope pause;
  std::FILE* stream = nullptr;
  std::string path;
  std::vector<Event> events;
  {
    const std::lock_guard<std::mutex> lock(g_mu);
    if (g_stream == nullptr) return;
    stream = g_stream;
    g_stream = nullptr;
    path = std::move(g_path);
    g_path.clear();
    events = std::move(*g_events);
    delete g_events;
    g_events = nullptr;
  }
  spans::detail::setTimelineRecording(false);

  Json trace_events = Json::array();
  trace_events.push(metadataEvent("process_name", 0, "mfbo"));
  std::uint32_t max_tid = 0;
  for (const Event& event : events) max_tid = std::max(max_tid, event.tid);
  for (std::uint32_t tid = 1; tid <= max_tid; ++tid) {
    trace_events.push(metadataEvent(
        "thread_name", static_cast<int>(tid),
        tid == 1 ? "main" : "pool-worker"));
  }
  for (const Event& event : events) trace_events.push(eventToJson(event));
  Json doc = Json::object();
  doc.set("traceEvents", std::move(trace_events));
  doc.set("displayTimeUnit", "ms");
  const std::string text = doc.dump();

  bool ok = std::fwrite(text.data(), 1, text.size(), stream) == text.size();
  ok = std::fputc('\n', stream) != EOF && ok;
  ok = std::fclose(stream) == 0 && ok;
  if (!ok)
    std::fprintf(stderr, "mfbo: timeline write failed: %s\n", path.c_str());
}

namespace detail {

void recordBegin(const char* name) { record(name, /*begin=*/true); }

void recordEnd(const char* name) { record(name, /*begin=*/false); }

}  // namespace detail

}  // namespace timeline
}  // namespace mfbo
