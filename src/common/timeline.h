// mfbo — opt-in timeline event recorder (Chrome/Perfetto trace-event JSON).
//
// The span profiler (common/spans.h) aggregates: it answers "how much time
// did fit_high take in total". The timeline recorder keeps *events*: every
// span open/close becomes a begin/end pair with a real timestamp and a
// thread id, so the run can be inspected as a flame chart in Perfetto or
// chrome://tracing — which worker ran which repeat, how the fidelity
// decisions interleave, where the pool sat idle.
//
// Design constraints, in order:
//   * Strictly outside the deterministic artifact path. Recording writes a
//     separate file and never touches the span tree, metricsSnapshot(), or
//     --out artifacts; the --timeline bench flag does not flip the span
//     profiler on. Timestamps make the output inherently nondeterministic,
//     so it carries none of the byte-identity guarantees (DESIGN.md).
//   * Invisible to the memory counters. All recorder allocations sit under
//     a memstats::PauseScope, so enabling a timeline does not perturb the
//     deterministic alloc_count/alloc_bytes span counters.
//   * Cheap while off. Instrumentation sites share the span profiler's
//     single relaxed atomic flag load (spans.cpp owns the dispatch), so the
//     disabled path stays one branch with no extra loads.
//
// Events are buffered in memory ({literal name, tid, ns-since-start, phase})
// and serialized once, by stop(), as {"traceEvents":[...]} with microsecond
// "ts" values — the JSON object format both viewers accept. Thread ids are
// small sequential integers assigned on first event per thread.
#pragma once

#include <cstddef>
#include <string>

namespace mfbo {
namespace timeline {

/// Start recording and open @p path for writing (truncates). Throws
/// std::runtime_error when the path is not writable, ContractViolation when
/// already recording. The bench harness calls this from parseArgs so a bad
/// --timeline path fails before any work runs (exit 2).
void start(const std::string& path);

/// True while a recording is active.
bool recording();

/// Serialize buffered events to the path given to start() and stop
/// recording. No-op when not recording. Write failures warn on stderr
/// rather than throw (stop() runs from atexit in the benches).
void stop();

/// Number of buffered events (tests / introspection).
std::size_t eventCount();

namespace detail {

/// Called by ScopedSpan (spans.cpp) on span open/close while recording.
/// Names must be string literals, same contract as spans.
void recordBegin(const char* name);
void recordEnd(const char* name);

}  // namespace detail

}  // namespace timeline
}  // namespace mfbo
