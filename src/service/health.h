// mfbo::service — health exporter: the fleet's SLO snapshot in the two
// formats an operator actually scrapes.
//
// SessionManager::healthJson() produces the versioned "mfbo-health" v2
// document (per-session progress and step-latency quantiles, pool gauges,
// flight-recorder counters). This header turns that document into:
//
//   * healthExposition() — a Prometheus-style text exposition (one
//     `# TYPE` header per family, `mfbo_`-prefixed metric names, sessions
//     distinguished by a `session` label, latency quantiles as a summary
//     family). The rendering is pure and deterministic in the document:
//     the same healthJson() bytes always produce the same exposition
//     bytes, which is what tools/health_validate.py checks in CI.
//   * writeHealthFiles() — the bench/CI convenience: the JSON document at
//     @p path and the exposition next to it at `<path>.prom`
//     (bench/micro_sessions --health FILE).
//
// Health output is operator-facing wall-clock data. It is deliberately
// OUTSIDE the byte-determinism boundary — nothing here may feed back into
// a --no-timing artifact (tools/bench_compare.py ignores health.* keys).
#pragma once

#include <string>

#include "common/json.h"

namespace mfbo::service {

/// Render a SessionManager::healthJson() document as Prometheus-style
/// text exposition. The document must carry the "mfbo-health" v2
/// envelope; anything else is a ContractViolation.
std::string healthExposition(const Json& health);

/// Write @p health as JSON to @p path and its exposition to
/// `<path>.prom`. Throws std::runtime_error when either file cannot be
/// written.
void writeHealthFiles(const Json& health, const std::string& path);

}  // namespace mfbo::service
