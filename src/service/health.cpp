#include "service/health.h"

#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/check.h"
#include "common/memstats.h"

namespace mfbo::service {

namespace {

/// Prometheus label-value escaping: backslash, double quote, newline.
/// Session ids are [A-Za-z0-9_-] by contract, so this is belt and
/// braces for embedder-supplied documents.
std::string escapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Number formatting shared with the JSON artifacts: integral values
/// print without a decimal point, so the exposition is deterministic in
/// the document bytes.
std::string formatNumber(double v) { return Json::number(v).dump(); }

void typeLine(std::string& out, const char* name, const char* type) {
  out += "# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void sample(std::string& out, const char* name, const std::string& labels,
            double value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += formatNumber(value);
  out += '\n';
}

double numberAt(const Json& obj, const char* key) {
  MFBO_CHECK(obj.contains(key) && obj.at(key).isNumber(),
             "health document is missing numeric field '", key, "'");
  return obj.at(key).asNumber();
}

}  // namespace

std::string healthExposition(const Json& health) {
  // Exposition rendering is reporting machinery, invisible to the
  // per-span allocation counters like every other serializer.
  const memstats::PauseScope alloc_pause;
  MFBO_CHECK(health.isObject() && health.contains("format") &&
                 health.at("format").isString() &&
                 health.at("format").asString() == "mfbo-health",
             "health document format must be 'mfbo-health'");
  MFBO_CHECK(health.contains("version") && health.at("version").isNumber() &&
                 health.at("version").asNumber() == 2,
             "unsupported health document version");
  MFBO_CHECK(health.contains("sessions") && health.at("sessions").isArray(),
             "health document is missing the sessions array");
  std::string out;
  out.reserve(4096);

  typeLine(out, "mfbo_rounds_total", "counter");
  sample(out, "mfbo_rounds_total", "", numberAt(health, "rounds"));
  typeLine(out, "mfbo_sessions", "gauge");
  sample(out, "mfbo_sessions", "",
         static_cast<double>(health.at("sessions").size()));

  // Per-session families: one TYPE header each, then a sample per
  // session in document (= creation) order.
  struct Field {
    const char* metric;
    const char* key;
    const char* type;
  };
  static constexpr Field kFields[] = {
      {"mfbo_session_steps_total", "steps", "counter"},
      {"mfbo_session_iterations_total", "iterations", "counter"},
      {"mfbo_session_checkpoint_age_steps", "checkpoint_age_steps",
       "gauge"},
      {"mfbo_session_cost_spent", "cost_spent", "gauge"},
      {"mfbo_session_cost_budget", "cost_budget", "gauge"},
      {"mfbo_session_budget_fraction", "budget_fraction", "gauge"},
      {"mfbo_session_steps_per_second", "steps_per_sec", "gauge"},
  };
  const auto& sessions = health.at("sessions").items();
  for (const Field& field : kFields) {
    typeLine(out, field.metric, field.type);
    for (const Json& session : sessions) {
      const std::string labels =
          "session=\"" + escapeLabel(session.at("session").asString()) +
          "\",algo=\"" + escapeLabel(session.at("algo").asString()) + "\"";
      sample(out, field.metric, labels, numberAt(session, field.key));
    }
  }

  // Status as a one-hot family so dashboards can count by state without
  // parsing label values out of a single gauge.
  typeLine(out, "mfbo_session_status", "gauge");
  for (const Json& session : sessions) {
    const std::string labels =
        "session=\"" + escapeLabel(session.at("session").asString()) +
        "\",status=\"" + escapeLabel(session.at("status").asString()) +
        "\"";
    sample(out, "mfbo_session_status", labels, 1.0);
  }

  // Step latency as a Prometheus summary: quantile samples plus _sum and
  // _count, all from the session's fixed-bucket histogram.
  typeLine(out, "mfbo_session_step_latency_seconds", "summary");
  static constexpr const char* kQuantiles[][2] = {
      {"0.5", "p50_s"}, {"0.9", "p90_s"}, {"0.99", "p99_s"}};
  for (const Json& session : sessions) {
    const std::string id = escapeLabel(session.at("session").asString());
    const Json& latency = session.at("step_latency");
    for (const auto& q : kQuantiles)
      sample(out, "mfbo_session_step_latency_seconds",
             "session=\"" + id + "\",quantile=\"" + q[0] + "\"",
             numberAt(latency, q[1]));
    sample(out, "mfbo_session_step_latency_seconds_sum",
           "session=\"" + id + "\"", numberAt(latency, "total_s"));
    sample(out, "mfbo_session_step_latency_seconds_count",
           "session=\"" + id + "\"", numberAt(latency, "count"));
  }

  const Json& pool = health.at("pool");
  typeLine(out, "mfbo_pool_workers", "gauge");
  sample(out, "mfbo_pool_workers", "", numberAt(pool, "workers"));
  typeLine(out, "mfbo_pool_regions_total", "counter");
  sample(out, "mfbo_pool_regions_total", "", numberAt(pool, "regions"));
  typeLine(out, "mfbo_pool_pooled_regions_total", "counter");
  sample(out, "mfbo_pool_pooled_regions_total", "",
         numberAt(pool, "pooled_regions"));
  typeLine(out, "mfbo_pool_chunks_total", "counter");
  sample(out, "mfbo_pool_chunks_total", "", numberAt(pool, "chunks"));
  typeLine(out, "mfbo_pool_queue_depth", "gauge");
  sample(out, "mfbo_pool_queue_depth", "", numberAt(pool, "queue_depth"));

  const Json& journal = health.at("eventlog");
  typeLine(out, "mfbo_eventlog_enabled", "gauge");
  sample(out, "mfbo_eventlog_enabled", "",
         journal.at("enabled").asBool() ? 1.0 : 0.0);
  typeLine(out, "mfbo_eventlog_recorded_total", "counter");
  sample(out, "mfbo_eventlog_recorded_total", "",
         numberAt(journal, "recorded"));
  typeLine(out, "mfbo_eventlog_dropped_total", "counter");
  sample(out, "mfbo_eventlog_dropped_total", "",
         numberAt(journal, "dropped"));
  return out;
}

namespace {

void writeWholeFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr)
    throw std::runtime_error("health: cannot open '" + path +
                             "' for writing");
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fputc('\n', f) != EOF;
  const bool ok = (std::fclose(f) == 0) && wrote;
  if (!ok)
    throw std::runtime_error("health: failed to write '" + path + "'");
}

}  // namespace

void writeHealthFiles(const Json& health, const std::string& path) {
  const memstats::PauseScope alloc_pause;
  writeWholeFile(path, health.dump());
  // The exposition re-derives from the same document, so the two files
  // can never disagree about a value.
  std::string prom = healthExposition(health);
  // healthExposition ends every line with '\n'; writeWholeFile appends a
  // final newline for the JSON file, so trim ours to avoid a blank line.
  if (!prom.empty() && prom.back() == '\n') prom.pop_back();
  writeWholeFile(path + ".prom", prom);
}

}  // namespace mfbo::service
