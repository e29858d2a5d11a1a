#include "layers.h"

#include <cmath>
#include <limits>
#include <sstream>

namespace perfbench {

using mfbo::Json;
namespace bo = mfbo::bo;
namespace mf = mfbo::mf;

void OpStat::add(Clock::duration elapsed) {
  count.fetch_add(1, std::memory_order_relaxed);
  busy_ns.fetch_add(static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            elapsed)
                            .count()),
                    std::memory_order_relaxed);
}

double OpStat::busySeconds() const {
  return static_cast<double>(busy_ns.load(std::memory_order_relaxed)) * 1e-9;
}

bo::Evaluation TimedProblem::evaluate(const bo::Vector& x,
                                      bo::Fidelity fidelity) {
  const ScopedOp op(fidelity == bo::Fidelity::kHigh ? stats_.eval_high
                                                    : stats_.eval_low);
  return inner_->evaluate(x, fidelity);
}

void TimedSurrogate::fit(std::vector<mfbo::linalg::Vector> x_low,
                         std::vector<double> y_low,
                         std::vector<mfbo::linalg::Vector> x_high,
                         std::vector<double> y_high) {
  const ScopedOp op(stats_.fit);
  inner_->fit(std::move(x_low), std::move(y_low), std::move(x_high),
              std::move(y_high));
}

void TimedSurrogate::addLow(const mfbo::linalg::Vector& x, double y,
                            bool retrain) {
  const ScopedOp op(retrain ? stats_.add_retrain : stats_.add_incremental);
  inner_->addLow(x, y, retrain);
}

void TimedSurrogate::addHigh(const mfbo::linalg::Vector& x, double y,
                             bool retrain) {
  const ScopedOp op(retrain ? stats_.add_retrain : stats_.add_incremental);
  inner_->addHigh(x, y, retrain);
}

mf::Prediction TimedSurrogate::predictLow(
    const mfbo::linalg::Vector& x) const {
  const ScopedOp op(stats_.predict_low);
  return inner_->predictLow(x);
}

mf::Prediction TimedSurrogate::predictHigh(
    const mfbo::linalg::Vector& x) const {
  const ScopedOp op(stats_.predict_high);
  return inner_->predictHigh(x);
}

std::unique_ptr<mf::MfSurrogate> TimedSurrogate::clone() const {
  stats_.clones.fetch_add(1, std::memory_order_relaxed);
  return std::make_unique<TimedSurrogate>(inner_->clone(), stats_);
}

std::unique_ptr<mf::MfSurrogate> defaultNargp(const mf::NargpConfig& config,
                                              std::size_t x_dim,
                                              std::uint64_t seed) {
  // Mirrors the factory-less branch of MfboEngine::buildModels.
  mf::NargpConfig cfg = config;
  cfg.seed = seed;
  cfg.low.seed = seed + 17;
  cfg.high.seed = seed + 31;
  return std::make_unique<mf::NargpModel>(x_dim, cfg);
}

bo::SurrogateFactory timedNargpFactory(mf::NargpConfig config,
                                       SurrogateStats& stats) {
  return [config, &stats](std::size_t x_dim, std::uint64_t seed)
             -> std::unique_ptr<mf::MfSurrogate> {
    return std::make_unique<TimedSurrogate>(defaultNargp(config, x_dim, seed),
                                            stats);
  };
}

bo::IterationObserver iterationObserver(IterationStats& stats) {
  struct Incumbent {
    bool known = false;
    double objective = 0.0;
    bool feasible = false;
  };
  auto last = std::make_shared<Incumbent>();
  return [&stats, last](const bo::IterationRecord& rec) {
    ++stats.iterations;
    if (rec.deduped) ++stats.deduped;
    if (rec.fidelity == bo::Fidelity::kHigh) ++stats.high;
    // best_objective is NaN until a high-fidelity point exists; an
    // incumbent change is a change of the (objective, feasible) pair.
    if (std::isnan(rec.best_objective)) return;
    const bool changed = !last->known ||
                         rec.best_objective != last->objective ||
                         rec.feasible_found != last->feasible;
    if (changed && last->known) ++stats.improved;
    *last = {true, rec.best_objective, rec.feasible_found};
  };
}

namespace {

std::uint64_t counterValue(const Json& node, const char* name) {
  if (!node.contains("counters")) return 0;
  const Json& counters = node.at("counters");
  if (!counters.contains(name)) return 0;
  return static_cast<std::uint64_t>(counters.at(name).asNumber());
}

void accumulateNode(const std::string& name, const Json& node,
                    SpanTotals& totals) {
  totals.alloc_count += counterValue(node, "alloc_count");
  totals.alloc_bytes += counterValue(node, "alloc_bytes");
  if (!name.empty()) {
    for (const SpanMetric& m : kSpanMetrics) {
      if (name != m.span) continue;
      SpanTotals::Node& out = totals.nodes[m.metric];
      out.count += static_cast<std::uint64_t>(node.at("count").asNumber());
      if (node.contains("self_s")) out.self_s += node.at("self_s").asNumber();
    }
  }
  if (!node.contains("children")) return;
  for (const auto& [child_name, child] : node.at("children").members())
    accumulateNode(child_name, child, totals);
}

double numberOrNan(const Json& v) {
  return v.isNumber() ? v.asNumber()
                      : std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

void accumulateSpans(const Json& tree, SpanTotals& totals) {
  accumulateNode("", tree, totals);
}

std::vector<bo::HistoryEntry> historyFromJson(const Json& result) {
  std::vector<bo::HistoryEntry> history;
  for (const Json& e : result.at("history").items()) {
    bo::HistoryEntry h;
    std::vector<double> x;
    for (const Json& v : e.at("x").items()) x.push_back(numberOrNan(v));
    h.x = bo::Vector(std::move(x));
    h.eval.objective = numberOrNan(e.at("objective"));
    for (const Json& c : e.at("constraints").items())
      h.eval.constraints.push_back(numberOrNan(c));
    h.fidelity = e.at("fidelity").asString() == "high" ? bo::Fidelity::kHigh
                                                         : bo::Fidelity::kLow;
    h.cumulative_cost = numberOrNan(e.at("cost"));
    history.push_back(std::move(h));
  }
  return history;
}

double costToReachBest(const Json& result) {
  const std::vector<bo::HistoryEntry> history = historyFromJson(result);
  const auto best = bo::bestHighIndex(history);
  return best ? history[*best].cumulative_cost
              : result.at("equivalent_high_sims").asNumber();
}

std::string checkResult(const Json& result, bo::Problem& problem,
                        double budget, bool reevaluate) {
  std::ostringstream why;
  why.precision(17);
  const double cost = result.at("equivalent_high_sims").asNumber();
  const double n_low = result.at("n_low").asNumber();
  const double n_high = result.at("n_high").asNumber();
  const double ratio = problem.costRatio();
  if (!(cost <= budget + 1e-9)) {
    why << "cost " << cost << " exceeds budget " << budget;
    return why.str();
  }
  if (std::abs(n_high + n_low / ratio - cost) > 1e-9 * std::max(1.0, cost)) {
    why << "n_low " << n_low << " / n_high " << n_high
        << " disagree with cost " << cost << " at ratio " << ratio;
    return why.str();
  }
  const std::vector<bo::HistoryEntry> history = historyFromJson(result);
  std::size_t highs = 0;
  for (const bo::HistoryEntry& h : history)
    if (h.fidelity == bo::Fidelity::kHigh) ++highs;
  if (static_cast<double>(history.size()) != n_low + n_high ||
      static_cast<double>(highs) != n_high) {
    why << "history holds " << history.size() << " entries (" << highs
        << " high), counters say " << n_low << " low / " << n_high << " high";
    return why.str();
  }
  std::vector<double> best_x;
  for (const Json& v : result.at("best_x").items())
    best_x.push_back(numberOrNan(v));
  const bo::Box box = problem.bounds();
  if (best_x.size() != problem.dim()) return "best_x has the wrong dimension";
  for (std::size_t i = 0; i < best_x.size(); ++i) {
    // The engine maps unit-cube points to the box in floating point, so a
    // point on a face may land a rounding error outside it.
    const double slack = 1e-12 * (box.upper[i] - box.lower[i]);
    if (!(best_x[i] >= box.lower[i] - slack &&
          best_x[i] <= box.upper[i] + slack)) {
      why << "best_x[" << i << "] = " << best_x[i] << " outside ["
          << box.lower[i] << ", " << box.upper[i] << "]";
      return why.str();
    }
  }
  if (reevaluate) {
    const bo::Evaluation eval =
        problem.evaluate(bo::Vector(best_x), bo::Fidelity::kHigh);
    const bool feasible = result.at("feasible_found").asBool();
    const double objective = numberOrNan(result.at("best_objective"));
    if (eval.feasible() != feasible) {
      why << "reported feasible_found=" << feasible
          << " but a high-fidelity re-evaluation of best_x says "
          << eval.feasible();
      return why.str();
    }
    if (!(std::abs(eval.objective - objective) <=
          1e-12 * std::max(1.0, std::abs(objective)))) {
      why << "reported best objective " << objective
          << " but re-evaluation gives " << eval.objective;
      return why.str();
    }
  }
  return "";
}

}  // namespace perfbench
