#include "bo/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/check.h"
#include "common/json.h"
#include "common/spans.h"
#include "common/telemetry.h"

namespace mfbo::bo {

namespace {

Json vectorToJson(const Vector& v) { return Json::numberArray(v); }

/// Number field that serializes NaN (field not applicable) as null.
Json numberOrNull(double v) {
  return std::isfinite(v) ? Json::number(v) : Json::null();
}

Json iterationToJson(const IterationRecord& r) {
  Json e = Json::object();
  e.set("type", "iteration");
  e.set("algo", std::string(r.algo));
  e.set("iter", r.iteration);
  e.set("fidelity", fidelityName(r.fidelity));
  e.set("downgraded", r.downgraded);
  e.set("retrained", r.retrained);
  e.set("first_feasible_phase", r.first_feasible_phase);
  e.set("acq", numberOrNull(r.acquisition));
  e.set("tau_l", numberOrNull(r.tau_l));
  e.set("tau_h", numberOrNull(r.tau_h));
  e.set("max_norm_var", numberOrNull(r.max_norm_var));
  e.set("threshold", numberOrNull(r.threshold));
  e.set("norm_low_var", r.norm_low_var.empty()
                            ? Json::null()
                            : Json::numberArray(r.norm_low_var));
  e.set("x_star_l",
        r.x_star_l != nullptr ? vectorToJson(*r.x_star_l) : Json::null());
  e.set("x_t_raw",
        r.x_t_raw != nullptr ? vectorToJson(*r.x_t_raw) : Json::null());
  e.set("deduped", r.deduped);
  e.set("x", r.x != nullptr ? vectorToJson(*r.x) : Json::null());
  if (r.eval != nullptr) {
    e.set("objective", numberOrNull(r.eval->objective));
    e.set("constraints", Json::numberArray(r.eval->constraints));
    e.set("feasible", r.eval->feasible());
  } else {
    e.set("objective", Json::null());
    e.set("constraints", Json::null());
    e.set("feasible", Json::null());
  }
  e.set("best_objective", numberOrNull(r.best_objective));
  e.set("feasible_found", r.feasible_found);
  e.set("cost", r.cumulative_cost);
  return e;
}

}  // namespace

bool iterationWanted(const IterationObserver& observer) {
  return static_cast<bool>(observer) || telemetry::traceEnabled();
}

void publishIteration(const IterationRecord& record,
                      const IterationObserver& observer) {
  if (observer) observer(record);
  if (telemetry::traceEnabled())
    telemetry::emitTrace(iterationToJson(record));
}

void traceRunStart(std::string_view algo, const Problem& problem,
                   std::uint64_t seed, double budget) {
  if (!telemetry::traceEnabled()) return;
  Json e = Json::object();
  e.set("type", "run_start");
  e.set("algo", std::string(algo));
  e.set("problem", problem.name());
  e.set("dim", problem.dim());
  e.set("num_constraints", problem.numConstraints());
  e.set("cost_ratio", problem.costRatio());
  e.set("budget", budget);
  e.set("seed", Json::number(static_cast<double>(seed)));
  telemetry::emitTrace(e);
}

void traceRunEnd(std::string_view algo, const SynthesisResult& result) {
  if (!telemetry::traceEnabled()) return;
  Json e = Json::object();
  e.set("type", "run_end");
  e.set("algo", std::string(algo));
  e.set("best_objective", numberOrNull(result.best_eval.objective));
  e.set("feasible_found", result.feasible_found);
  e.set("n_low", result.n_low);
  e.set("n_high", result.n_high);
  e.set("equivalent_high_sims", result.equivalent_high_sims);
  telemetry::emitTrace(e);
}

IterationObserver stderrProgressObserver() {
  return [](const IterationRecord& r) {
    std::fprintf(stderr,
                 "[%-6.*s it %4zu] fid=%-4s cost=%8.2f best=%.6g "
                 "feasible=%s%s%s\n",
                 static_cast<int>(r.algo.size()), r.algo.data(), r.iteration,
                 fidelityName(r.fidelity), r.cumulative_cost,
                 r.best_objective, r.feasible_found ? "yes" : "no",
                 r.first_feasible_phase ? " [first-feasible]" : "",
                 r.downgraded ? " [downgraded]" : "");
  };
}

std::optional<std::size_t> Dataset::bestFeasible() const {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < evals.size(); ++i) {
    if (!evals[i].feasible()) continue;
    if (!best || evals[i].objective < evals[*best].objective) best = i;
  }
  return best;
}

std::size_t Dataset::bestByMerit() const {
  MFBO_CHECK(!evals.empty(), "empty dataset");
  if (const auto feasible = bestFeasible()) return *feasible;
  std::size_t best = 0;
  for (std::size_t i = 1; i < evals.size(); ++i)
    if (evals[i].totalViolation() < evals[best].totalViolation()) best = i;
  return best;
}

std::vector<double> Dataset::objectives() const {
  std::vector<double> out(evals.size());
  for (std::size_t i = 0; i < evals.size(); ++i) out[i] = evals[i].objective;
  return out;
}

std::vector<double> Dataset::constraintColumn(std::size_t i) const {
  std::vector<double> out(evals.size());
  for (std::size_t k = 0; k < evals.size(); ++k) {
    MFBO_CHECK(i < evals[k].constraints.size(), "constraint ", i,
               " out of range: evaluation ", k, " has ",
               evals[k].constraints.size(), " constraints");
    out[k] = evals[k].constraints[i];
  }
  return out;
}

double Dataset::minDistance(const Vector& point) const {
  double best = std::numeric_limits<double>::infinity();
  for (const Vector& xi : x) best = std::min(best, (xi - point).norm());
  return best;
}

Vector maximizeAcquisitionMsp(const opt::ScalarObjective& acquisition,
                              const Box& box,
                              const std::optional<Vector>& incumbent_l,
                              const std::optional<Vector>& incumbent_h,
                              const MspOptions& options, Rng& rng,
                              const std::vector<Vector>& extra_starts) {
  // Partition starts into (random, around τ_l, around τ_h).
  std::size_t n_tau_l =
      incumbent_l ? static_cast<std::size_t>(
                        std::round(options.frac_tau_l *
                                   static_cast<double>(options.n_starts)))
                  : 0;
  std::size_t n_tau_h =
      incumbent_h ? static_cast<std::size_t>(
                        std::round(options.frac_tau_h *
                                   static_cast<double>(options.n_starts)))
                  : 0;
  const std::size_t n_random =
      options.n_starts > n_tau_l + n_tau_h
          ? options.n_starts - n_tau_l - n_tau_h
          : 1;

  std::vector<Vector> incumbents;
  std::vector<std::size_t> counts;
  if (incumbent_l) {
    incumbents.push_back(*incumbent_l);
    counts.push_back(n_tau_l);
  }
  if (incumbent_h) {
    incumbents.push_back(*incumbent_h);
    counts.push_back(n_tau_h);
  }
  std::vector<Vector> starts = opt::composeStarts(
      n_random, incumbents, counts, options.relative_sd, box, rng);
  for (const Vector& s : extra_starts) starts.push_back(box.clamp(s));

  // Minimize the negated acquisition from every start.
  opt::ScalarObjective negated = [&acquisition](const Vector& x) {
    return -acquisition(x);
  };
  opt::MultistartOptions ms;
  ms.local = options.local;
  const opt::OptResult r = opt::multistartMinimize(negated, starts, box, ms);

  // Attribute the winning start to its provenance — the §4.1 placement
  // policy (random LHS / τ_l scatter / τ_h scatter / caller-provided seeds
  // such as x*_l) is only worth its cost if the non-random starts win.
  // composeStarts lays the list out as [random | τ_l | τ_h | extra].
  const std::size_t tau_l_end = n_random + n_tau_l;  // n_tau_* are already 0
  const std::size_t tau_h_end = tau_l_end + n_tau_h;  // without an incumbent
  if (r.best_start < n_random) {
    spans::addCounter("bo.msp.best_start_random");
  } else if (r.best_start < tau_l_end) {
    spans::addCounter("bo.msp.best_start_tau_l");
  } else if (r.best_start < tau_h_end) {
    spans::addCounter("bo.msp.best_start_tau_h");
  } else {
    spans::addCounter("bo.msp.best_start_seed");
  }
  return r.x;
}

Vector minimizeCriterionMsp(const opt::ScalarObjective& criterion,
                            const Box& box, std::size_t n_starts,
                            const opt::NelderMeadOptions& local, Rng& rng) {
  MFBO_CHECK(box.dim() >= 1, "empty search box");
  std::vector<Vector> starts =
      linalg::latinHypercube(std::max<std::size_t>(n_starts, 1), box, rng);
  opt::MultistartOptions ms;
  ms.local = local;
  return opt::multistartMinimize(criterion, starts, box, ms).x;
}

Vector dedupeCandidate(Vector candidate, const Dataset& data, const Box& box,
                       Rng& rng, double min_dist) {
  return dedupeCandidate(std::move(candidate), {&data}, box, rng, min_dist);
}

Vector dedupeCandidate(Vector candidate,
                       std::initializer_list<const Dataset*> data,
                       const Box& box, Rng& rng, double min_dist) {
  MFBO_CHECK(candidate.size() == box.dim(), "candidate dim ",
             candidate.size(), " does not match box dim ", box.dim());
  constexpr int kMaxTries = 16;
  const auto too_close = [&](const Vector& point) {
    for (const Dataset* ds : data)
      if (ds->minDistance(point) < min_dist) return true;
    return false;
  };
  double sd = 1e-4;
  for (int attempt = 0; attempt < kMaxTries && too_close(candidate);
       ++attempt, sd *= 2.0) {
    candidate = linalg::gaussianJitterInBox(candidate, sd, box, rng);
  }
  return candidate;
}

SynthesisResult finalizeResult(std::vector<HistoryEntry> history,
                               const CostTracker& tracker) {
  SynthesisResult result;
  result.n_low = tracker.numLow();
  result.n_high = tracker.numHigh();
  result.equivalent_high_sims = tracker.cost();
  if (const auto best = bestHighIndex(history)) {
    result.best_x = history[*best].x;
    result.best_eval = history[*best].eval;
    result.feasible_found = history[*best].eval.feasible();
  }
  result.history = std::move(history);
  return result;
}

std::optional<std::size_t> bestHighIndex(
    const std::vector<HistoryEntry>& history) {
  std::optional<std::size_t> best;
  bool best_feasible = false;
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (history[i].fidelity != Fidelity::kHigh) continue;
    const Evaluation& e = history[i].eval;
    const bool feasible = e.feasible();
    if (!best) {
      best = i;
      best_feasible = feasible;
      continue;
    }
    const Evaluation& b = history[*best].eval;
    if (feasible && !best_feasible) {
      best = i;
      best_feasible = true;
    } else if (feasible == best_feasible) {
      const bool better = feasible
                              ? e.objective < b.objective
                              : e.totalViolation() < b.totalViolation();
      if (better) best = i;
    }
  }
  return best;
}

}  // namespace mfbo::bo
