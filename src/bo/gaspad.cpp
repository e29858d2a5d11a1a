#include "bo/gaspad.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>

#include "bo/acquisition.h"
#include "common/check.h"
#include "common/spans.h"

namespace mfbo::bo {

namespace {

/// Feasible-first ranking indices: feasible entries by ascending objective,
/// then infeasible entries by ascending violation.
std::vector<std::size_t> meritOrder(const Dataset& data) {
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Evaluation& ea = data.evals[a];
    const Evaluation& eb = data.evals[b];
    const bool fa = ea.feasible(), fb = eb.feasible();
    if (fa != fb) return fa;
    if (fa) return ea.objective < eb.objective;
    return ea.totalViolation() < eb.totalViolation();
  });
  return order;
}

}  // namespace

SynthesisResult Gaspad::run(Problem& problem, std::uint64_t seed) const {
  const std::size_t d = problem.dim();
  MFBO_CHECK(d > 0, "problem has zero dimensions");
  const std::size_t nc = problem.numConstraints();
  const Box real_box = problem.bounds();
  const Box unit = Box::unitCube(d);
  Rng rng(seed);
  const spans::ScopedSpan run_span("gaspad");
  traceRunStart("gaspad", problem, seed, options_.max_sims);

  CostTracker tracker(problem.costRatio());
  std::vector<HistoryEntry> history;
  Dataset data;

  auto evaluate = [&](const Vector& u) {
    const spans::ScopedSpan sim_span("simulate_high");
    spans::addCounter("sims_high");
    const Vector x_real = real_box.fromUnit(u);
    Evaluation eval = problem.evaluate(x_real, Fidelity::kHigh);
    tracker.charge(Fidelity::kHigh);
    history.push_back({x_real, eval, Fidelity::kHigh, tracker.cost()});
    data.add(u, std::move(eval));
  };

  const std::size_t n_init =
      std::min<std::size_t>(options_.n_init,
                            static_cast<std::size_t>(options_.max_sims));
  for (const Vector& u : linalg::latinHypercube(n_init, unit, rng))
    evaluate(u);

  std::vector<gp::GpRegressor> models;
  models.reserve(1 + nc);
  for (std::size_t i = 0; i <= nc; ++i) {
    gp::GpConfig cfg = options_.gp;
    cfg.seed = seed * 999983u + i;
    models.emplace_back(std::make_unique<gp::SeArdKernel>(d), cfg);
  }
  auto fit_all = [&] {
    const spans::ScopedSpan fit_span("fit_high");
    models[0].fit(data.x, data.objectives());
    for (std::size_t i = 0; i < nc; ++i)
      models[1 + i].fit(data.x, data.constraintColumn(i));
  };
  fit_all();

  std::size_t iteration = 0;
  while (tracker.cost() + 1.0 <= options_.max_sims + 1e-9) {
    ++iteration;
    spans::addCounter("bo.gaspad.iterations");
    // Elite parent pool.
    const auto order = meritOrder(data);
    const std::size_t pop =
        std::min<std::size_t>(options_.population, order.size());

    // DE/rand/1/bin children from the elite pool; generation plus LCB
    // screening together form this algorithm's acquisition phase.
    std::optional<spans::ScopedSpan> phase_span;
    phase_span.emplace("acq_high");
    std::vector<Vector> children;
    children.reserve(options_.children);
    for (std::size_t c = 0; c < options_.children; ++c) {
      const std::size_t target = order[rng.index(pop)];
      Vector child = data.x[target];
      if (pop >= 4) {
        const auto picks = rng.distinctIndices(3, pop, pop);  // from elites
        const Vector& a = data.x[order[picks[0]]];
        const Vector& b = data.x[order[picks[1]]];
        const Vector& cc = data.x[order[picks[2]]];
        const std::size_t forced = rng.index(d);
        for (std::size_t j = 0; j < d; ++j) {
          if (j == forced || rng.uniform() < options_.crossover)
            child[j] = a[j] + options_.differential * (b[j] - cc[j]);
        }
      } else {
        // Tiny archive: fall back to Gaussian perturbation of an elite.
        child = linalg::gaussianJitterInBox(child, 0.1, unit, rng);
      }
      children.push_back(unit.clamp(std::move(child)));
    }

    // LCB pre-screening (feasible-first on optimistic bounds).
    Vector best_child;
    double best_key = std::numeric_limits<double>::max();
    bool best_optimistic_feasible = false;
    for (Vector& child : children) {
      double opt_violation = 0.0;
      for (std::size_t i = 0; i < nc; ++i) {
        const gp::Prediction p = models[1 + i].predict(child);
        opt_violation +=
            std::max(0.0, lowerConfidenceBound(p, options_.kappa));
      }
      const bool opt_feasible = opt_violation <= 0.0;
      const double key =
          opt_feasible
              ? lowerConfidenceBound(models[0].predict(child), options_.kappa)
              : opt_violation;
      if (best_child.empty() ||
          (opt_feasible && !best_optimistic_feasible) ||
          (opt_feasible == best_optimistic_feasible && key < best_key)) {
        best_child = std::move(child);
        best_key = key;
        best_optimistic_feasible = opt_feasible;
      }
    }

    spans::addCounter("children_screened", children.size());
    phase_span.reset();
    evaluate(dedupeCandidate(std::move(best_child), data, unit, rng));

    const bool retrain = options_.retrain_every <= 1 ||
                         iteration % options_.retrain_every == 0;

    if (iterationWanted(options_.observer)) {
      const spans::ScopedSpan observe_span("observe");
      IterationRecord rec;
      rec.algo = "gaspad";
      rec.iteration = iteration;
      rec.fidelity = Fidelity::kHigh;
      rec.retrained = retrain;
      // LCB pre-screening key of the simulated child (objective LCB when
      // optimistically feasible, otherwise the optimistic violation).
      rec.acquisition = best_key;
      rec.first_feasible_phase = !best_optimistic_feasible;
      rec.cumulative_cost = tracker.cost();
      rec.x = &history.back().x;
      rec.eval = &history.back().eval;
      if (const auto best = bestHighIndex(history)) {
        rec.best_objective = history[*best].eval.objective;
        rec.feasible_found = history[*best].eval.feasible();
      }
      publishIteration(rec, options_.observer);
    }

    if (retrain) {
      fit_all();
    } else {
      const spans::ScopedSpan fit_span("fit_high");
      models[0].addPoint(data.x.back(), data.evals.back().objective, false);
      for (std::size_t i = 0; i < nc; ++i)
        models[1 + i].addPoint(data.x.back(),
                               data.evals.back().constraints[i], false);
    }
  }

  SynthesisResult result = finalizeResult(std::move(history), tracker);
  traceRunEnd("gaspad", result);
  return result;
}

}  // namespace mfbo::bo
