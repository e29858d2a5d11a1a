#include "bo/gaspad.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>

#include "bo/acquisition.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/spans.h"
#include "opt/de.h"

namespace mfbo::bo {

namespace {

/// Indices of @p data ranked best first under Evaluation::betterThan:
/// feasible entries by ascending objective, then infeasible entries by
/// ascending violation.
std::vector<std::size_t> meritOrder(const Dataset& data) {
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return data.evals[a].betterThan(data.evals[b]);
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

  CostTracker tracker(problem.costRatio());
  std::vector<HistoryEntry> history;
  Dataset data;

  // Simulating touches no run state (Problem::evaluate is reentrant by
  // contract), so it can run as a pool task; recording is serial.
  auto simulate = [&](const Vector& u) {
    const spans::ScopedSpan sim_span("simulate_high");
    spans::addCounter("sims_high");
    return problem.evaluate(real_box.fromUnit(u), Fidelity::kHigh);
  };
  auto record = [&](const Vector& u, Evaluation eval) {
    tracker.charge(Fidelity::kHigh);
    history.push_back(
        {real_box.fromUnit(u), eval, Fidelity::kHigh, tracker.cost()});
    data.add(u, std::move(eval));
  };

  // The initial design is one pooled batch, recorded in LHS order.
  const std::size_t n_init =
      std::min<std::size_t>(options_.n_init,
                            static_cast<std::size_t>(options_.max_sims));
  const std::vector<Vector> init = linalg::latinHypercube(n_init, unit, rng);
  std::vector<Evaluation> init_evals = parallel::parallelMap(
      init.size(), [&](std::size_t i) { return simulate(init[i]); });
  for (std::size_t i = 0; i < init.size(); ++i)
    record(init[i], std::move(init_evals[i]));

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
      Vector child = data.x[order[rng.index(pop)]];
      if (pop >= 4) {
        const auto picks = rng.distinctIndices(3, pop, pop);  // from elites
        const Vector& a = data.x[order[picks[0]]];
        const Vector& b = data.x[order[picks[1]]];
        const Vector& cc = data.x[order[picks[2]]];
        child = opt::deRand1Bin(std::move(child), a, b, cc,
                                options_.differential, options_.crossover, rng);
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
    const Vector u = dedupeCandidate(std::move(best_child), data, unit, rng);
    record(u, simulate(u));

    const bool retrain = options_.retrain_every <= 1 ||
                         iteration % options_.retrain_every == 0;

    if (options_.observer) {
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
      options_.observer(rec);
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

  return finalizeResult(std::move(history), tracker);
}

}  // namespace mfbo::bo
