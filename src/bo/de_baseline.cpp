#include "bo/de_baseline.h"

#include <algorithm>

#include "common/check.h"
#include "common/parallel.h"
#include "common/spans.h"
#include "opt/de.h"

namespace mfbo::bo {

SynthesisResult DeBaseline::run(Problem& problem, std::uint64_t seed) const {
  const std::size_t d = problem.dim();
  MFBO_CHECK(d > 0, "problem has zero dimensions");
  const Box box = problem.bounds();
  Rng rng(seed);
  const spans::ScopedSpan run_span("de");

  CostTracker tracker(problem.costRatio());
  std::vector<HistoryEntry> history;

  // Simulating touches no run state (Problem::evaluate is reentrant by
  // contract), so it can run as a pool task; recording is serial.
  auto simulate = [&](const Vector& x) {
    const spans::ScopedSpan sim_span("simulate_high");
    spans::addCounter("sims_high");
    return problem.evaluate(x, Fidelity::kHigh);
  };
  auto record = [&](const Vector& x, const Evaluation& eval) {
    tracker.charge(Fidelity::kHigh);
    history.push_back({x, eval, Fidelity::kHigh, tracker.cost()});
  };
  auto budget_left = [&] {
    return tracker.cost() + 1.0 <= options_.max_sims + 1e-9;
  };

  // The initial population is one pooled batch of as many members as the
  // budget covers (every simulation costs 1), recorded in index order.
  const std::size_t np = std::max<std::size_t>(options_.population, 4);
  std::vector<Vector> pop = linalg::latinHypercube(np, box, rng);
  std::size_t n_init = 0;
  while (n_init < np &&
         static_cast<double>(n_init) + 1.0 <= options_.max_sims + 1e-9)
    ++n_init;
  std::vector<Evaluation> evals = parallel::parallelMap(
      n_init, [&](std::size_t i) { return simulate(pop[i]); });
  evals.resize(np);
  for (std::size_t i = 0; i < n_init; ++i) record(pop[i], evals[i]);

  std::size_t generation = 0;
  while (budget_left()) {
    ++generation;
    spans::addCounter("bo.de.generations");
    for (std::size_t i = 0; i < np && budget_left(); ++i) {
      const auto picks = rng.distinctIndices(3, np, i);
      Vector trial = opt::deRand1Bin(pop[i], pop[picks[0]], pop[picks[1]],
                                     pop[picks[2]], options_.differential,
                                     options_.crossover, rng);
      trial = box.clamp(std::move(trial));
      const Evaluation trial_eval = simulate(trial);
      record(trial, trial_eval);
      // Ties go to the trial, so a plateau keeps the population moving.
      if (!evals[i].betterThan(trial_eval)) {
        pop[i] = std::move(trial);
        evals[i] = trial_eval;
        spans::addCounter("bo.de.replacements");
      }
    }

    // One progress record per generation (every trial costs a simulation,
    // so per-trial events would dwarf the BO algorithms' traces).
    if (options_.observer && !history.empty()) {
      const spans::ScopedSpan observe_span("observe");
      IterationRecord rec;
      rec.algo = "de";
      rec.iteration = generation;
      rec.fidelity = Fidelity::kHigh;
      rec.cumulative_cost = tracker.cost();
      rec.x = &history.back().x;
      rec.eval = &history.back().eval;
      if (const auto best = bestHighIndex(history)) {
        rec.best_objective = history[*best].eval.objective;
        rec.feasible_found = history[*best].eval.feasible();
      }
      options_.observer(rec);
    }
  }

  return finalizeResult(std::move(history), tracker);
}

}  // namespace mfbo::bo
