#include "opt/multistart.h"

#include "common/check.h"
#include "common/parallel.h"
#include "common/spans.h"

namespace mfbo::opt {

OptResult multistartMinimize(const ScalarObjective& f,
                             const std::vector<Vector>& starts, const Box& box,
                             const MultistartOptions& options) {
  MFBO_CHECK(!starts.empty(), "no starting points");
  const spans::ScopedSpan multistart_span("multistart");

  // One local refinement per task; each writes into its own slot, so the
  // objective only needs to be safe for concurrent const invocation.
  std::vector<OptResult> locals = parallel::parallelMap(
      starts.size(), [&](std::size_t i) {
        // Per-start span (never per chunk): counts stay thread-independent.
        const spans::ScopedSpan local_span("local_search");
        return nelderMeadMinimize(f, box.clamp(starts[i]), box,
                                  options.local);
      });

  // Ordered reduction in start order: strict < keeps the lowest-indexed
  // winner on ties, and MSP best-start provenance stays exact at any
  // thread count.
  OptResult best;
  bool first = true;
  std::size_t total_evaluations = 0;
  std::size_t total_iterations = 0;
  for (std::size_t i = 0; i < locals.size(); ++i) {
    total_evaluations += locals[i].evaluations;
    total_iterations += locals[i].iterations;
    if (first || locals[i].value < best.value) {
      best = std::move(locals[i]);
      best.best_start = i;
      first = false;
    }
  }
  // Report the cumulative search effort, not just the winning restart's.
  best.evaluations = total_evaluations;
  best.iterations = total_iterations;

  spans::addCounter("opt.multistart.local_iterations", total_iterations);
  spans::addCounter("opt.multistart.evaluations", total_evaluations);
  return best;
}

std::vector<Vector> composeStarts(std::size_t n_random,
                                  const std::vector<Vector>& incumbents,
                                  const std::vector<std::size_t>& counts,
                                  double relative_sd, const Box& box,
                                  linalg::Rng& rng) {
  MFBO_CHECK(incumbents.size() == counts.size(), "got ", incumbents.size(),
             " incumbents but ", counts.size(), " counts");
  std::vector<Vector> starts = linalg::latinHypercube(n_random, box, rng);
  for (std::size_t i = 0; i < incumbents.size(); ++i) {
    for (std::size_t k = 0; k < counts[i]; ++k)
      starts.push_back(
          linalg::gaussianJitterInBox(incumbents[i], relative_sd, box, rng));
  }
  return starts;
}

}  // namespace mfbo::opt
