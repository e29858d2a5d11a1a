// Ablation: the §4.2 first-feasible strategy — while no feasible point is
// known, minimize Σ max(0, µ_i) (eq. 13) instead of the wEI.
//
// On a constrained problem whose feasible region is a thin slab, the wEI
// alone can stall: both EI and PF are near zero almost everywhere, so the
// acquisition landscape gives no direction. The eq. (13) criterion is a
// smooth "distance to predicted feasibility" and pulls the search in.
// This bench measures the cost to reach the first feasible point with the
// strategy on and off.
#include <cstdio>

#include "bench_common.h"
#include "bo/mfbo.h"
#include "problems/synthetic.h"

namespace {

using namespace mfbo;

/// Cost at which the first feasible high-fidelity point appeared (∞ if
/// none).
double costToFirstFeasible(const bo::SynthesisResult& r) {
  for (const auto& h : r.history)
    if (h.fidelity == bo::Fidelity::kHigh && h.eval.feasible())
      return h.cumulative_cost;
  return std::numeric_limits<double>::infinity();
}

/// Thin-slab constrained problem: minimize ‖x−0.2‖² subject to
/// 0.76 ≤ Σx_i/d ≤ 0.78. In 8-d the coordinate mean concentrates around
/// 0.5 (σ ≈ 0.10), so a random point is feasible with probability ≈0.3% —
/// the initial design essentially never contains one, and the objective
/// actively pulls the search away from the slab.
class ThinSlabProblem final : public bo::Problem {
 public:
  explicit ThinSlabProblem(std::size_t d) : d_(d) {}
  std::string name() const override { return "thin-slab"; }
  std::size_t dim() const override { return d_; }
  std::size_t numConstraints() const override { return 2; }
  bo::Box bounds() const override {
    return bo::Box(bo::Vector(d_, 0.0), bo::Vector(d_, 1.0));
  }
  double costRatio() const override { return 10.0; }
  bo::Evaluation evaluate(const bo::Vector& x, bo::Fidelity f) override {
    double obj = 0.0, mean = 0.0;
    for (std::size_t i = 0; i < d_; ++i) {
      obj += (x[i] - 0.2) * (x[i] - 0.2);
      mean += x[i] / static_cast<double>(d_);
    }
    bo::Evaluation e;
    if (f == bo::Fidelity::kLow) {
      e.objective = 0.92 * obj + 0.05 * std::sin(4.0 * mean);
      e.constraints = {0.76 - mean + 0.005, mean - 0.78 + 0.005};
    } else {
      e.objective = obj;
      e.constraints = {0.76 - mean, mean - 0.78};
    }
    return e;
  }

 private:
  std::size_t d_;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchConfig cfg = bench::parseArgs(argc, argv);
  const std::size_t runs = cfg.runs(5, 12);
  const double budget = cfg.scale(25, 50);

  ThinSlabProblem problem(8);

  bo::MfboOptions on;
  on.n_init_low = 15;
  on.n_init_high = 5;
  on.budget = budget;
  on.msp.n_starts = 10;
  on.msp.local.max_evaluations = 80;
  on.nargp.n_mc = 40;
  on.nargp.low.n_restarts = 1;
  on.nargp.high.n_restarts = 1;

  bo::MfboOptions off = on;
  off.use_first_feasible = false;

  bench::AlgoStats stats_on{"first_feasible_on"};
  bench::AlgoStats stats_off{"first_feasible_off"};
  std::size_t found_on = 0, found_off = 0;
  std::vector<double> cost_on, cost_off;
  for (std::size_t r = 0; r < runs; ++r) {
    const auto a =
        bench::runOnce(cfg, bo::MfboSynthesizer(on), problem, cfg.seed + r);
    const auto b =
        bench::runOnce(cfg, bo::MfboSynthesizer(off), problem, cfg.seed + r);
    stats_on.add(a);
    stats_off.add(b);
    const double ca = costToFirstFeasible(a);
    const double cb = costToFirstFeasible(b);
    if (std::isfinite(ca)) {
      ++found_on;
      cost_on.push_back(ca);
    }
    if (std::isfinite(cb)) {
      ++found_off;
      cost_off.push_back(cb);
    }
  }

  std::printf("# Ablation: first-feasible strategy (thin-slab problem, "
              "budget %.0f, %zu runs)\n\n",
              budget, runs);
  std::printf("%-28s %14s %20s\n", "strategy", "feasible found",
              "avg cost to feasible");
  std::printf("%-28s %11zu/%zu %20s\n", "eq. (13) first-feasible (on)",
              found_on, runs,
              cost_on.empty()
                  ? "-"
                  : std::to_string(linalg::mean(cost_on)).c_str());
  std::printf("%-28s %11zu/%zu %20s\n", "wEI only (off)", found_off, runs,
              cost_off.empty()
                  ? "-"
                  : std::to_string(linalg::mean(cost_off)).c_str());
  bench::writeArtifact(cfg, "ablation_feasible", runs,
                       {&stats_on, &stats_off});
  return 0;
}
