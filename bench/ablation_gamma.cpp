// Ablation: sensitivity of the fidelity-selection threshold γ (eq. 11).
//
// γ → 0 forces every BO sample to the cheap model (the surrogate never
// gets high-fidelity corrections); γ → ∞ sends every sample to the
// expensive model (pure high-fidelity BO with a low-fidelity prior). The
// paper fixes γ = 0.01 "empirically" — this bench sweeps it.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bo/mfbo.h"
#include "problems/synthetic.h"

int main(int argc, char** argv) {
  using namespace mfbo;
  const bench::BenchConfig cfg = bench::parseArgs(argc, argv);
  const std::size_t runs = cfg.runs(5, 12);
  const double budget = cfg.scale(12, 30);

  problems::ForresterProblem problem;

  std::printf("# Ablation: fidelity threshold gamma (Forrester, budget "
              "%.0f, %zu runs; true min -6.0207)\n\n",
              budget, runs);
  std::printf("%10s %10s %10s %10s %10s %10s\n", "gamma", "mean f",
              "worst f", "avg nlow", "avg nhigh", "avg #sim");

  std::vector<bench::AlgoStats> sweep;
  sweep.reserve(5);
  for (double gamma : {0.0, 1e-3, 1e-2, 1e-1, 1e9}) {
    bo::MfboOptions opt;
    opt.n_init_low = 12;
    opt.n_init_high = 4;
    opt.budget = budget;
    opt.gamma = gamma;
    opt.msp.n_starts = 10;
    opt.msp.local.max_evaluations = 80;
    opt.nargp.n_mc = 40;
    opt.nargp.low.n_restarts = 1;
    opt.nargp.high.n_restarts = 1;

    char label[32];
    std::snprintf(label, sizeof label, "gamma=%.0e", gamma);
    bench::AlgoStats stats{label};
    std::vector<double> nlow, nhigh;
    for (std::size_t r = 0; r < runs; ++r) {
      const auto res =
          bench::runOnce(cfg, bo::MfboSynthesizer(opt), problem, cfg.seed + r);
      stats.add(res);
      nlow.push_back(static_cast<double>(res.n_low));
      nhigh.push_back(static_cast<double>(res.n_high));
    }
    const auto s = stats.summary(true);
    std::printf("%10.0e %10.4f %10.4f %10.1f %10.1f %10.1f\n", gamma, s.mean,
                s.worst, linalg::mean(nlow), linalg::mean(nhigh),
                stats.avgSims());
    sweep.push_back(std::move(stats));
  }
  std::vector<const bench::AlgoStats*> algos;
  for (const auto& s : sweep) algos.push_back(&s);
  bench::writeArtifact(cfg, "ablation_gamma", runs, algos);
  std::printf("\n# paper's choice gamma = 0.01 should sit at (or near) the "
              "sweet spot.\n");
  return 0;
}
