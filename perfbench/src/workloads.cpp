#include "workloads.h"

#include "problems/charge_pump.h"
#include "problems/power_amplifier.h"
#include "problems/synthetic.h"

namespace perfbench {

namespace bo = mfbo::bo;

namespace {

/// SplitMix64 finalizer: a bijective mix, so distinct (seed, index) pairs
/// give well-spread, distinct job seeds.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::kPaSynth:
      return "pa_synth";
    case Workload::kCpSynth:
      return "cp_synth";
    case Workload::kFleetSessions:
      return "fleet_sessions";
  }
  return "unknown";
}

std::optional<Workload> parseWorkload(std::string_view name) {
  for (Workload w :
       {Workload::kPaSynth, Workload::kCpSynth, Workload::kFleetSessions})
    if (name == workloadName(w)) return w;
  return std::nullopt;
}

JobInput jobInput(Workload workload, std::uint64_t seed, std::size_t index) {
  const std::uint64_t h =
      mix(mix(seed ^ (static_cast<std::uint64_t>(workload) << 56)) + index);
  JobInput job;
  // Engine seeds stay below 2^32 so they read the same in every log.
  job.seed = h >> 32;
  // One fleet session in four proposes q = 2 points per batch. A q = 2
  // session finishes in about half the rounds, so an even mix would put the
  // median session latency on the edge between the two groups.
  job.batch_size =
      workload == Workload::kFleetSessions && ((h >> 7) & 3u) == 0 ? 2 : 1;
  job.id = std::string(1, workload == Workload::kFleetSessions ? 's' : 'j')
               .append(std::to_string(index));
  return job;
}

bo::MfboOptions workloadOptions(Workload workload, std::size_t q) {
  bo::MfboOptions opt;
  opt.batch_size = q;
  switch (workload) {
    case Workload::kPaSynth:
      // Table 1's quick settings at a 10-equivalent-sim budget, with the
      // fidelity threshold raised from 0.01 to 0.1: high-fidelity
      // transients then take most of each job, and every job spends its
      // budget the same way (20 low / 9 high), so job times barely depend
      // on the seed.
      opt.n_init_low = 10;
      opt.n_init_high = 5;
      opt.budget = 10.0;
      opt.gamma = 0.1;
      opt.retrain_every = 2;
      opt.msp.n_starts = 12;
      opt.msp.local.max_evaluations = 80;
      opt.nargp.n_mc = 40;
      break;
    case Workload::kCpSynth:
      // Table 2's quick settings at a 14-equivalent-sim budget.
      opt.n_init_low = 30;
      opt.n_init_high = 10;
      opt.budget = 14.0;
      opt.retrain_every = 3;
      opt.msp.n_starts = 10;
      opt.msp.local.max_evaluations = 80;
      opt.nargp.n_mc = 40;
      break;
    case Workload::kFleetSessions:
      // micro_sessions' tiny-but-complete session at budget 8.
      opt.n_init_low = 4;
      opt.n_init_high = 2;
      opt.budget = 8.0;
      opt.gamma = 0.5;
      opt.retrain_every = 2;
      opt.x_star_seeds = 2;
      opt.msp.n_starts = 3;
      opt.msp.local.max_evaluations = 25;
      opt.nargp.n_mc = 8;
      opt.nargp.low.n_restarts = 1;
      opt.nargp.high.n_restarts = 1;
      break;
  }
  return opt;
}

std::unique_ptr<bo::Problem> makeProblem(Workload workload) {
  switch (workload) {
    case Workload::kPaSynth:
      return std::make_unique<mfbo::problems::PowerAmplifierProblem>();
    case Workload::kCpSynth:
      return std::make_unique<mfbo::problems::ChargePumpProblem>();
    case Workload::kFleetSessions:
      return std::make_unique<mfbo::problems::ConstrainedQuadraticProblem>(2);
  }
  return nullptr;
}

}  // namespace perfbench
