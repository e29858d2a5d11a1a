// Micro-benchmark for the batched proposal engine: wall time per batch
// size, 1-vs-N-thread byte-identity of the artifacts, and a mid-run
// checkpoint/resume identity leg, all in one artifact.
//
// The workload is a tiny constrained-quadratic synthesis (the same
// canonical configuration the checkpoint fixture tests pin), run once per
// batch size q ∈ {1, 2, 4}. Batching does not change the per-point
// simulator bill — it trades surrogate freshness for the ability to keep q
// simulators busy — so the interesting numbers are the proposal-loop
// overhead per q and the hard invariants: every q must produce
// byte-identical results across thread counts, and a run replayed from
// the run log persisted up to a mid-run boundary must reproduce the
// uninterrupted bytes. The binary
// exits 1 when any identity leg fails, so a regression fails CI even
// without artifact validation.
//
// --dump-checkpoint FILE additionally writes the golden resume fixture
// consumed by tests/test_checkpoint.cpp: the run log of a q=2 run killed
// at its middle boundary plus the uninterrupted run's final result
// document. Writing it allocates nothing the artifact's span counters see,
// so the artifact is the same with or without the flag.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "bo/engine.h"
#include "bo/mfbo.h"
#include "common/memstats.h"
#include "problems/synthetic.h"

namespace {

using namespace mfbo;

/// Canonical fixture configuration. tests/test_checkpoint.cpp mirrors these
/// values for the committed-fixture replay test; the options section of the
/// log header turns any drift between the two copies into a loud
/// ContractViolation rather than a silent mismatch.
bo::MfboOptions fixtureOptions(std::size_t batch_size) {
  bo::MfboOptions opt;
  opt.n_init_low = 6;
  opt.n_init_high = 3;
  opt.budget = 6.0;
  opt.gamma = 0.5;
  opt.retrain_every = 2;
  opt.batch_size = batch_size;
  opt.x_star_seeds = 2;
  opt.msp.n_starts = 4;
  opt.msp.local.max_evaluations = 30;
  opt.nargp.n_mc = 16;
  opt.nargp.low.n_restarts = 1;
  opt.nargp.high.n_restarts = 1;
  return opt;
}

problems::ConstrainedQuadraticProblem fixtureProblem() {
  return problems::ConstrainedQuadraticProblem(2);
}

std::string resultBytes(const bo::SynthesisResult& result) {
  return bo::synthesisResultToJson(result).dump();
}

struct Leg {
  std::string bytes;
  bo::SynthesisResult result;
  double seconds = 0.0;
};

Leg runLeg(std::size_t batch_size, std::uint64_t seed, std::size_t threads,
           int trials) {
  parallel::setMaxThreads(threads);
  const bo::MfboSynthesizer synthesizer(fixtureOptions(batch_size));
  Leg leg;
  for (int trial = 0; trial < trials; ++trial) {
    auto problem = fixtureProblem();
    const auto start = std::chrono::steady_clock::now();
    bo::SynthesisResult result = synthesizer.run(problem, seed);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (trial == 0 || elapsed.count() < leg.seconds)
      leg.seconds = elapsed.count();
    if (trial == 0) {
      leg.bytes = resultBytes(result);
      leg.result = std::move(result);
    }
  }
  parallel::setMaxThreads(0);
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  // --dump-checkpoint FILE is ours; strip it before the shared parser.
  std::string dump_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dump-checkpoint") == 0 && i + 1 < argc) {
      dump_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  const bench::BenchConfig cfg =
      bench::parseArgs(static_cast<int>(args.size()), args.data());
  const std::size_t threads = cfg.threads > 0 ? cfg.threads : 4;
  const int trials = cfg.full ? 3 : 1;
  const std::vector<std::size_t> batch_sizes = {1, 2, 4};

  std::printf("# micro_batch: constrained quadratic, budget %.1f, seed %llu\n",
              fixtureOptions(1).budget,
              static_cast<unsigned long long>(cfg.seed));

  bool all_identical = true;
  Json batches = Json::array();
  for (const std::size_t q : batch_sizes) {
    const Leg serial = runLeg(q, cfg.seed, 1, trials);
    const Leg pooled = runLeg(q, cfg.seed, threads, 1);
    const bool identical = serial.bytes == pooled.bytes;
    all_identical = all_identical && identical;

    Json row = Json::object();
    row.set("batch_size", q);
    row.set("best_objective", serial.result.best_eval.objective);
    row.set("feasible_found", serial.result.feasible_found);
    row.set("n_iterations", serial.result.history.size());
    row.set("n_low", serial.result.n_low);
    row.set("n_high", serial.result.n_high);
    row.set("equivalent_high_sims", serial.result.equivalent_high_sims);
    row.set("identical", identical);
    row.set("wall_seconds", cfg.timing ? serial.seconds : 0.0);
    batches.push(std::move(row));

    std::printf("q=%zu  best %12.6g  %3zu pts  %6.3f s  identical %s\n", q,
                serial.result.best_eval.objective,
                serial.result.history.size(), serial.seconds,
                identical ? "yes" : "NO");
  }

  // Log/replay identity: persist the canonical q=2 run's log at every
  // boundary, kill it at its middle boundary, replay that log into a fresh
  // engine, require the bytes of the uninterrupted run.
  std::vector<std::string> boundary_logs;
  std::string golden;
  {
    parallel::setMaxThreads(1);
    auto problem = fixtureProblem();
    bo::MfboEngine engine(problem, cfg.seed, fixtureOptions(2));
    std::string log = engine.logHeader();
    std::size_t persisted = 0;
    while (!engine.done()) {
      boundary_logs.push_back(log);
      engine.step();
      if (engine.done()) break;
      log += engine.logRecord(persisted);
      persisted = engine.evaluations();
    }
    golden = resultBytes(engine.takeResult());
    parallel::setMaxThreads(0);
  }
  const std::string& mid = boundary_logs[boundary_logs.size() / 2];
  std::string resumed;
  {
    parallel::setMaxThreads(1);
    auto problem = fixtureProblem();
    bo::MfboEngine engine(problem, cfg.seed, fixtureOptions(2));
    engine.replay(mid);
    resumed = resultBytes(engine.run());
    parallel::setMaxThreads(0);
  }
  const bool resume_identical = resumed == golden;
  all_identical = all_identical && resume_identical;
  std::printf("%-22s %10s  (%zu boundaries)\n", "resume identical",
              resume_identical ? "yes" : "NO", boundary_logs.size());

  if (!dump_path.empty()) {
    const memstats::PauseScope unaccounted;
    Json fixture = Json::object();
    fixture.set("format", "mfbo-engine-resume-fixture");
    fixture.set("version", 2);
    fixture.set("log", mid);
    fixture.set("result", Json::parse(golden));
    bench::writeFileOrExit(dump_path, fixture.dump());
    std::fprintf(stderr, "wrote resume fixture %s\n", dump_path.c_str());
  }

  Json doc = bench::artifactHeader(cfg, "micro_batch", 1);
  doc.set("threads", threads);
  doc.set("batch", std::move(batches));
  doc.set("n_boundaries", boundary_logs.size());
  doc.set("resume_identical", resume_identical);
  doc.set("identical", all_identical);
  bench::writeArtifactFile(cfg, std::move(doc));

  if (!all_identical) {
    std::fprintf(stderr,
                 "determinism violation: batched or resumed runs diverged "
                 "from their reference bytes\n");
    return 1;
  }
  return 0;
}
