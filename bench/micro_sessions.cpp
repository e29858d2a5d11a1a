// Micro-benchmark for the multi-session service layer: wall time and
// throughput as the session count grows on a fixed-size pool, with the
// hard invariants checked in-binary — every session's --no-timing artifact
// must be byte-identical to the same spec run solo, no matter how many
// sessions it shared the scheduler and the pool with.
//
// Two extra flags drive the crash-recovery CI leg:
//   --checkpoint-dir DIR     persist every session's boundary to DIR and,
//                            when DIR already holds persisted state from a
//                            killed run, recover it and require the
//                            completed results to be byte-identical to an
//                            uninterrupted in-process reference. Prints and
//                            records restore_wall_seconds: the wall time of
//                            the recovering create() calls, which replay
//                            each session's run log.
//   --kill-after-rounds K    (with --checkpoint-dir) run the recovery
//                            workload for K scheduler rounds, then exit
//                            mid-run without any shutdown path — the
//                            "killed process". A following invocation with
//                            the same --checkpoint-dir completes the runs.
//   --health FILE            write the 8-session fleet's health snapshot
//                            (service/health.h) to FILE (JSON) and
//                            FILE.prom (Prometheus-style exposition).
//
// The recovery legs run with the flight recorder in wall-clock dump mode
// (dump_dir = the checkpoint directory, fatal-signal handler installed),
// so a killed fleet leaves flightrec.<pid>.jsonl next to its checkpoints
// for tools/health_validate.py.
//
// The binary exits 1 when any identity or recovery leg fails, so a
// regression fails CI even without artifact validation.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "bo/engine.h"
#include "bo/mfbo.h"
#include "common/eventlog.h"
#include "problems/synthetic.h"
#include "service/health.h"
#include "service/session_manager.h"

namespace {

using namespace mfbo;

/// Tiny-but-complete per-session workload (both fit paths, both
/// fidelities, q = 1 and q = 2 interleaved across the fleet). --full runs
/// the checkpoint-fixture budget instead.
bo::MfboOptions sessionOptions(std::size_t batch_size, bool full) {
  bo::MfboOptions opt;
  opt.n_init_low = 4;
  opt.n_init_high = 2;
  opt.budget = full ? 6.0 : 4.0;
  opt.gamma = 0.5;
  opt.retrain_every = 2;
  opt.batch_size = batch_size;
  opt.x_star_seeds = 2;
  opt.msp.n_starts = 3;
  opt.msp.local.max_evaluations = 25;
  opt.nargp.n_mc = 8;
  opt.nargp.low.n_restarts = 1;
  opt.nargp.high.n_restarts = 1;
  return opt;
}

/// Spec for fleet slot @p i — a pure function of (cfg, i), so the kill and
/// recovery invocations rebuild the exact same fleet.
service::SessionSpec fleetSpec(const bench::BenchConfig& cfg,
                               std::size_t i) {
  service::SessionSpec spec;
  spec.id = "s" + std::to_string(i);
  spec.problem = [] {
    return std::make_unique<problems::ConstrainedQuadraticProblem>(2);
  };
  const std::uint64_t seed = cfg.seed + i;
  const std::size_t batch_size = 1 + i % 2;
  const bool full = cfg.full;
  spec.engine = [seed, batch_size, full](bo::Problem& problem) {
    return std::make_unique<bo::MfboEngine>(
        problem, seed, sessionOptions(batch_size, full));
  };
  return spec;
}

constexpr std::size_t kMaxSessions = 8;
constexpr std::size_t kRecoverySessions = 4;

}  // namespace

int main(int argc, char** argv) {
  // --checkpoint-dir / --kill-after-rounds / --health are ours; strip
  // them before the shared parser.
  std::string checkpoint_dir;
  std::string health_path;
  long long kill_after_rounds = -1;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--checkpoint-dir") == 0 && i + 1 < argc) {
      checkpoint_dir = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--kill-after-rounds") == 0 && i + 1 < argc) {
      kill_after_rounds = std::atoll(argv[++i]);
      continue;
    }
    if (std::strcmp(argv[i], "--health") == 0 && i + 1 < argc) {
      health_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  const bench::BenchConfig cfg =
      bench::parseArgs(static_cast<int>(args.size()), args.data());
  const std::size_t threads = cfg.threads > 0 ? cfg.threads : 4;

  if (kill_after_rounds >= 0) {
    // The to-be-killed half of the recovery leg: run the fleet a fixed
    // number of scheduler rounds with every boundary persisted, then fall
    // off main() mid-run.
    if (checkpoint_dir.empty()) {
      std::fprintf(stderr,
                   "--kill-after-rounds requires --checkpoint-dir\n");
      return 2;
    }
    parallel::setMaxThreads(threads);
    // Black-box mode for the to-be-killed fleet: wall-clock stamps, dumps
    // next to the checkpoints, fatal signals covered. Every persist
    // snapshots the journal, so the post-mortem window survives even a
    // SIGKILL that no handler can see.
    eventlog::Options journal_options;
    journal_options.wall_clock = true;
    journal_options.dump_dir = checkpoint_dir;
    journal_options.install_signal_handler = true;
    eventlog::enable(journal_options);
    service::SessionManagerOptions options;
    options.checkpoint_dir = checkpoint_dir;
    service::SessionManager manager(options);
    for (std::size_t i = 0; i < kRecoverySessions; ++i)
      manager.create(fleetSpec(cfg, i));
    for (long long round = 0; round < kill_after_rounds; ++round)
      if (manager.stepRound() == 0) break;
    eventlog::dumpFlightRecorder();
    std::printf("killed after %lld rounds with %zu sessions in flight\n",
                kill_after_rounds, manager.size());
    return 0;
  }

  std::printf("# micro_sessions: %zu-thread pool, seed %llu\n", threads,
              static_cast<unsigned long long>(cfg.seed));

  // With --health the fleet runs under the deterministic-mode flight
  // recorder so the snapshot's eventlog section carries live counters.
  if (!health_path.empty()) eventlog::enable();

  // Solo references: each fleet spec run alone, serially. These are both
  // the identity baseline and the denominator for the scaling numbers.
  std::vector<std::string> solo_artifacts;
  double solo_seconds = 0.0;
  {
    parallel::setMaxThreads(1);
    for (std::size_t i = 0; i < kMaxSessions; ++i) {
      service::Session session(fleetSpec(cfg, i));
      const auto start = std::chrono::steady_clock::now();
      while (!session.done()) session.step();
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - start;
      solo_seconds += elapsed.count();
      solo_artifacts.push_back(
          session.artifactJson(/*include_timing=*/false).dump());
    }
    parallel::setMaxThreads(0);
  }

  bool all_identical = true;
  Json rows = Json::array();
  for (const std::size_t n_sessions : {std::size_t{1}, std::size_t{2},
                                       std::size_t{4}, std::size_t{8}}) {
    parallel::setMaxThreads(threads);
    service::SessionManager manager;
    for (std::size_t i = 0; i < n_sessions; ++i)
      manager.create(fleetSpec(cfg, i));
    const auto start = std::chrono::steady_clock::now();
    const std::size_t rounds = manager.runAll();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    if (!health_path.empty() && n_sessions == kMaxSessions) {
      service::writeHealthFiles(manager.healthJson(), health_path);
      std::printf("health: wrote %s and %s.prom\n", health_path.c_str(),
                  health_path.c_str());
    }
    parallel::setMaxThreads(0);

    std::size_t steps_total = 0;
    bool identical = true;
    for (std::size_t i = 0; i < n_sessions; ++i) {
      service::Session& session = manager.session("s" + std::to_string(i));
      steps_total += session.steps();
      identical = identical &&
                  session.artifactJson(false).dump() == solo_artifacts[i];
    }
    all_identical = all_identical && identical;

    Json row = Json::object();
    row.set("n_sessions", n_sessions);
    row.set("rounds", rounds);
    row.set("steps_total", steps_total);
    row.set("identical", identical);
    row.set("wall_seconds", cfg.timing ? elapsed.count() : 0.0);
    row.set("steps_per_second",
            cfg.timing && elapsed.count() > 0.0
                ? static_cast<double>(steps_total) / elapsed.count()
                : 0.0);
    rows.push(std::move(row));

    std::printf(
        "sessions=%zu  rounds %4zu  steps %5zu  %7.3f s  identical %s\n",
        n_sessions, rounds, steps_total, elapsed.count(),
        identical ? "yes" : "NO");
  }

  // Recovery leg (CI: run once with --kill-after-rounds, then again with
  // only --checkpoint-dir). Also exercised cold: with no persisted state
  // the fleet simply runs to completion and the identity check still
  // applies, via the resume-stable result documents.
  bool recovery_identical = true;
  double restore_seconds = 0.0;
  if (!checkpoint_dir.empty()) {
    // The recovering fleet runs in black-box mode too. Dump files are
    // pid-keyed, so the killed run's window stays on disk next to the
    // recovery run's own journal.
    if (eventlog::enabled()) eventlog::disable();
    eventlog::Options journal_options;
    journal_options.wall_clock = true;
    journal_options.dump_dir = checkpoint_dir;
    journal_options.install_signal_handler = true;
    eventlog::enable(journal_options);
    std::vector<std::string> reference;
    {
      parallel::setMaxThreads(1);
      service::SessionManager manager;
      for (std::size_t i = 0; i < kRecoverySessions; ++i)
        manager.create(fleetSpec(cfg, i));
      manager.runAll();
      for (const std::string& id : manager.ids())
        reference.push_back(manager.session(id).resultJson().dump());
      parallel::setMaxThreads(0);
    }
    parallel::setMaxThreads(threads);
    service::SessionManagerOptions options;
    options.checkpoint_dir = checkpoint_dir;
    service::SessionManager manager(options);
    std::size_t in_flight = 0;
    const auto restore_start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < kRecoverySessions; ++i) {
      const service::Session& session = manager.create(fleetSpec(cfg, i));
      if (session.steps() > 0 || session.done()) ++in_flight;
    }
    const std::chrono::duration<double> restore_elapsed =
        std::chrono::steady_clock::now() - restore_start;
    restore_seconds = restore_elapsed.count();
    manager.runAll();
    const std::vector<std::string> ids = manager.ids();
    for (std::size_t i = 0; i < ids.size(); ++i)
      recovery_identical =
          recovery_identical &&
          manager.session(ids[i]).resultJson().dump() == reference[i];
    parallel::setMaxThreads(0);
    std::printf("recovery: %zu/%zu sessions resumed, identical %s\n",
                in_flight, kRecoverySessions,
                recovery_identical ? "yes" : "NO");
    std::printf("restore_wall_seconds %.6f\n", restore_seconds);
  }

  Json doc = bench::artifactHeader(cfg, "micro_sessions", 1);
  doc.set("threads", threads);
  doc.set("solo_wall_seconds", cfg.timing ? solo_seconds : 0.0);
  doc.set("sessions", std::move(rows));
  doc.set("identical", all_identical);
  doc.set("recovery_identical", recovery_identical);
  if (!checkpoint_dir.empty())
    doc.set("restore_wall_seconds", cfg.timing ? restore_seconds : 0.0);
  bench::writeArtifactFile(cfg, std::move(doc));

  if (!all_identical || !recovery_identical) {
    std::fprintf(stderr,
                 "determinism violation: a concurrent or recovered session "
                 "diverged from its solo reference bytes\n");
    return 1;
  }
  return 0;
}
