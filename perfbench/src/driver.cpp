// The repository benchmark's driver: one closed-loop client running one
// workload for a fixed time, checking every output, and printing the
// metrics as the last line of standard output.
//
//   perfbench_driver --workload pa_synth|cp_synth|fleet_sessions
//                    --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--source-id STR] [--setup-only]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same job
// stream with every layer decorated (see layers.h), reports the per-layer
// metrics, then replays the jobs it completed untraced and requires
// byte-identical results. --setup-only performs the workload's set-up and
// exits (perfbench/run.py times it). Exit status: 0 when every output
// check passed, 1 when any failed, 2 on a usage error.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bo/engine.h"
#include "bo/mfbo.h"
#include "common/json.h"
#include "common/memstats.h"
#include "common/parallel.h"
#include "common/spans.h"
#include "layers.h"
#include "service/session_manager.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;
using mfbo::Json;
namespace bo = mfbo::bo;
namespace service = mfbo::service;
namespace parallel = mfbo::parallel;
namespace spans = mfbo::spans;

struct Args {
  Workload workload = Workload::kPaSynth;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string work_dir = "perfbench/build/work";
  std::string source_id = "unknown";
};

[[noreturn]] void usage(const char* why, const char* what) {
  std::fprintf(stderr,
               "perfbench_driver: %s '%s'\n"
               "usage: perfbench_driver --workload "
               "pa_synth|cp_synth|fleet_sessions --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--source-id STR] "
               "[--setup-only]\n",
               why, what);
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for", argv[i]);
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto w = parseWorkload(value);
      if (!w) usage("unknown workload", value);
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("bad --seed", value);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0.0))
        usage("bad --seconds", value);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace wants 0 or 1, got", value);
      args.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--source-id") {
      args.source_id = value;
    } else {
      usage("unknown argument", argv[i - 1]);
    }
  }
  if (!have_workload) usage("missing", "--workload");
  return args;
}

/// Every layer decorator of one traced run.
struct Instruments {
  ProblemStats problem;
  SurrogateStats surrogate;
  EngineStats engine;
  IterationStats iterations;
  SpanTotals spans;
  OpStat step_round;
  std::uint64_t ckpt_bytes = 0;
  std::uint64_t ckpt_writes = 0;
};

/// One completed (or failed) job.
struct JobRecord {
  JobInput input;
  double seconds = 0.0;
  std::string result;  ///< synthesisResultToJson(...).dump(); empty = threw
  std::string error;
};

/// What one pass of the closed loop produced.
struct Pass {
  std::vector<JobRecord> jobs;  ///< in completion order
  std::vector<double> step_seconds;
  double wall_s = 0.0;
  parallel::PoolStats pool_before;
  parallel::PoolStats pool_after;
};

bo::MfboOptions jobOptions(Workload w, const JobInput& job,
                           Instruments* inst) {
  bo::MfboOptions opt = workloadOptions(w, job.batch_size);
  if (inst != nullptr) {
    opt.surrogate_factory = timedNargpFactory(opt.nargp, inst->surrogate);
    opt.observer = iterationObserver(inst->iterations);
  }
  return opt;
}

std::unique_ptr<bo::Problem> jobProblem(Workload w, Instruments* inst) {
  std::unique_ptr<bo::Problem> problem = makeProblem(w);
  if (inst == nullptr) return problem;
  return std::make_unique<TimedProblem>(std::move(problem), inst->problem);
}

/// Run @p body — one Engine::step or Session::step of @p engine — and
/// record its latency, under the per-state timer when traced.
void timedStep(bo::Engine& engine, Pass& pass, Instruments* inst,
               const std::function<void()>& body) {
  const bo::EngineState state = engine.state();
  const Clock::time_point start = Clock::now();
  body();
  const Clock::duration elapsed = Clock::now() - start;
  if (inst != nullptr) inst->engine.of(state).add(elapsed);
  pass.step_seconds.push_back(std::chrono::duration<double>(elapsed).count());
}

/// pa_synth / cp_synth: MFBO syntheses back to back, each driven stepwise
/// through makeEngine. Runs until @p deadline, or for exactly @p count jobs
/// when count > 0.
Pass runSyntheses(Workload w, std::uint64_t seed, Clock::time_point deadline,
                  std::size_t count, Instruments* inst) {
  Pass pass;
  pass.pool_before = parallel::poolStats();
  const Clock::time_point start = Clock::now();
  for (std::size_t j = 0; count > 0 ? j < count : Clock::now() < deadline;
       ++j) {
    JobRecord rec;
    rec.input = jobInput(w, seed, j);
    if (inst != nullptr) spans::reset();
    const Clock::time_point job_start = Clock::now();
    try {
      std::unique_ptr<bo::Problem> problem = jobProblem(w, inst);
      const bo::MfboSynthesizer synth(jobOptions(w, rec.input, inst));
      std::unique_ptr<bo::Engine> engine =
          synth.makeEngine(*problem, rec.input.seed);
      while (!engine->done())
        timedStep(*engine, pass, inst, [&] { engine->step(); });
      const bo::SynthesisResult result = engine->takeResult();
      rec.seconds = secondsSince(job_start);
      rec.result = bo::synthesisResultToJson(result).dump();
    } catch (const std::exception& e) {
      rec.seconds = secondsSince(job_start);
      rec.error = e.what();
    }
    if (inst != nullptr) accumulateSpans(spans::snapshot(true), inst->spans);
    pass.jobs.push_back(std::move(rec));
  }
  pass.wall_s = secondsSince(start);
  pass.pool_after = parallel::poolStats();
  return pass;
}

/// One session of the fleet, as the benchmark tracks it.
struct Flight {
  JobInput input;
  std::shared_ptr<bo::Engine*> engine;  ///< set by the engine factory
  Clock::time_point admitted;
  std::string error;  ///< set when stepping or persisting it threw
};

service::SessionSpec sessionSpec(Workload w, const JobInput& job,
                                 Instruments* inst,
                                 std::shared_ptr<bo::Engine*> engine_slot) {
  service::SessionSpec spec;
  spec.id = job.id;
  spec.problem = [w, inst] { return jobProblem(w, inst); };
  spec.engine = [w, job, inst, engine_slot](bo::Problem& problem) {
    auto engine = std::make_unique<bo::MfboEngine>(problem, job.seed,
                                                   jobOptions(w, job, inst));
    if (engine_slot) *engine_slot = engine.get();
    return engine;
  };
  return spec;
}

/// Untraced fleet round, through the library's scheduler. Its step-latency
/// sample is the round's wall time over the sessions it stepped (one step
/// plus its persist each). A round that throws fails every session in
/// flight, since the throwing one cannot be told apart.
void scheduledRound(service::SessionManager& manager,
                    std::vector<Flight>& flights, Pass& pass) {
  const Clock::time_point start = Clock::now();
  try {
    const double stepped =
        static_cast<double>(std::max<std::size_t>(1, manager.stepRound()));
    pass.step_seconds.push_back(secondsSince(start) / stepped);
  } catch (const std::exception& e) {
    for (Flight& f : flights) f.error = e.what();
  }
}

/// Traced fleet round: what SessionManager::stepRound does with
/// checkpoint_every = 1 (step each running session once, in admission
/// order, then persist it), driven here so that every Session::step is
/// timed under the engine state it started in. The traced run's untraced
/// replay goes through stepRound, so the transparency check also holds
/// this loop to the library's scheduler.
void tracedRound(service::SessionManager& manager, std::vector<Flight>& flights,
                 const std::string& dir, Pass& pass, Instruments& inst) {
  const Clock::time_point start = Clock::now();
  for (Flight& f : flights) {
    try {
      service::Session& session = manager.session(f.input.id);
      timedStep(**f.engine, pass, &inst, [&] { session.step(); });
      manager.persist(f.input.id);
      const std::string path = dir + "/" + f.input.id +
                               (session.done() ? ".result.json" : ".ckpt.json");
      inst.ckpt_bytes += std::filesystem::file_size(path);
      ++inst.ckpt_writes;
    } catch (const std::exception& e) {
      f.error = e.what();
    }
  }
  inst.step_round.add(Clock::now() - start);
}

/// fleet_sessions: a SessionManager keeps kFleetInFlight sessions in
/// flight, persisting every session after every step, and admits the next
/// generated session as each one completes. Runs until @p deadline (checked
/// at round boundaries), or until every id in @p until is complete when
/// that set is non-empty.
Pass runFleet(Workload w, std::uint64_t seed, Clock::time_point deadline,
              const std::set<std::string>& until, const std::string& dir,
              Instruments* inst) {
  Pass pass;
  std::filesystem::remove_all(dir);
  service::SessionManagerOptions options;
  options.checkpoint_dir = dir;
  options.checkpoint_every = 1;
  service::SessionManager manager(options);
  std::vector<Flight> flights;
  std::size_t next = 0;
  std::set<std::string> remaining = until;

  pass.pool_before = parallel::poolStats();
  const Clock::time_point start = Clock::now();
  auto admit = [&] {
    Flight f;
    f.input = jobInput(w, seed, next++);
    f.engine = std::make_shared<bo::Engine*>(nullptr);
    f.admitted = Clock::now();
    manager.create(sessionSpec(w, f.input, inst, f.engine));
    flights.push_back(std::move(f));
  };
  for (std::size_t i = 0; i < kFleetInFlight; ++i) admit();

  for (;;) {
    if (inst != nullptr)
      tracedRound(manager, flights, dir, pass, *inst);
    else
      scheduledRound(manager, flights, pass);
    std::size_t finished = 0;
    for (Flight& f : flights) {
      JobRecord rec;
      rec.error = f.error;
      if (rec.error.empty()) {
        try {
          service::Session& session = manager.session(f.input.id);
          if (!session.done()) continue;
          rec.result = session.resultJson().at("result").dump();
          if (inst != nullptr) {
            const Json artifact = session.artifactJson(true);
            const Json& metrics = artifact.at("metrics");
            if (metrics.contains("spans"))
              accumulateSpans(metrics.at("spans"), inst->spans);
          }
        } catch (const std::exception& e) {
          rec.error = e.what();
        }
      }
      rec.input = f.input;
      rec.seconds = secondsSince(f.admitted);
      remaining.erase(f.input.id);
      pass.jobs.push_back(std::move(rec));
      manager.destroy(f.input.id);
      f.engine.reset();
      ++finished;
    }
    std::erase_if(flights, [](const Flight& f) { return !f.engine; });
    const bool stop = until.empty() ? Clock::now() >= deadline
                                    : remaining.empty();
    if (stop) break;
    for (std::size_t i = 0; i < finished; ++i) admit();
  }
  pass.wall_s = secondsSince(start);
  pass.pool_after = parallel::poolStats();
  std::filesystem::remove_all(dir);
  return pass;
}

Pass runPass(const Args& args, Clock::time_point deadline,
             const std::vector<JobRecord>& replay, Instruments* inst) {
  if (args.workload == Workload::kFleetSessions) {
    std::set<std::string> until;
    for (const JobRecord& r : replay) until.insert(r.input.id);
    return runFleet(args.workload, args.seed, deadline, until,
                    args.work_dir + "/fleet", inst);
  }
  return runSyntheses(args.workload, args.seed, deadline, replay.size(), inst);
}

/// Work a run does before its first job: build the problem (the circuit
/// workloads assemble their testbenches here), generate the first inputs,
/// bring up the pool, and for the fleet create the checkpoint directory and
/// admit the first sessions.
void setUp(const Args& args) {
  parallel::parallelFor(4 * parallel::maxThreads(), [](std::size_t) {});
  const std::unique_ptr<bo::Problem> problem = makeProblem(args.workload);
  const JobInput first = jobInput(args.workload, args.seed, 0);
  if (args.workload != Workload::kFleetSessions) {
    const bo::MfboSynthesizer synth(workloadOptions(args.workload, 1));
    synth.makeEngine(*problem, first.seed);
    return;
  }
  const std::string dir = args.work_dir + "/setup";
  {
    service::SessionManagerOptions options;
    options.checkpoint_dir = dir;
    service::SessionManager manager(options);
    for (std::size_t i = 0; i < kFleetInFlight; ++i)
      manager.create(sessionSpec(args.workload,
                                 jobInput(args.workload, args.seed, i),
                                 nullptr, nullptr));
  }
  std::filesystem::remove_all(dir);
}

/// Ids of the jobs that failed any check, each failure printed to stderr.
using Failures = std::set<std::string>;

void fail(Failures& failures, const JobRecord& r, const std::string& why) {
  failures.insert(r.input.id);
  std::fprintf(stderr, "job %s (seed %llu) failed: %s\n", r.input.id.c_str(),
               static_cast<unsigned long long>(r.input.seed), why.c_str());
}

/// Output checks on every job of a pass (layers.h checkResult).
void checkJobs(const Args& args, const Pass& pass, Failures& failures) {
  std::unique_ptr<bo::Problem> problem = makeProblem(args.workload);
  for (const JobRecord& r : pass.jobs) {
    std::string why = r.error;
    if (why.empty()) {
      const double budget =
          workloadOptions(args.workload, r.input.batch_size).budget;
      why = checkResult(Json::parse(r.result), *problem, budget,
                        /*reevaluate=*/true);
    }
    if (!why.empty()) fail(failures, r, why);
  }
}

/// Fleet only: re-run a sample of completed sessions solo (no manager, no
/// persistence, no decorators) and require byte-identical results.
void checkSoloSample(const Args& args, const Pass& pass, Failures& failures) {
  const std::size_t n = pass.jobs.size();
  const std::size_t sample = std::min<std::size_t>(8, n);
  for (std::size_t k = 0; k < sample; ++k) {
    const JobRecord& r = pass.jobs[k * n / sample];
    if (!r.error.empty()) continue;
    service::Session solo(sessionSpec(args.workload, r.input, nullptr, nullptr));
    while (!solo.done()) solo.step();
    if (solo.resultJson().at("result").dump() != r.result)
      fail(failures, r, "result differs when the session is re-run solo");
  }
}

/// Traced runs: the decorators, the observer and the span profiler must
/// not change a single result byte.
void checkTransparency(const Pass& traced, const Pass& untraced,
                       Failures& failures) {
  std::map<std::string, const JobRecord*> plain;
  for (const JobRecord& r : untraced.jobs) plain[r.input.id] = &r;
  for (const JobRecord& r : traced.jobs) {
    const auto it = plain.find(r.input.id);
    if (it == plain.end() || it->second->result != r.result)
      fail(failures, r, "traced result differs from the untraced replay");
  }
}

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  Json metrics = Json::object();
};

void addMetric(Outcome& out, const std::string& name, double value,
               const char* unit) {
  if (!validMetricName(name)) {
    std::fprintf(stderr, "invalid metric name '%s'\n", name.c_str());
    std::exit(1);
  }
  Json m = Json::object();
  m.set("value", value);
  m.set("unit", unit);
  out.metrics.set(name, std::move(m));
}

std::vector<double> jobSeconds(const Pass& pass) {
  std::vector<double> v;
  for (const JobRecord& r : pass.jobs) v.push_back(r.seconds);
  return v;
}

/// Mean cost-to-best and feasible share over the completed jobs of a pass.
struct Quality {
  double equiv_sims_to_best = 0.0;
  double feasible_frac = 0.0;
};

Quality quality(const Pass& pass) {
  std::vector<double> reach;
  double feasible = 0.0;
  for (const JobRecord& r : pass.jobs) {
    if (!r.error.empty()) continue;
    const Json result = Json::parse(r.result);
    reach.push_back(costToReachBest(result));
    if (result.at("feasible_found").asBool()) feasible += 1.0;
  }
  return {mean(reach),
          feasible / std::max(1.0, static_cast<double>(pass.jobs.size()))};
}

/// End-to-end metrics of an untraced pass.
void endToEnd(const Pass& pass, Outcome& out) {
  const std::vector<double> job_s = jobSeconds(pass);
  const double n = static_cast<double>(pass.jobs.size());
  addMetric(out, "job_s_p50", median(job_s), "s");
  addMetric(out, "jobs_per_s", n / pass.wall_s, "1/s");
  addMetric(out, "step_s_p90", quantile(pass.step_seconds, 0.9), "s");
  addMetric(out, "peak_rss_mb",
            static_cast<double>(mfbo::memstats::peakRssBytes()) / 1048576.0,
            "MiB");

  // Not bounded metrics, printed for the reader: the tail percentiles the
  // sample counts support (ten samples beyond them), with their n; the
  // median step, which sits on the edge between the µs-scale bookkeeping
  // steps and the ms-scale compute steps and so jumps with the step mix;
  // and the search quality, which over a run's few circuit jobs varies
  // with the seed far more than any bound could tolerate.
  if (job_s.size() <= 50) {
    std::printf("# jobs (s/n_low/n_high):");
    for (const JobRecord& r : pass.jobs) {
      if (!r.error.empty()) continue;
      const Json result = Json::parse(r.result);
      std::printf(" %.3f/%g/%g", r.seconds, result.at("n_low").asNumber(),
                  result.at("n_high").asNumber());
    }
    std::printf("\n");
  }
  const double job_q = highestReportablePercentile(job_s.size(), {0.9, 0.99});
  const double step_q =
      highestReportablePercentile(pass.step_seconds.size(), {0.9, 0.99});
  std::printf("# tails: jobs n=%zu p%g=%.6f  steps n=%zu p50=%.6f p%g=%.6f\n",
              job_s.size(), job_q * 100, quantile(job_s, job_q),
              pass.step_seconds.size(), median(pass.step_seconds),
              step_q * 100, quantile(pass.step_seconds, step_q));
  const Quality q = quality(pass);
  std::printf("# quality: equiv_sims_to_best=%.4f feasible_frac=%.4f "
              "failed_frac=%.4f\n",
              q.equiv_sims_to_best, q.feasible_frac,
              static_cast<double>(out.failed) / std::max(1.0, n));
}

/// Per-layer metrics of a traced pass, per completed job unless named a
/// fraction or a mean.
void perLayer(const Pass& traced, const Pass& untraced, const Instruments& in,
              Outcome& out) {
  const double n = std::max<double>(1.0, static_cast<double>(traced.jobs.size()));
  auto op = [&](const std::string& name, const OpStat& s) {
    addMetric(out, name + ".count", static_cast<double>(s.count.load()) / n,
              "count");
    addMetric(out, name + ".busy_s", s.busySeconds() / n, "s");
  };
  op("problems.eval_low", in.problem.eval_low);
  op("problems.eval_high", in.problem.eval_high);
  for (std::size_t i = 0; i < EngineStats::kStates; ++i)
    op(std::string("bo.") +
           bo::engineStateName(static_cast<bo::EngineState>(i)),
       in.engine.by_state[i]);
  op("mf.fit", in.surrogate.fit);
  op("mf.add_retrain", in.surrogate.add_retrain);
  op("mf.add_incremental", in.surrogate.add_incremental);
  op("mf.predict_low", in.surrogate.predict_low);
  op("mf.predict_high", in.surrogate.predict_high);
  addMetric(out, "mf.clone.count",
            static_cast<double>(in.surrogate.clones.load()) / n, "count");
  for (const SpanMetric& m : kSpanMetrics) {
    const auto it = in.spans.nodes.find(m.metric);
    const SpanTotals::Node node =
        it == in.spans.nodes.end() ? SpanTotals::Node{} : it->second;
    addMetric(out, std::string(m.metric) + ".count",
              static_cast<double>(node.count) / n, "count");
    addMetric(out, std::string(m.metric) + ".self_s", node.self_s / n, "s");
  }
  addMetric(out, "alloc.bytes", static_cast<double>(in.spans.alloc_bytes) / n,
            "B");
  addMetric(out, "alloc.count", static_cast<double>(in.spans.alloc_count) / n,
            "count");
  const double regions = static_cast<double>(traced.pool_after.regions -
                                             traced.pool_before.regions);
  const double pooled =
      static_cast<double>(traced.pool_after.pooled_regions -
                          traced.pool_before.pooled_regions);
  addMetric(out, "parallel.regions", regions / n, "count");
  addMetric(out, "parallel.pooled_regions", pooled / n, "count");
  addMetric(out, "parallel.chunks",
            static_cast<double>(traced.pool_after.chunks -
                                traced.pool_before.chunks) /
                n,
            "count");
  addMetric(out, "parallel.pooled_frac", regions > 0 ? pooled / regions : 0.0,
            "frac");
  op("service.step_round", in.step_round);
  addMetric(out, "service.ckpt.bytes_mean",
            in.ckpt_writes > 0 ? static_cast<double>(in.ckpt_bytes) /
                                     static_cast<double>(in.ckpt_writes)
                               : 0.0,
            "B");
  const Quality q = quality(traced);
  addMetric(out, "quality.equiv_sims_to_best", q.equiv_sims_to_best, "sims");
  addMetric(out, "quality.feasible_frac", q.feasible_frac, "frac");
  const double iters = std::max<double>(1.0, in.iterations.iterations);
  addMetric(out, "bo.improve_frac", in.iterations.improved / iters, "frac");
  addMetric(out, "bo.dedupe_frac", in.iterations.deduped / iters, "frac");
  addMetric(out, "bo.high_frac", in.iterations.high / iters, "frac");
  addMetric(out, "trace.job_s_mean", traced.wall_s / n, "s");
  addMetric(out, "trace.overhead_s", (traced.wall_s - untraced.wall_s) / n,
            "s");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parseArgs(argc, argv);
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t threads = std::min<std::size_t>(4, nproc);
  parallel::setMaxThreads(threads);
  std::filesystem::create_directories(args.work_dir);

  setUp(args);
  if (args.setup_only) return 0;

  Json stamp = Json::object();
  stamp.set("workload", workloadName(args.workload));
  stamp.set("seed", std::to_string(args.seed));
  stamp.set("trace", args.trace);
  stamp.set("nproc", nproc);
  stamp.set("threads", threads);
  stamp.set("build_type", PERFBENCH_BUILD_TYPE);
  stamp.set("source", args.source_id);
  std::printf("# stamp %s\n", stamp.dump().c_str());

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  Outcome out;
  Failures failures;
  if (!args.trace) {
    const Pass pass = runPass(args, deadline, {}, nullptr);
    out.attempted = pass.jobs.size();
    checkJobs(args, pass, failures);
    if (args.workload == Workload::kFleetSessions)
      checkSoloSample(args, pass, failures);
    out.failed = failures.size();
    endToEnd(pass, out);
  } else {
    Instruments inst;
    spans::setEnabled(true);
    const Pass traced = runPass(args, deadline, {}, &inst);
    spans::setEnabled(false);
    const Pass untraced = runPass(args, deadline, traced.jobs, nullptr);
    out.attempted = traced.jobs.size();
    checkJobs(args, traced, failures);
    checkTransparency(traced, untraced, failures);
    out.failed = failures.size();
    perLayer(traced, untraced, inst, out);
  }

  const bool correct = out.failed == 0 && out.attempted > 0;
  Json result = Json::object();
  result.set("correct", correct);
  result.set("attempted", out.attempted);
  result.set("failed", out.failed);
  result.set("metrics", std::move(out.metrics));
  std::printf("%s\n", result.dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
