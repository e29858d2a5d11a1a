// Shared helpers for the paper-reproduction benches.
//
// Every table/figure binary accepts:
//   --quick      scaled-down budgets/run counts (default; finishes on a
//                single core in minutes)
//   --full       the paper's budgets and repetition counts
//   --runs N     override the repetition count (positive integer)
//   --seed S     base RNG seed (run r uses S + r)
//   --threads N  thread count for the parallel execution layer (positive
//                integer; 1 = fully serial; default MFBO_THREADS env var
//                or hardware concurrency)
//   --no-timing  zero wall-clock fields and drop peak RSS and span times
//                from the --out artifact, making same-seed artifacts
//                byte-identical at any thread count
//   --out FILE   write a machine-readable JSON artifact with the per-run
//                results and a telemetry metrics snapshot
//   --spans      enable the hierarchical span profiler; the --out artifact
//                gains a "spans" phase tree carrying every library counter
//                (timing-free under --no-timing). Without it the artifact
//                holds no counts.
//   --trace FILE write a JSONL event trace (run_start/iteration/run_end)
//                for tools/run_report.py; exits 2 on an unwritable path.
//                Each run's lines come from its own iteration observer. A
//                runRepeats call appends its runs in repeat order when it
//                returns, so the bytes match at any thread count and a
//                killed bench keeps the algorithms that had finished;
//                runOnce appends its run when it returns
//   --timeline FILE
//                record every span open/close as Chrome/Perfetto
//                trace-event JSON (load in chrome://tracing or ui.perfetto.
//                dev; validate with tools/trace_validate.py); exits 2 on an
//                unwritable path. Does not enable the span profiler and
//                never touches the --out artifact, so --no-timing artifact
//                bytes are identical with and without a timeline.
//   --help       print usage and exit
#pragma once

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bo/de_baseline.h"
#include "bo/gaspad.h"
#include "bo/mfbo.h"
#include "bo/result.h"
#include "bo/weibo.h"
#include "common/json.h"
#include "common/memstats.h"
#include "common/parallel.h"
#include "common/spans.h"
#include "common/telemetry.h"
#include "common/timeline.h"
#include "linalg/stats.h"

namespace mfbo::bench {

struct BenchConfig {
  bool full = false;
  std::size_t runs_override = 0;  // 0 = use mode default
  std::uint64_t seed = 1000;
  std::size_t threads = 0;  // 0 = auto (MFBO_THREADS env / hardware)
  bool timing = true;       // false: deterministic artifacts (--no-timing)
  bool spans = false;       // true: span profiler on (--spans)
  std::string out;       // artifact path; empty = no artifact
  std::string trace;     // JSONL trace path; empty = no trace
  std::string timeline;  // Perfetto trace-event path; empty = no timeline
  // The --trace file, opened (and truncated) by parseArgs and appended to
  // by appendTrace; shared by copies of the config, closed with the last.
  std::shared_ptr<std::FILE> trace_file;

  std::size_t runs(std::size_t quick_default, std::size_t full_default) const {
    if (runs_override > 0) return runs_override;
    return full ? full_default : quick_default;
  }
  double scale(double quick_value, double full_value) const {
    return full ? full_value : quick_value;
  }
  const char* mode() const { return full ? "full" : "quick"; }
};

inline void printUsage(std::FILE* stream, const char* prog) {
  std::fprintf(stream,
               "usage: %s [--quick|--full] [--runs N] [--seed S] "
               "[--threads N] [--no-timing] [--out FILE] [--spans] "
               "[--trace FILE] [--timeline FILE] [--help]\n"
               "  --spans          enable the span profiler; --out artifacts "
               "gain a 'spans' phase tree\n"
               "  --trace FILE     write a JSONL event trace consumable by "
               "tools/run_report.py\n"
               "  --timeline FILE  write a Chrome/Perfetto trace-event "
               "timeline of every span open/close\n",
               prog);
}

inline BenchConfig parseArgs(int argc, char** argv) {
  // Flag parsing is harness machinery, not workload: --spans enables
  // allocation attribution mid-parse, and without this pause every later
  // path-valued flag (--out, --trace, --timeline) would leak its string
  // copy into the root span's counters — making the deterministic
  // artifact's alloc_bytes depend on the length of the output path.
  const memstats::PauseScope alloc_pause;
  BenchConfig cfg;
  auto fail = [&](const char* why, const char* what) {
    std::fprintf(stderr, "%s: %s '%s'\n", argv[0], why, what);
    printUsage(stderr, argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      printUsage(stdout, argv[0]);
      std::exit(0);
    } else if (std::strcmp(argv[i], "--full") == 0) {
      cfg.full = true;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      cfg.full = false;
    } else if (std::strcmp(argv[i], "--runs") == 0) {
      if (i + 1 >= argc) fail("missing value for", argv[i]);
      char* end = nullptr;
      errno = 0;
      const long long n = std::strtoll(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n <= 0 || errno == ERANGE)
        fail("--runs wants a positive integer, got", argv[i]);
      cfg.runs_override = static_cast<std::size_t>(n);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (i + 1 >= argc) fail("missing value for", argv[i]);
      char* end = nullptr;
      errno = 0;
      const unsigned long long s = std::strtoull(argv[++i], &end, 10);
      // strtoull negates a '-' value instead of rejecting it.
      if (end == argv[i] || *end != '\0' || errno == ERANGE ||
          std::strchr(argv[i], '-') != nullptr)
        fail("--seed wants a non-negative integer, got", argv[i]);
      cfg.seed = s;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) fail("missing value for", argv[i]);
      char* end = nullptr;
      errno = 0;
      const long long n = std::strtoll(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || n <= 0 || errno == ERANGE)
        fail("--threads wants a positive integer, got", argv[i]);
      cfg.threads = static_cast<std::size_t>(n);
      parallel::setMaxThreads(cfg.threads);
    } else if (std::strcmp(argv[i], "--no-timing") == 0) {
      cfg.timing = false;
    } else if (std::strcmp(argv[i], "--spans") == 0) {
      cfg.spans = true;
      spans::setEnabled(true);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      if (i + 1 >= argc) fail("missing value for", argv[i]);
      cfg.out = argv[++i];
      if (cfg.out.empty()) fail("--out wants a file path, got", "");
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) fail("missing value for", argv[i]);
      cfg.trace = argv[++i];
      if (cfg.trace.empty()) fail("--trace wants a file path, got", "");
      // Open (and truncate) up front: an unwritable path must be a startup
      // error, not a lost trace after minutes of synthesis.
      std::FILE* file = std::fopen(cfg.trace.c_str(), "w");
      if (file == nullptr)
        fail("--trace path is not writable:", cfg.trace.c_str());
      cfg.trace_file.reset(file, [](std::FILE* f) { std::fclose(f); });
    } else if (std::strcmp(argv[i], "--timeline") == 0) {
      if (i + 1 >= argc) fail("missing value for", argv[i]);
      cfg.timeline = argv[++i];
      if (cfg.timeline.empty()) fail("--timeline wants a file path, got", "");
      if (timeline::recording())
        fail("--timeline given more than once:", cfg.timeline.c_str());
      try {
        // Opens (and truncates) the file up front: an unwritable path must
        // be a startup error, not a lost trace after minutes of synthesis.
        timeline::start(cfg.timeline);
      } catch (const std::runtime_error&) {
        fail("--timeline path is not writable:", cfg.timeline.c_str());
      }
      // Benches return from main through several paths; atexit guarantees
      // the buffered events are serialized exactly once on any of them.
      std::atexit([] { timeline::stop(); });
    } else {
      fail("unknown argument", argv[i]);
    }
  }
  return cfg;
}

/// Cost (equivalent high-fidelity simulations) at which the final best
/// high-fidelity result was first attained — the paper's "Avg. # Sim"
/// notion ("simulations required to reach the corresponding results").
inline double costToReachBest(const bo::SynthesisResult& r) {
  const auto best = bo::bestHighIndex(r.history);
  if (!best) return r.equivalent_high_sims;
  return r.history[*best].cumulative_cost;
}

/// Aggregated rows of one algorithm column in a results table.
struct AlgoStats {
  std::string name;
  std::vector<double> objectives{};    // best feasible objective per run
  std::vector<double> reach_costs{};   // cost to reach it per run
  std::vector<double> wall_times{};    // wall-clock seconds per run
  std::size_t successes = 0;         // runs that found a feasible design
  std::size_t total_runs = 0;
  bo::SynthesisResult median_result{}; // the run with the median objective

  void add(const bo::SynthesisResult& r, double wall_seconds = 0.0) {
    ++total_runs;
    if (r.feasible_found) ++successes;
    objectives.push_back(r.best_eval.objective);
    reach_costs.push_back(costToReachBest(r));
    wall_times.push_back(wall_seconds);
    // Keep the run whose objective is currently the median (approximate:
    // recompute by storing all would cost memory; keep best-so-far median
    // by distance to running median).
    if (total_runs == 1 ||
        std::abs(r.best_eval.objective - linalg::median(objectives)) <=
            std::abs(median_result.best_eval.objective -
                     linalg::median(objectives)))
      median_result = r;
  }

  linalg::RunSummary summary(bool lower_is_better) const {
    return linalg::summarizeRuns(objectives, lower_is_better);
  }
  double avgSims() const { return linalg::mean(reach_costs); }

  Json toJson() const {
    Json j = Json::object();
    j.set("name", name);
    j.set("objectives", Json::numberArray(objectives));
    j.set("reach_costs", Json::numberArray(reach_costs));
    j.set("wall_times", Json::numberArray(wall_times));
    j.set("successes", successes);
    j.set("total_runs", total_runs);
    return j;
  }
};

/// run_start's algorithm tag and budget for each synthesizer a bench runs.
inline std::pair<const char*, double> traceTag(const bo::MfboSynthesizer& s) {
  return {"mfbo", s.options().budget};
}
inline std::pair<const char*, double> traceTag(const bo::Weibo& s) {
  return {"weibo", s.options().max_sims};
}
inline std::pair<const char*, double> traceTag(const bo::Gaspad& s) {
  return {"gaspad", s.options().max_sims};
}
inline std::pair<const char*, double> traceTag(const bo::DeBaseline& s) {
  return {"de", s.options().max_sims};
}

/// One seeded run of a copy of @p synthesizer whose observer appends
/// iterationJson lines to @p trace, between the run's run_start and
/// run_end lines.
template <class Synthesizer>
bo::SynthesisResult runTraced(const Synthesizer& synthesizer,
                              bo::Problem& problem, std::uint64_t seed,
                              std::string& trace) {
  const auto [algo, budget] = traceTag(synthesizer);
  trace += bo::runStartJson(algo, problem, seed, budget).dump() + '\n';
  auto options = synthesizer.options();
  options.observer = [&trace](const bo::IterationRecord& record) {
    trace += bo::iterationJson(record).dump() + '\n';
  };
  bo::SynthesisResult result =
      Synthesizer(std::move(options)).run(problem, seed);
  trace += bo::runEndJson(algo, result).dump() + '\n';
  return result;
}

/// Append @p trace to the --trace file. A failed write or flush names the
/// path and exits 1, like writeFileOrExit.
inline void appendTrace(const BenchConfig& cfg, const std::string& trace) {
  std::FILE* file = cfg.trace_file.get();
  if (std::fwrite(trace.data(), 1, trace.size(), file) != trace.size() ||
      std::fflush(file) != 0) {
    std::fprintf(stderr, "failed to write '%s'\n", cfg.trace.c_str());
    std::exit(1);
  }
}

/// One seeded run for a bench that loops by hand; with --trace, its lines
/// reach the file when it returns.
template <class Synthesizer>
bo::SynthesisResult runOnce(const BenchConfig& cfg,
                            const Synthesizer& synthesizer,
                            bo::Problem& problem, std::uint64_t seed) {
  if (!cfg.trace_file) return synthesizer.run(problem, seed);
  std::string trace;
  bo::SynthesisResult result = runTraced(synthesizer, problem, seed, trace);
  appendTrace(cfg, trace);
  return result;
}

/// Run `runs` seeded repetitions of one algorithm on the parallel pool —
/// one repeat per task, traced or not, seed base_seed+r (defaults to
/// cfg.seed), a fresh problem instance per task from the factory
/// (Problem::evaluate may mutate state, so instances are never shared) —
/// and add the results to @p stats in repeat order. Aggregates (including
/// the order-sensitive median tracking) are therefore identical at any
/// thread count. Per-run wall times are recorded unless --no-timing was
/// given; the synthesis loops inside each repeat still run, nested, on
/// their serial path.
///
/// With --trace, each repeat is a runTraced into that repeat's own buffer.
/// Once every repeat is in, the buffers are appended to the trace file in
/// repeat order, so the bytes match at any thread count.
template <class Synthesizer, class ProblemFactory>
void runRepeats(AlgoStats& stats, const Synthesizer& synthesizer,
                ProblemFactory make_problem, std::size_t runs,
                const BenchConfig& cfg,
                std::uint64_t base_seed = std::uint64_t(-1)) {
  if (base_seed == std::uint64_t(-1)) base_seed = cfg.seed;
  struct Repeat {
    bo::SynthesisResult result;
    double seconds = 0.0;
  };
  // Each traced repeat's JSONL lines, one slot per repeat.
  std::vector<std::string> traces(cfg.trace_file ? runs : 0);
  const auto repeat = [&](std::size_t r) {
    auto problem = make_problem();
    const auto start = std::chrono::steady_clock::now();
    Repeat out;
    out.result =
        cfg.trace_file
            ? runTraced(synthesizer, problem, base_seed + r, traces[r])
            : synthesizer.run(problem, base_seed + r);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    out.seconds = elapsed.count();
    return out;
  };
  const std::vector<Repeat> repeats = parallel::parallelMap(runs, repeat);
  for (const Repeat& r : repeats)
    stats.add(r.result, cfg.timing ? r.seconds : 0.0);
  for (const std::string& trace : traces) appendTrace(cfg, trace);
}

/// Common artifact preamble: bench identity, mode, runs, seed.
inline Json artifactHeader(const BenchConfig& cfg, const std::string& bench,
                           std::size_t runs) {
  Json doc = Json::object();
  doc.set("bench", bench);
  doc.set("mode", cfg.mode());
  doc.set("runs", runs);
  doc.set("seed", Json::number(static_cast<double>(cfg.seed)));
  return doc;
}

/// Write @p text and a final newline to @p path, or name the path on
/// stderr and exit 1 — a bench asked for a file it silently failed to
/// produce would poison downstream comparisons. fwrite, fputc and fclose
/// are all checked: on a full disk the buffered bytes often fail only at
/// fclose.
inline void writeFileOrExit(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", path.c_str());
    std::exit(1);
  }
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fputc('\n', f) != EOF;
  if (std::fclose(f) != 0 || !wrote) {
    std::fprintf(stderr, "failed to write '%s'\n", path.c_str());
    std::exit(1);
  }
}

/// Write @p doc (with a telemetry metrics snapshot appended) to the --out
/// path through writeFileOrExit. No-op when --out was not given. Under
/// --no-timing the snapshot omits peak RSS and span wall times, so the
/// artifact bytes depend only on the seed, not the thread count.
inline void writeArtifactFile(const BenchConfig& cfg, Json doc) {
  if (cfg.out.empty()) return;
  doc.set("metrics", telemetry::metricsSnapshot(cfg.timing));
  writeFileOrExit(cfg.out, doc.dump());
  std::fprintf(stderr, "wrote artifact %s\n", cfg.out.c_str());
}

/// The standard table/ablation artifact: header + per-algorithm per-run
/// results + metrics snapshot.
inline void writeArtifact(const BenchConfig& cfg, const std::string& bench,
                          std::size_t runs,
                          const std::vector<const AlgoStats*>& algos) {
  if (cfg.out.empty()) return;
  Json doc = artifactHeader(cfg, bench, runs);
  Json list = Json::array();
  for (const AlgoStats* a : algos) list.push(a->toJson());
  doc.set("algorithms", list);
  writeArtifactFile(cfg, std::move(doc));
}

inline void printRule(int width = 72) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

}  // namespace mfbo::bench
