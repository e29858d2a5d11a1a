// Crash/resume differential harness for the engine's run log: kill the
// optimizer at EVERY reachable state boundary, replay the log persisted up
// to it into a fresh engine, drive it to completion, and require the final
// result and the *suffix* of the observer's iteration records to be
// byte-identical to the uninterrupted run's — serial and at 4 threads,
// for MFBO (q ∈ {1, 2, 4}) and WEIBO. Plus the corruption battery — torn
// and checksum-failing
// lines, header drift (format, version, algo, seed, problem, options),
// missing, extra and out-of-range fields, evaluations that differ from
// the replayed proposals, unconsumed evaluations, step counts beyond the
// log — every one a typed rejection, never a silently different run; and
// a deterministic mutation fuzzer over whole logs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bo/engine.h"
#include "bo/mfbo.h"
#include "bo/weibo.h"
#include "common/check.h"
#include "common/json.h"
#include "common/parallel.h"
#include "linalg/rng.h"
#include "problems/synthetic.h"
#include "service/session_manager.h"

namespace {

using namespace mfbo;
using bo::EngineState;

struct ScopedThreads {
  explicit ScopedThreads(std::size_t n) { parallel::setMaxThreads(n); }
  ~ScopedThreads() { parallel::setMaxThreads(0); }
};

// Tiny-but-complete configs: a few loop iterations, both fit paths
// (retrain_every = 2 alternates full refits and incremental appends), both
// evaluation fidelities after the initial design (gamma = 0.5 keeps the
// eq. (11) threshold generous enough for high-fidelity picks within the
// budget), the budget-downgrade edge, and — for q > 1 — truncated final
// batches. These values mirror bench/micro_batch.cpp's fixtureOptions();
// the options section of the log header turns drift between the two
// copies into a loud ContractViolation.
bo::MfboOptions tinyMfboOptions(std::size_t batch_size = 1) {
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

bo::WeiboOptions tinyWeiboOptions() {
  bo::WeiboOptions opt;
  opt.n_init = 5;
  opt.max_sims = 8.0;
  opt.retrain_every = 2;
  opt.msp.n_starts = 4;
  opt.msp.local.max_evaluations = 30;
  opt.gp.n_restarts = 1;
  return opt;
}

problems::ConstrainedQuadraticProblem tinyProblem() {
  return problems::ConstrainedQuadraticProblem(2);
}

/// @p options with an observer appending each iteration record's
/// iterationJson dump to @p events.
template <typename Options>
Options observed(Options options, std::vector<std::string>& events) {
  options.observer = [&events](const bo::IterationRecord& r) {
    events.push_back(bo::iterationJson(r).dump());
  };
  return options;
}

/// Uninterrupted reference run, with the run log and a record-position
/// mark at every state boundary along the way. logs[k] is what a manager
/// persisting every step holds after k steps.
struct ReferenceRun {
  std::vector<std::string> logs;           ///< one per boundary
  std::vector<std::size_t> trace_marks;    ///< records observed before it
  std::vector<std::string> events;         ///< every record, one dump each
  std::string result;                      ///< final result JSON bytes
};

template <typename Engine, typename Options>
ReferenceRun referenceRun(const Options& options, std::uint64_t seed,
                          std::size_t persist_every = 1) {
  auto problem = tinyProblem();
  ReferenceRun out;
  Engine engine(problem, seed, observed(options, out.events));
  std::string log = engine.logHeader();
  std::size_t persisted = 0;
  while (!engine.done()) {
    out.logs.push_back(log);
    out.trace_marks.push_back(out.events.size());
    engine.step();
    if (!engine.done() && engine.steps() % persist_every == 0) {
      log += engine.logRecord(persisted);
      persisted = engine.evaluations();
    }
  }
  out.result = bo::synthesisResultToJson(engine.takeResult()).dump();
  return out;
}

/// Replay @p log into a fresh engine, run to completion, and return
/// {result bytes, observed records}.
template <typename Engine, typename Options>
std::pair<std::string, std::vector<std::string>> resumedRun(
    const Options& options, std::uint64_t seed, const std::string& log) {
  auto problem = tinyProblem();
  std::vector<std::string> events;
  Engine engine(problem, seed, observed(options, events));
  engine.replay(log);
  const std::string result =
      bo::synthesisResultToJson(engine.run()).dump();
  return {result, events};
}

/// The differential: for every boundary's log of the reference run,
/// resume and require byte-identical result + iteration-record suffix.
template <typename Engine, typename Options>
void killResumeSweep(const Options& options, std::uint64_t seed,
                     const char* label) {
  const ReferenceRun ref = referenceRun<Engine>(options, seed);
  ASSERT_GE(ref.logs.size(), 5u) << label << ": degenerate run";
  for (std::size_t k = 0; k < ref.logs.size(); ++k) {
    const auto resumed = resumedRun<Engine>(options, seed, ref.logs[k]);
    EXPECT_EQ(resumed.first, ref.result)
        << label << ": result diverged resuming from boundary " << k;
    const std::size_t mark = ref.trace_marks[k];
    ASSERT_EQ(resumed.second.size(), ref.events.size() - mark)
        << label << ": trace suffix length diverged at boundary " << k;
    for (std::size_t e = 0; e < resumed.second.size(); ++e)
      EXPECT_EQ(resumed.second[e], ref.events[mark + e])
          << label << ": trace event " << e << " diverged at boundary " << k;
  }
}

// --- the kill/resume differential ----------------------------------------

TEST(KillResume, MfboEveryBoundarySerial) {
  const ScopedThreads scope(1);
  killResumeSweep<bo::MfboEngine>(tinyMfboOptions(1), 11, "mfbo q=1");
}

TEST(KillResume, MfboBatch2EveryBoundarySerial) {
  const ScopedThreads scope(1);
  killResumeSweep<bo::MfboEngine>(tinyMfboOptions(2), 11, "mfbo q=2");
}

TEST(KillResume, MfboBatch4EveryBoundarySerial) {
  const ScopedThreads scope(1);
  killResumeSweep<bo::MfboEngine>(tinyMfboOptions(4), 11, "mfbo q=4");
}

TEST(KillResume, WeiboEveryBoundarySerial) {
  const ScopedThreads scope(1);
  killResumeSweep<bo::WeiboEngine>(tinyWeiboOptions(), 11, "weibo");
}

TEST(KillResume, MfboEveryBoundaryPooled) {
  const ScopedThreads scope(4);
  killResumeSweep<bo::MfboEngine>(tinyMfboOptions(2), 11, "mfbo q=2 t=4");
}

TEST(KillResume, CheckpointTakenSerialResumesIdenticallyAtFourThreads) {
  // The strongest cross-thread statement: a log written by a serial
  // process must resume on a 4-thread process to the same bytes the serial
  // process would have produced.
  const bo::MfboOptions options = tinyMfboOptions(2);
  ReferenceRun ref;
  {
    const ScopedThreads scope(1);
    ref = referenceRun<bo::MfboEngine>(options, 13);
  }
  const std::size_t k = ref.logs.size() / 2;
  const ScopedThreads scope(4);
  const auto resumed = resumedRun<bo::MfboEngine>(options, 13, ref.logs[k]);
  EXPECT_EQ(resumed.first, ref.result);
  ASSERT_EQ(resumed.second.size(), ref.events.size() - ref.trace_marks[k]);
  for (std::size_t e = 0; e < resumed.second.size(); ++e)
    EXPECT_EQ(resumed.second[e], ref.events[ref.trace_marks[k] + e]);
}

TEST(KillResume, SweepCoversBothFidelitiesAndBothFitPaths) {
  // Coverage guard for the sweeps above: the tiny config must actually
  // reach post-init evaluations at BOTH fidelities (their replay cursors
  // are separate code paths) and both the refit and the incremental fit
  // boundary — otherwise the sweep silently stops testing them.
  const ScopedThreads scope(1);
  auto problem = tinyProblem();
  const bo::MfboOptions opt = tinyMfboOptions(1);
  bo::MfboEngine engine(problem, 11, opt);
  while (!engine.done()) engine.step();
  const bo::SynthesisResult result = engine.takeResult();
  const std::size_t n_init = opt.n_init_low + opt.n_init_high;
  ASSERT_GT(result.history.size(), n_init + 2);
  std::size_t post_low = 0;
  std::size_t post_high = 0;
  for (std::size_t i = n_init; i < result.history.size(); ++i)
    (result.history[i].fidelity == bo::Fidelity::kHigh ? post_high
                                                       : post_low) += 1;
  EXPECT_GT(post_low, 0u);
  EXPECT_GT(post_high, 0u);
  EXPECT_GT(result.history.size() - n_init, opt.retrain_every)
      << "too few iterations to hit both a refit and an incremental fit";
}

TEST(KillResume, ResumedRunsDifferAcrossBoundaries) {
  // Degeneracy guard for the sweep above: distinct boundaries carry
  // distinct logs (a log that ignored its position would also pass a
  // comparison against a fixed golden).
  const ScopedThreads scope(1);
  const ReferenceRun ref =
      referenceRun<bo::MfboEngine>(tinyMfboOptions(1), 11);
  ASSERT_GE(ref.logs.size(), 3u);
  EXPECT_NE(ref.logs.front(), ref.logs.back());
  EXPECT_NE(ref.trace_marks.front(), ref.trace_marks.back());
}

TEST(KillResume, CheckpointSerializationRoundTrips) {
  // Through a file, with lines persisted every third step, so each line
  // carries the evaluations of several steps.
  const ScopedThreads scope(1);
  const bo::MfboOptions options = tinyMfboOptions(1);
  const ReferenceRun ref = referenceRun<bo::MfboEngine>(options, 11, 3);
  const std::string& log = ref.logs[ref.logs.size() / 2];
  const std::string path = testing::TempDir() + "mfbo_roundtrip.ckpt.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << log;
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  ASSERT_EQ(bytes.str(), log);
  const auto resumed = resumedRun<bo::MfboEngine>(options, 11, bytes.str());
  EXPECT_EQ(resumed.first, ref.result);
}

// --- corruption battery --------------------------------------------------

constexpr std::uint64_t kBatterySeed = 17;

/// The run-log seal, implemented independently of the engine: 64-bit
/// FNV-1a of the payload as 16 lowercase hex digits.
std::string checksumHex(const std::string& payload) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

/// Whole lines of @p log, newlines stripped.
std::vector<std::string> splitLines(const std::string& log) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  for (std::size_t end; (end = log.find('\n', pos)) != std::string::npos;
       pos = end + 1)
    lines.push_back(log.substr(pos, end - pos));
  return lines;
}

std::string joinLines(const std::vector<std::string>& lines) {
  std::string log;
  for (const std::string& line : lines) log += line + '\n';
  return log;
}

/// Payload of record line @p line (everything before the checksum).
Json recordPayload(const std::string& line) {
  return Json::parse(line.substr(0, line.rfind(' ')));
}

/// A well-formed record line for @p payload: what a forger who knows the
/// seal would write. Lets the battery reach the checks behind the
/// checksum.
std::string sealed(const Json& payload) {
  const std::string bytes = payload.dump();
  return bytes + ' ' + checksumHex(bytes);
}

/// Copy of array @p arr with element @p i replaced by @p v.
Json withItem(const Json& arr, std::size_t i, Json v) {
  Json out = Json::array();
  for (std::size_t k = 0; k < arr.size(); ++k)
    out.push(k == i ? v : arr.at(k));
  return out;
}

Json withoutKey(const Json& obj, const std::string& key) {
  Json out = Json::object();
  for (const auto& [k, v] : obj.members())
    if (k != key) out.set(k, v);
  return out;
}

/// A log with real content: persisted every step, through init, the first
/// fit and one full iteration.
std::string midRunLog(const bo::MfboOptions& options) {
  auto problem = tinyProblem();
  bo::MfboEngine engine(problem, kBatterySeed, options);
  std::string log = engine.logHeader();
  std::size_t persisted = 0;
  for (int i = 0; i < 6 && !engine.done(); ++i) {
    engine.step();
    log += engine.logRecord(persisted);
    persisted = engine.evaluations();
  }
  return log;
}

/// Index of the last record line of @p lines that carries evaluations.
std::size_t lastRecordWithEvaluations(const std::vector<std::string>& lines) {
  for (std::size_t i = lines.size(); i-- > 1;)
    if (recordPayload(lines[i]).at("evals").size() > 0) return i;
  ADD_FAILURE() << "log holds no evaluations";
  return 1;
}

/// Line @p line of @p log with its first evaluation's field @p key set to
/// @p value, resealed.
std::string withEvaluationField(const std::string& log, std::size_t line,
                                const std::string& key, Json value) {
  std::vector<std::string> lines = splitLines(log);
  Json payload = recordPayload(lines[line]);
  Json e = payload.at("evals").at(0);
  e.set(key, std::move(value));
  payload.set("evals", withItem(payload.at("evals"), 0, std::move(e)));
  lines[line] = sealed(payload);
  return joinLines(lines);
}

/// Expect ContractViolation when replaying @p log into a fresh engine with
/// the battery's seed and default options.
void expectRejected(const std::string& log, const std::string& label) {
  auto problem = tinyProblem();
  bo::MfboEngine engine(problem, kBatterySeed, tinyMfboOptions(1));
  EXPECT_THROW(engine.replay(log), ContractViolation) << label;
}

/// The log with its header line's JSON edited by @p edit.
template <typename Edit>
std::string withHeader(const std::string& log, Edit edit) {
  std::vector<std::string> lines = splitLines(log);
  Json header = Json::parse(lines[0]);
  edit(header);
  lines[0] = header.dump();
  return joinLines(lines);
}

TEST(CheckpointCorruption, TruncatedDocumentFailsToParse) {
  // A kill mid-append leaves a prefix of the last line with no newline:
  // the replay stops at the previous line and the resumed run is
  // byte-identical (the fuzzer below cuts at every offset). A torn line
  // that a later append followed fails its checksum instead.
  const ScopedThreads scope(1);
  const bo::MfboOptions options = tinyMfboOptions(1);
  const std::string log = midRunLog(options);
  const std::vector<std::string> lines = splitLines(log);
  const std::string whole = joinLines({lines.begin(), lines.end() - 1});
  const std::string& last = lines.back();
  const std::string reference =
      resumedRun<bo::MfboEngine>(options, kBatterySeed, whole).first;
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{1}, last.size() / 2, last.size() - 17,
        last.size() - 1, last.size()}) {
    const std::string torn = whole + last.substr(0, cut);
    auto problem = tinyProblem();
    bo::MfboEngine engine(problem, kBatterySeed, options);
    EXPECT_EQ(engine.replay(torn), whole.size()) << "cut " << cut;
    EXPECT_EQ(bo::synthesisResultToJson(engine.run()).dump(), reference)
        << "cut " << cut;
    if (cut > 0 && cut < last.size())
      expectRejected(torn + '\n', "torn line " + std::to_string(cut));
  }
}

TEST(CheckpointCorruption, WrongVersionIsRejected) {
  const std::string log = midRunLog(tinyMfboOptions(1));
  for (const int version : {0, 2})
    expectRejected(withHeader(log, [&](Json& h) { h.set("version", version); }),
                   "version " + std::to_string(version));
}

TEST(CheckpointCorruption, WrongFormatOrAlgoIsRejected) {
  const std::string log = midRunLog(tinyMfboOptions(1));
  expectRejected(withHeader(log,
                            [](Json& h) {
                              h.set("format", "mfbo-engine-checkpoint");
                            }),
                 "format string");
  expectRejected(withHeader(log, [](Json& h) { h.set("algo", "weibo"); }),
                 "algo tag");
  // And the other direction: an mfbo log into a WeiboEngine.
  auto problem = tinyProblem();
  bo::WeiboEngine engine(problem, kBatterySeed, tinyWeiboOptions());
  EXPECT_THROW(engine.replay(log), ContractViolation);
}

TEST(CheckpointCorruption, EveryMissingTopLevelKeyIsRejected) {
  const std::string log = midRunLog(tinyMfboOptions(1));
  const std::vector<std::string> lines = splitLines(log);
  const Json header = Json::parse(lines[0]);
  for (const auto& member : header.members()) {
    const std::string key = member.first;
    expectRejected(withHeader(log, [&](Json& h) { h = withoutKey(h, key); }),
                   "header without " + key);
  }
  const std::size_t line = lastRecordWithEvaluations(lines);
  const Json payload = recordPayload(lines[line]);
  for (const auto& member : payload.members()) {
    std::vector<std::string> bad = lines;
    bad[line] = sealed(withoutKey(payload, member.first));
    expectRejected(joinLines(bad), "record without " + member.first);
  }
  const Json e = payload.at("evals").at(0);
  for (const auto& member : e.members()) {
    std::vector<std::string> bad = lines;
    Json p = payload;
    p.set("evals",
          withItem(payload.at("evals"), 0, withoutKey(e, member.first)));
    bad[line] = sealed(p);
    expectRejected(joinLines(bad), "evaluation without " + member.first);
  }
}

TEST(CheckpointCorruption, ExtraKeysAreRejected) {
  const std::string log = midRunLog(tinyMfboOptions(1));
  expectRejected(withHeader(log, [](Json& h) { h.set("vendor_extension", 1); }),
                 "extra header key");
  expectRejected(withHeader(log,
                            [](Json& h) {
                              Json o = h.at("options");
                              o.set("extra", true);
                              h.set("options", std::move(o));
                            }),
                 "extra options key");
  std::vector<std::string> lines = splitLines(log);
  const std::size_t line = lastRecordWithEvaluations(lines);
  Json payload = recordPayload(lines[line]);
  payload.set("extra", 1);
  lines[line] = sealed(payload);
  expectRejected(joinLines(lines), "extra record key");
  expectRejected(withEvaluationField(log, line, "extra", Json::number(1)),
                 "extra evaluation key");
}

TEST(CheckpointCorruption, NonFinitePayloadsAreRejected) {
  // The writer serializes non-finite doubles as null; a record whose
  // numeric fields come back null must be rejected, not NaN-ed — a NaN
  // objective would poison the GPs.
  const std::string log = midRunLog(tinyMfboOptions(1));
  const std::size_t line = lastRecordWithEvaluations(splitLines(log));
  expectRejected(withEvaluationField(log, line, "objective", Json::null()),
                 "null objective");
  expectRejected(withEvaluationField(log, line, "constraints",
                                     Json::numberArray(std::vector<double>{
                                         std::nan("")})),
                 "null constraint");
  expectRejected(withEvaluationField(log, line, "u",
                                     Json::numberArray(std::vector<double>{
                                         0.5, std::nan("")})),
                 "null coordinate");
}

TEST(CheckpointCorruption, NonIntegralCountsAreRejected) {
  // Counts are range-checked before the conversion to std::size_t: a
  // double at or above 2^64 would be undefined behaviour, not a count.
  const std::string log = midRunLog(tinyMfboOptions(1));
  std::vector<std::string> lines = splitLines(log);
  const std::size_t line = lines.size() - 1;
  for (const double steps : {1.5, -1.0, 1e30, 18446744073709551616.0}) {
    std::vector<std::string> bad = lines;
    Json payload = recordPayload(lines[line]);
    payload.set("steps", steps);
    bad[line] = sealed(payload);
    expectRejected(joinLines(bad), "steps " + std::to_string(steps));
  }
}

TEST(CheckpointCorruption, BadSeedOrRngTokenIsRejected) {
  // The seed travels as a decimal string and must match the engine's.
  const std::string log = midRunLog(tinyMfboOptions(1));
  for (const char* seed :
       {"", "12x", "-3", "99999999999999999999999", "18", "017"})
    expectRejected(withHeader(log, [&](Json& h) { h.set("seed", seed); }),
                   std::string("seed '") + seed + "'");
  // The generator state is implied by the proposals: an input off by one
  // ulp does not match the proposal the replay draws.
  const std::size_t line = lastRecordWithEvaluations(splitLines(log));
  const Json u = recordPayload(splitLines(log)[line])
                     .at("evals")
                     .at(0)
                     .at("u");
  const double v = u.at(0).asNumber();
  expectRejected(withEvaluationField(log, line, "u",
                                     withItem(u, 0,
                                              Json::number(std::nextafter(
                                                  v, v + 1.0)))),
                 "u off by one ulp");
}

TEST(CheckpointCorruption, BadStateIsRejected) {
  // The engine state is implied by the step count: a count the log cannot
  // reach, or one that reaches the end of the run, is rejected.
  const bo::MfboOptions options = tinyMfboOptions(1);
  const std::string log = midRunLog(options);
  std::vector<std::string> lines = splitLines(log);
  Json payload = recordPayload(lines.back());
  payload.set("steps", static_cast<std::size_t>(1000000));
  lines.back() = sealed(payload);
  expectRejected(joinLines(lines), "step count beyond the log");

  // The whole run's log: its last line completes the run.
  auto problem = tinyProblem();
  bo::MfboEngine engine(problem, kBatterySeed, options);
  std::string full = engine.logHeader();
  while (!engine.done()) {
    const std::size_t first = engine.evaluations();
    const std::size_t steps = engine.steps();
    engine.step();
    if (engine.done()) {
      // What a record at Done would hold, had the writer allowed one.
      Json done_payload = Json::object();
      done_payload.set("steps", steps + 1);
      done_payload.set("evals", Json::array());
      full += sealed(done_payload) + '\n';
    } else {
      full += engine.logRecord(first);
    }
  }
  expectRejected(full, "log of a completed run");
}

TEST(CheckpointCorruption, TamperedHistoryCostIsRejected) {
  // The cost meter is recomputed from each evaluation's fidelity, so a
  // flipped fidelity is the one way to tamper with the cost — and it no
  // longer matches the fidelity decision the replay makes.
  const std::string log = midRunLog(tinyMfboOptions(1));
  const std::size_t line = lastRecordWithEvaluations(splitLines(log));
  const std::string fidelity = recordPayload(splitLines(log)[line])
                                   .at("evals")
                                   .at(0)
                                   .at("fidelity")
                                   .asString();
  expectRejected(withEvaluationField(log, line, "fidelity",
                                     Json::str(fidelity == "high" ? "low"
                                                                  : "high")),
                 "flipped fidelity");
  expectRejected(withEvaluationField(log, line, "fidelity", Json::str("mid")),
                 "unknown fidelity");
}

TEST(CheckpointCorruption, TamperedObjectiveIsRejected) {
  // The checksum catches a changed objective. Even a resealed one, in a
  // line before the last, changes what the surrogates are trained on, so
  // the next proposal no longer matches the log.
  const std::string log = midRunLog(tinyMfboOptions(1));
  std::vector<std::string> lines = splitLines(log);
  const std::size_t line = 1;  // the initial design
  const std::string& record = lines[line];
  const std::size_t at = record.find("\"objective\":") + 12;
  std::string flipped = record;
  flipped[at] = flipped[at] == '1' ? '2' : '1';
  std::vector<std::string> bad = lines;
  bad[line] = flipped;
  expectRejected(joinLines(bad), "objective under the checksum");
  const double objective =
      recordPayload(record).at("evals").at(0).at("objective").asNumber();
  expectRejected(withEvaluationField(log, line, "objective",
                                     Json::number(objective + 1.0)),
                 "resealed objective");
}

TEST(CheckpointCorruption, MismatchedOptionsAreRejected) {
  const std::string log = midRunLog(tinyMfboOptions(1));
  const auto reject_with = [&](bo::MfboOptions options, const char* label) {
    auto problem = tinyProblem();
    bo::MfboEngine engine(problem, kBatterySeed, std::move(options));
    EXPECT_THROW(engine.replay(log), ContractViolation) << label;
  };
  {
    bo::MfboOptions o = tinyMfboOptions(1);
    o.gamma = 0.02;
    reject_with(std::move(o), "gamma drift");
  }
  {
    bo::MfboOptions o = tinyMfboOptions(1);
    o.batch_size = 2;
    reject_with(std::move(o), "batch size drift");
  }
  {
    bo::MfboOptions o = tinyMfboOptions(1);
    o.msp.n_starts = 5;
    reject_with(std::move(o), "msp drift");
  }
  {
    bo::MfboOptions o = tinyMfboOptions(1);
    o.nargp.n_mc = 32;
    reject_with(std::move(o), "nargp drift");
  }
  {
    bo::MfboOptions o = tinyMfboOptions(1);
    o.surrogate_factory = [](std::size_t x_dim, std::uint64_t seed) {
      mf::NargpConfig cfg;
      cfg.seed = seed;
      return std::make_unique<mf::NargpModel>(x_dim, cfg);
    };
    reject_with(std::move(o), "custom surrogate");
  }
}

TEST(CheckpointCorruption, MismatchedProblemIsRejected) {
  const std::string log = midRunLog(tinyMfboOptions(1));
  {
    problems::ConstrainedQuadraticProblem wrong_dim(3);
    bo::MfboEngine engine(wrong_dim, kBatterySeed, tinyMfboOptions(1));
    EXPECT_THROW(engine.replay(log), ContractViolation) << "dim";
  }
  {
    problems::ConstrainedQuadraticProblem wrong_ratio(2, /*cost_ratio=*/5.0);
    bo::MfboEngine engine(wrong_ratio, kBatterySeed, tinyMfboOptions(1));
    EXPECT_THROW(engine.replay(log), ContractViolation) << "cost ratio";
  }
  {
    problems::BraninMfProblem wrong_name;
    bo::MfboEngine engine(wrong_name, kBatterySeed, tinyMfboOptions(1));
    EXPECT_THROW(engine.replay(log), ContractViolation) << "name";
  }
}

TEST(CheckpointCorruption, EmptyBatchEntryIsRejected) {
  // Every line must be used up exactly by its own steps: an evaluation
  // list emptied, or one carrying an extra evaluation, is rejected.
  const std::string log = midRunLog(tinyMfboOptions(1));
  std::vector<std::string> lines = splitLines(log);
  const std::size_t line = lastRecordWithEvaluations(lines);
  const Json payload = recordPayload(lines[line]);
  {
    std::vector<std::string> bad = lines;
    Json p = payload;
    p.set("evals", Json::array());
    bad[line] = sealed(p);
    expectRejected(joinLines(bad), "emptied evaluation list");
  }
  {
    std::vector<std::string> bad = lines;
    Json p = payload;
    Json evals = payload.at("evals");
    evals.push(evals.at(0));
    p.set("evals", std::move(evals));
    bad[line] = sealed(p);
    expectRejected(joinLines(bad), "extra unconsumed evaluation");
  }
}

TEST(CheckpointCorruption, RestoreRequiresAFreshEngine) {
  const std::string log = midRunLog(tinyMfboOptions(1));
  auto problem = tinyProblem();
  bo::MfboEngine engine(problem, kBatterySeed, tinyMfboOptions(1));
  engine.step();  // no longer fresh
  EXPECT_THROW(engine.replay(log), ContractViolation);
}

TEST(CheckpointCorruption, RestoreRejectionLeavesNoHalfRestoredRun) {
  // A log rejected part-way through the replay leaves an engine that
  // refuses to step or replay again, rather than one that continues on
  // half-replayed state.
  const std::string log = midRunLog(tinyMfboOptions(1));
  const std::size_t line = lastRecordWithEvaluations(splitLines(log));
  const std::string bad = withEvaluationField(
      log, line, "u", Json::numberArray(std::vector<double>{0.5, 0.5}));
  auto problem = tinyProblem();
  bo::MfboEngine engine(problem, kBatterySeed, tinyMfboOptions(1));
  EXPECT_THROW(engine.replay(bad), ContractViolation);
  EXPECT_GT(engine.steps(), 0u) << "the rejection should come mid-replay";
  EXPECT_THROW(engine.step(), ContractViolation);
  EXPECT_THROW(engine.replay(log), ContractViolation)
      << "a failed replay must not leave the engine looking fresh";
}

// --- multi-session isolation ----------------------------------------------

service::SessionSpec batterySpec(
    const std::string& id, std::uint64_t seed,
    const bo::MfboOptions& options = tinyMfboOptions(1)) {
  service::SessionSpec s;
  s.id = id;
  s.problem = [] {
    return std::make_unique<problems::ConstrainedQuadraticProblem>(2);
  };
  s.engine = [seed, options](bo::Problem& problem) {
    return std::make_unique<bo::MfboEngine>(problem, seed, options);
  };
  return s;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MFBO_CHECK(in.good(), "cannot open file '", path, "'");
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// One corrupted log in a shared recovery directory must poison only its
/// own session: recovery is per-id, so the tampered session's create() is
/// a ContractViolation and the session is not admitted, while every other
/// session resumes from its own file and completes byte-identically to an
/// uninterrupted run.
TEST(CheckpointCorruption, TamperedSessionRejectsAloneOthersResume) {
  const ScopedThreads threads(1);
  const std::vector<std::string> ids = {"good0", "evil", "good1"};

  // Uninterrupted reference results.
  std::vector<std::string> reference;
  {
    service::SessionManager manager;
    for (std::size_t i = 0; i < ids.size(); ++i)
      manager.create(batterySpec(ids[i], 900 + i));
    manager.runAll();
    for (const std::string& id : ids)
      reference.push_back(manager.session(id).resultJson().dump());
  }

  // Interrupted run: a few rounds, every step persisted, then "killed".
  service::SessionManagerOptions options;
  options.checkpoint_dir = testing::TempDir() + "mfbo_tampered_recovery";
  std::filesystem::remove_all(options.checkpoint_dir);
  {
    service::SessionManager manager(options);
    for (std::size_t i = 0; i < ids.size(); ++i)
      manager.create(batterySpec(ids[i], 900 + i));
    for (int round = 0; round < 8; ++round) manager.stepRound();
  }

  // Tamper with one session's log: change a digit of a recorded
  // objective, under the line's checksum.
  const std::string evil_path = options.checkpoint_dir + "/evil.ckpt.json";
  std::string evil = readFile(evil_path);
  const std::size_t at = evil.find("\"objective\":") + 12;
  ASSERT_LT(at, evil.size());
  evil[at] = evil[at] == '1' ? '2' : '1';
  writeFile(evil_path, evil);

  // Recovery: the tampered session alone is rejected and not admitted;
  // the others restore and finish with the reference bytes.
  service::SessionManager recovered(options);
  recovered.create(batterySpec(ids[0], 900));
  EXPECT_THROW(recovered.create(batterySpec(ids[1], 901)), ContractViolation);
  recovered.create(batterySpec(ids[2], 902));
  EXPECT_EQ(recovered.size(), 2u);
  EXPECT_EQ(recovered.find("evil"), nullptr);
  recovered.runAll();
  EXPECT_EQ(recovered.session("good0").resultJson().dump(), reference[0]);
  EXPECT_EQ(recovered.session("good1").resultJson().dump(), reference[2]);
}

// --- deterministic mutation fuzzer ------------------------------------------

/// Every mutation of a valid session log must end in a ContractViolation
/// or a parse error for that session, or in a resume byte-identical to the
/// uninterrupted run — never a crash, a hang or a different run. Mutations
/// are drawn from linalg::Rng with a fixed seed: byte flips, cuts at every
/// offset of the last line, dropped, duplicated and swapped lines, and
/// numeric fields replaced by 1e30, -1, 1.5 and null. Replaced steps and
/// inputs are also resealed, so the range and proposal checks behind the
/// checksum see them; replaced objectives and constraints are left to the
/// checksum, since a resealed one is a forged, self-consistent log.
TEST(RunLogFuzz, MutatedLogsRejectOrResumeIdentically) {
  const ScopedThreads threads(1);
  // A cheaper run than the battery's: the fuzzer resumes a few hundred
  // logs to completion.
  bo::MfboOptions fuzz_options = tinyMfboOptions(1);
  fuzz_options.n_init_low = 4;
  fuzz_options.n_init_high = 2;
  fuzz_options.budget = 4.0;
  fuzz_options.msp.n_starts = 2;
  fuzz_options.msp.local.max_evaluations = 20;
  fuzz_options.nargp.n_mc = 8;
  const service::SessionSpec spec = batterySpec("fz", 23, fuzz_options);
  const std::string dir = testing::TempDir() + "mfbo_log_fuzz";
  std::filesystem::remove_all(dir);
  service::SessionManagerOptions options;
  options.checkpoint_dir = dir;

  std::string reference;
  {
    service::SessionManager manager;
    manager.create(spec);
    manager.runAll();
    reference = manager.session("fz").resultJson().dump();
  }
  // The base log: a run killed part-way, every step persisted, its last
  // line carrying an evaluation.
  {
    service::SessionManager manager(options);
    manager.create(spec);
    for (int round = 0; round < 8; ++round) manager.stepRound();
  }
  const std::string path = dir + "/fz.ckpt.json";
  const std::string base = readFile(path);
  const std::vector<std::string> lines = splitLines(base);
  ASSERT_EQ(lines.size(), 9u);
  ASSERT_EQ(lastRecordWithEvaluations(lines), lines.size() - 1);

  std::size_t rejected = 0;
  std::size_t resumed = 0;
  std::set<std::string> seen;
  const auto check = [&](const std::string& log, const std::string& label) {
    if (!seen.insert(log).second) return;
    writeFile(path, log);
    service::SessionManager manager(options);
    try {
      manager.create(spec);
    } catch (const ContractViolation&) {
      ++rejected;
      return;
    } catch (const std::runtime_error&) {  // Json::parse
      ++rejected;
      return;
    }
    const std::string kept = readFile(path);
    EXPECT_TRUE(kept.empty() || kept.back() == '\n')
        << label << ": torn tail not cut off";
    manager.runAll();
    EXPECT_EQ(manager.session("fz").resultJson().dump(), reference) << label;
    std::filesystem::remove(dir + "/fz.result.json");
    ++resumed;
  };

  linalg::Rng rng(20260416);
  for (int i = 0; i < 200; ++i) {
    std::string log = base;
    const std::size_t at = rng.index(log.size());
    log[at] = static_cast<char>(log[at] ^ (1 << rng.index(8)));
    check(log, "flip at " + std::to_string(at));
  }
  const std::string whole = joinLines({lines.begin(), lines.end() - 1});
  for (std::size_t cut = 0; cut <= lines.back().size(); ++cut)
    check(whole + lines.back().substr(0, cut), "cut " + std::to_string(cut));
  for (std::size_t k = 0; k < lines.size(); ++k) {
    std::vector<std::string> dropped = lines;
    dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(k));
    check(joinLines(dropped), "drop " + std::to_string(k));
    std::vector<std::string> duplicated = lines;
    duplicated.insert(duplicated.begin() + static_cast<std::ptrdiff_t>(k),
                      lines[k]);
    check(joinLines(duplicated), "duplicate " + std::to_string(k));
    if (k + 1 < lines.size()) {
      std::vector<std::string> swapped = lines;
      std::swap(swapped[k], swapped[k + 1]);
      check(joinLines(swapped), "swap " + std::to_string(k));
    }
  }
  const std::vector<Json> values = {Json::number(1e30), Json::number(-1.0),
                                    Json::number(1.5), Json::null()};
  for (std::size_t k = 1; k < lines.size(); ++k) {
    const Json payload = recordPayload(lines[k]);
    for (const Json& v : values) {
      std::vector<std::string> bad = lines;
      Json p = payload;
      p.set("steps", v);
      bad[k] = sealed(p);
      check(joinLines(bad), "steps in line " + std::to_string(k));
      if (payload.at("evals").size() == 0) continue;
      const std::string with_u = withEvaluationField(
          base, k, "u",
          withItem(payload.at("evals").at(0).at("u"), rng.index(2), v));
      check(with_u, "u in line " + std::to_string(k));
      for (const char* field : {"objective", "constraints"}) {
        std::vector<std::string> unsealed = lines;
        Json e = payload.at("evals").at(0);
        e.set(field, std::string(field) == "objective"
                         ? v
                         : withItem(e.at(field), 0, v));
        Json q = payload;
        q.set("evals", withItem(payload.at("evals"), 0, std::move(e)));
        unsealed[k] = q.dump() + lines[k].substr(lines[k].rfind(' '));
        check(joinLines(unsealed),
              std::string(field) + " in line " + std::to_string(k));
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(resumed, 0u);
}

// --- committed golden fixture --------------------------------------------

// Generated by `micro_batch --dump-checkpoint` (see
// tools/regen_baselines.sh); the options mirrored by tinyMfboOptions().
const char* const kFixturePath = MFBO_FIXTURE_DIR "/resume_fixture.json";

TEST(CheckpointFixture, CommittedFixtureRestoresToItsCommittedResult) {
  // The cross-build/cross-machine statement the in-process sweeps cannot
  // make: a log written by a *previous* build of this code must replay on
  // this build and reproduce the committed result bytes.
  const ScopedThreads scope(1);
  const Json fixture = Json::parse(readFile(kFixturePath));
  ASSERT_EQ(fixture.at("format").asString(), "mfbo-engine-resume-fixture");
  ASSERT_EQ(fixture.at("version").asNumber(), 2.0);
  const std::string& log = fixture.at("log").asString();
  const std::uint64_t seed = std::stoull(
      Json::parse(log.substr(0, log.find('\n'))).at("seed").asString());
  const auto resumed =
      resumedRun<bo::MfboEngine>(tinyMfboOptions(2), seed, log);
  EXPECT_EQ(resumed.first, fixture.at("result").dump());
}

TEST(CheckpointFixture, CommittedCheckpointMatchesThePinnedSchema) {
  // Pins the *committed bytes* (the writer pin below covers fresh ones):
  // a format change that regenerates the fixture still has to touch this
  // list, making the compatibility break an explicit review item.
  const Json fixture = Json::parse(readFile(kFixturePath));
  const std::vector<std::string> lines =
      splitLines(fixture.at("log").asString());
  ASSERT_GE(lines.size(), 2u);
  const Json header = Json::parse(lines[0]);
  EXPECT_EQ(header.at("format").asString(), "mfbo-run-log");
  EXPECT_EQ(header.at("version").asNumber(), 1.0);
  EXPECT_EQ(header.at("algo").asString(), "mfbo");
  EXPECT_EQ(header.at("problem").at("name").asString(),
            "constrained-quadratic");
  for (std::size_t k = 1; k < lines.size(); ++k) {
    const std::size_t space = lines[k].rfind(' ');
    EXPECT_EQ(lines[k].substr(space + 1),
              checksumHex(lines[k].substr(0, space)))
        << "record " << k;
  }
}

// --- schema pin ----------------------------------------------------------

TEST(CheckpointSchema, TopLevelKeySetIsPinned) {
  const std::vector<std::string> lines =
      splitLines(midRunLog(tinyMfboOptions(1)));
  const auto expect_keys = [](const Json& obj,
                              const std::vector<std::string>& expected,
                              const char* what) {
    ASSERT_EQ(obj.members().size(), expected.size()) << what;
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_EQ(obj.members()[i].first, expected[i]) << what << " slot " << i;
  };
  const Json header = Json::parse(lines[0]);
  expect_keys(header,
              {"format", "version", "algo", "seed", "problem", "options"},
              "header");
  EXPECT_TRUE(header.at("seed").isString())
      << "seed must be a decimal string: a JSON double cannot carry all "
         "uint64 values";
  EXPECT_TRUE(header.at("options").at("custom_surrogate").isBool());
  const Json record = recordPayload(lines[lastRecordWithEvaluations(lines)]);
  expect_keys(record, {"steps", "evals"}, "record");
  expect_keys(record.at("evals").at(0),
              {"fidelity", "u", "objective", "constraints"}, "evaluation");
}

}  // namespace
