#include "bo/engine.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "bo/acquisition.h"
#include "common/check.h"
#include "common/eventlog.h"
#include "common/parallel.h"
#include "common/spans.h"

namespace mfbo::bo {

namespace {

constexpr const char* kLogFormat = "mfbo-run-log";
constexpr int kLogVersion = 1;

/// 64-bit FNV-1a of @p bytes as the 16 lowercase hex digits that seal a
/// run-log line.
std::string checksumHex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(h));
  return hex;
}

/// Finite number; a JSON null means the writer held a non-finite value.
double finiteValue(const Json& v, const char* what) {
  MFBO_CHECK(v.isNumber() && std::isfinite(v.asNumber()), what,
             " must be a finite number");
  return v.asNumber();
}

/// Non-negative integral count, range-checked *before* the conversion:
/// converting a double at or above 2^64 to std::size_t is undefined
/// behaviour, not a large count.
std::size_t countValue(const Json& v, const char* what) {
  const double x = finiteValue(v, what);
  MFBO_CHECK(x >= 0.0 && x < 0x1p53 && x == std::floor(x), what,
             " must be a non-negative integer below 2^53, got ", x);
  return static_cast<std::size_t>(x);
}

std::vector<double> finiteArray(const Json& v, std::size_t n,
                                const char* what) {
  MFBO_CHECK(v.isArray() && v.size() == n, what, " must be an array of ", n,
             " numbers");
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = finiteValue(v.at(i), what);
  return out;
}

Fidelity fidelityFromName(const Json& v) {
  MFBO_CHECK(v.isString() && (v.asString() == "high" || v.asString() == "low"),
             "fidelity must be \"high\" or \"low\"");
  return v.asString() == "high" ? Fidelity::kHigh : Fidelity::kLow;
}

/// One evaluation as the run log carries it.
struct LoggedEvaluation {
  Fidelity fidelity = Fidelity::kHigh;
  Vector u;  ///< unit-cube input
  Evaluation eval;
};

/// One run-log line after its checksum and field checks.
struct LogRecord {
  std::size_t steps = 0;
  std::vector<LoggedEvaluation> evaluations;
};

/// Parse record @p index: "<payload> <checksum>", the payload being
/// {"steps":N,"evals":[{"fidelity","u","objective","constraints"}...]}.
LogRecord parseRecord(std::string_view line, std::size_t index, std::size_t d,
                      std::size_t nc) {
  const std::size_t space = line.rfind(' ');
  MFBO_CHECK(space != std::string_view::npos && line.size() - space == 17,
             "run log record ", index, " has no checksum");
  const std::string_view payload = line.substr(0, space);
  MFBO_CHECK(line.substr(space + 1) == checksumHex(payload),
             "run log record ", index, " fails its checksum");
  const Json doc = Json::parse(std::string(payload));
  MFBO_CHECK(doc.isObject() && doc.size() == 2, "run log record ", index,
             " must hold exactly 'steps' and 'evals'");
  LogRecord rec;
  rec.steps = countValue(doc.at("steps"), "record steps");
  const Json& evals = doc.at("evals");
  MFBO_CHECK(evals.isArray(), "run log record ", index,
             " 'evals' must be an array");
  for (const Json& e : evals.items()) {
    MFBO_CHECK(e.isObject() && e.size() == 4, "run log record ", index,
               " evaluation must hold exactly fidelity, u, objective and "
               "constraints");
    LoggedEvaluation logged;
    logged.fidelity = fidelityFromName(e.at("fidelity"));
    logged.u = Vector(finiteArray(e.at("u"), d, "evaluation u"));
    logged.eval.objective = finiteValue(e.at("objective"), "objective");
    logged.eval.constraints =
        finiteArray(e.at("constraints"), nc, "constraints");
    rec.evaluations.push_back(std::move(logged));
  }
  return rec;
}

bool sameBits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

Json mspJson(const MspOptions& msp) {
  Json m = Json::object();
  m.set("n_starts", msp.n_starts);
  m.set("frac_tau_l", msp.frac_tau_l);
  m.set("frac_tau_h", msp.frac_tau_h);
  m.set("relative_sd", msp.relative_sd);
  m.set("local_max_evaluations", msp.local.max_evaluations);
  m.set("local_initial_step", msp.local.initial_step);
  return m;
}

/// bestHighIndex over the first @p count history entries: what the best-so-
/// far fields of slot k's iteration record must not see is the evaluations
/// of the batch slots *after* it.
std::optional<std::size_t> bestHighUpTo(
    const std::vector<HistoryEntry>& history, std::size_t count) {
  std::optional<std::size_t> best;
  bool best_feasible = false;
  for (std::size_t i = 0; i < count; ++i) {
    if (history[i].fidelity != Fidelity::kHigh) continue;
    const Evaluation& e = history[i].eval;
    const bool feasible = e.feasible();
    if (!best) {
      best = i;
      best_feasible = feasible;
      continue;
    }
    const Evaluation& b = history[*best].eval;
    if (feasible && !best_feasible) {
      best = i;
      best_feasible = true;
    } else if (feasible == best_feasible) {
      const bool better = feasible
                              ? e.objective < b.objective
                              : e.totalViolation() < b.totalViolation();
      if (better) best = i;
    }
  }
  return best;
}

}  // namespace

const char* engineStateName(EngineState s) {
  switch (s) {
    case EngineState::kInit:
      return "init";
    case EngineState::kFitSurrogate:
      return "fit_surrogate";
    case EngineState::kPropose:
      return "propose";
    case EngineState::kAwaitResults:
      return "await_results";
    case EngineState::kObserve:
      return "observe";
    case EngineState::kDone:
      return "done";
  }
  return "unknown";
}

Json synthesisResultToJson(const SynthesisResult& result) {
  Json j = Json::object();
  j.set("best_x", Json::numberArray(result.best_x));
  j.set("best_objective", result.best_eval.objective);
  j.set("best_constraints", Json::numberArray(result.best_eval.constraints));
  j.set("feasible_found", result.feasible_found);
  j.set("n_low", result.n_low);
  j.set("n_high", result.n_high);
  j.set("equivalent_high_sims", result.equivalent_high_sims);
  Json hist = Json::array();
  for (const HistoryEntry& h : result.history) {
    Json e = Json::object();
    e.set("x", Json::numberArray(h.x));
    e.set("fidelity", fidelityName(h.fidelity));
    e.set("objective", h.eval.objective);
    e.set("constraints", Json::numberArray(h.eval.constraints));
    e.set("cost", h.cumulative_cost);
    hist.push(std::move(e));
  }
  j.set("history", std::move(hist));
  return j;
}

Engine::Engine(Problem& problem, std::uint64_t seed)
    : problem_(&problem),
      seed_(seed),
      d_(problem.dim()),
      nc_(problem.numConstraints()),
      n_out_(1 + nc_),
      real_box_(problem.bounds()),
      unit_(Box::unitCube(d_)),
      ratio_(problem.costRatio()),
      rng_(seed),
      tracker_(ratio_) {
  MFBO_CHECK(d_ > 0, "problem has zero dimensions");
  MFBO_CHECK(ratio_ > 0.0, "cost ratio must be positive, got ", ratio_);
  MFBO_CHECK(real_box_.dim() == d_, "problem bounds dim ", real_box_.dim(),
             " does not match problem dim ", d_);
}

void Engine::transition(EngineState next) {
  // Every state write funnels through here (lint rule E001), which makes
  // this the one flight-recorder site for "what was the engine doing":
  // the journal's last engine_transition names the in-flight state.
  eventlog::record(eventlog::EventKind::kEngineTransition,
                   engineStateName(state_), engineStateName(next),
                   static_cast<std::int64_t>(iteration_));
  bool legal = false;
  switch (state_) {
    case EngineState::kInit:
      legal = next == EngineState::kFitSurrogate;
      break;
    case EngineState::kFitSurrogate:
      legal = next == EngineState::kPropose || next == EngineState::kDone;
      break;
    case EngineState::kPropose:
      legal = next == EngineState::kAwaitResults;
      break;
    case EngineState::kAwaitResults:
      legal = next == EngineState::kObserve;
      break;
    case EngineState::kObserve:
      legal = next == EngineState::kFitSurrogate;
      break;
    case EngineState::kDone:
      legal = false;
      break;
  }
  MFBO_CHECK(legal, "illegal engine transition ", engineStateName(state_),
             " -> ", engineStateName(next));
  state_ = next;
}

void Engine::step() {
  MFBO_CHECK(state_ != EngineState::kDone, "step() on a completed engine");
  MFBO_CHECK(!rejected_, "step() on an engine whose run log was rejected");
  switch (state_) {
    case EngineState::kInit:
      handleInit();
      break;
    case EngineState::kFitSurrogate:
      handleFitSurrogate();
      break;
    case EngineState::kPropose:
      handlePropose();
      break;
    case EngineState::kAwaitResults:
      handleAwaitResults();
      break;
    case EngineState::kObserve:
      handleObserve();
      break;
    case EngineState::kDone:
      break;
  }
  ++steps_;
}

SynthesisResult Engine::runToCompletion() {
  while (!done()) step();
  return takeResult();
}

SynthesisResult Engine::takeResult() {
  MFBO_CHECK(done(), "takeResult() before the run completed");
  return std::move(result_);
}

Evaluation Engine::simulate(const Vector& u, Fidelity f) {
  const bool hi = f == Fidelity::kHigh;
  const spans::ScopedSpan sim_span(hi ? "simulate_high" : "simulate_low");
  spans::addCounter(hi ? "sims_high" : "sims_low");
  return problem_->evaluate(real_box_.fromUnit(u), f);
}

std::size_t Engine::recordEvaluation(const Vector& u, Fidelity f,
                                     Evaluation eval) {
  tracker_.charge(f);
  history_.push_back({real_box_.fromUnit(u), eval, f, tracker_.cost()});
  (f == Fidelity::kHigh ? high_ : low_).add(u, std::move(eval));
  return history_.size() - 1;
}

std::size_t Engine::evaluateRaw(const Vector& u, Fidelity f) {
  return recordEvaluation(u, f,
                          replaying() ? serveLogged(u, f) : simulate(u, f));
}

void Engine::handleAwaitResults() {
  // The batch's simulations run as pool tasks: each is an independent pure
  // evaluation whose input was fixed at propose time, written into a
  // slot-indexed output. The stateful bookkeeping — cost meter, history,
  // archives — then replays serially in slot order, i.e. in exactly the
  // order the sequential loop produced, so results are byte-identical at
  // any thread count. This is also the engine's cooperative-yield point
  // for the session layer: a q-slot batch occupies the pool for one region
  // and then returns to the scheduler.
  std::vector<Evaluation> evals(pending_.size());
  if (replaying()) {
    // The log holds the batch in slot order, the order it was recorded in.
    for (std::size_t i = 0; i < pending_.size(); ++i)
      evals[i] = serveLogged(pending_[i].x, pending_[i].fidelity);
  } else {
    parallel::parallelFor(pending_.size(), [&](std::size_t i) {
      evals[i] = simulate(pending_[i].x, pending_[i].fidelity);
    });
  }
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    ProposedSlot& slot = pending_[i];
    slot.history_index =
        recordEvaluation(slot.x, slot.fidelity, std::move(evals[i]));
    slot.dataset_index =
        (slot.fidelity == Fidelity::kHigh ? high_ : low_).size() - 1;
  }
  transition(EngineState::kObserve);
}

void Engine::handleObserve() {
  const IterationObserver& observer = observerRef();
  for (const ProposedSlot& slot : pending_) {
    if (!iterationWanted(observer)) break;
    const spans::ScopedSpan observe_span("observe");
    IterationRecord rec;
    rec.algo = algoName();
    rec.iteration = slot.iteration;
    rec.fidelity = slot.fidelity;
    rec.downgraded = slot.downgraded;
    rec.retrained = retrainPlanned();
    rec.first_feasible_phase = slot.first_feasible_phase;
    rec.tau_l = slot.tau_l;
    rec.tau_h = slot.tau_h;
    rec.max_norm_var = slot.max_norm_var;
    rec.threshold = slot.threshold;
    rec.norm_low_var = slot.norm_low_var;
    rec.cumulative_cost = history_[slot.history_index].cumulative_cost;
    if (!slot.x_star_l.empty()) rec.x_star_l = &slot.x_star_l;
    if (!slot.x_t_raw.empty()) rec.x_t_raw = &slot.x_t_raw;
    rec.deduped = slot.deduped;
    rec.x = &history_[slot.history_index].x;
    rec.eval = &history_[slot.history_index].eval;
    rec.acquisition = observedAcquisition(slot);
    // Best-so-far over the history prefix this slot can see: its own
    // evaluation and everything before it, not its batch successors.
    if (const auto best = bestHighUpTo(history_, slot.history_index + 1)) {
      rec.best_objective = history_[*best].eval.objective;
      rec.feasible_found = history_[*best].eval.feasible();
    }
    if (!replaying()) publishIteration(rec, observer);
  }
  transition(EngineState::kFitSurrogate);
}

void Engine::finishFit() {
  pending_.clear();
  if (tracker_.cost() + minStepCost() <= budget() + 1e-9) {
    transition(EngineState::kPropose);
  } else {
    finish();
  }
}

void Engine::finish() {
  result_ = finalizeResult(std::move(history_), tracker_);
  if (!replaying()) traceRunEnd(algoName(), result_);
  transition(EngineState::kDone);
}

bool Engine::retrainPlanned() const {
  const std::size_t every = retrainEvery();
  if (every <= 1) return true;
  for (const ProposedSlot& slot : pending_)
    if (slot.iteration % every == 0) return true;
  return false;
}

std::vector<double> Engine::columnOf(const Dataset& ds, std::size_t out) {
  return out == 0 ? ds.objectives() : ds.constraintColumn(out - 1);
}

std::string Engine::logHeader() const {
  Json header = Json::object();
  header.set("format", kLogFormat);
  header.set("version", kLogVersion);
  header.set("algo", algoName());
  // A full uint64 does not survive a JSON double, hence a decimal string.
  header.set("seed", std::to_string(seed_));
  Json prob = Json::object();
  prob.set("name", problem_->name());
  prob.set("dim", d_);
  prob.set("num_constraints", nc_);
  prob.set("cost_ratio", ratio_);
  header.set("problem", std::move(prob));
  header.set("options", optionsJson());
  return header.dump() + '\n';
}

std::string Engine::logRecord(std::size_t first_evaluation) const {
  MFBO_CHECK(!done(), "logRecord() on a completed engine");
  MFBO_CHECK(first_evaluation <= history_.size(), "first evaluation ",
             first_evaluation, " beyond the ", history_.size(),
             " recorded");
  // The rows since first_evaluation are the tails of their archives, which
  // hold the unit-cube inputs the proposals were made in.
  std::size_t low_row = low_.size();
  std::size_t high_row = high_.size();
  for (std::size_t i = first_evaluation; i < history_.size(); ++i)
    --(history_[i].fidelity == Fidelity::kHigh ? high_row : low_row);
  Json evals = Json::array();
  for (std::size_t i = first_evaluation; i < history_.size(); ++i) {
    const HistoryEntry& h = history_[i];
    const bool hi = h.fidelity == Fidelity::kHigh;
    Json e = Json::object();
    e.set("fidelity", fidelityName(h.fidelity));
    e.set("u", Json::numberArray((hi ? high_ : low_).x[hi ? high_row++
                                                          : low_row++]));
    e.set("objective", h.eval.objective);
    e.set("constraints", Json::numberArray(h.eval.constraints));
    evals.push(std::move(e));
  }
  Json record = Json::object();
  record.set("steps", steps_);
  record.set("evals", std::move(evals));
  const std::string payload = record.dump();
  return payload + ' ' + checksumHex(payload) + '\n';
}

struct Engine::ReplayFeed {
  std::vector<LoggedEvaluation> evaluations;
  std::size_t next = 0;  ///< first evaluation not yet served
};

std::size_t Engine::replay(std::string_view log) {
  MFBO_CHECK(steps_ == 0 && !rejected_,
             "replay() requires a freshly constructed engine");
  const std::size_t last_newline = log.rfind('\n');
  if (last_newline == std::string_view::npos) return 0;
  const std::size_t whole = last_newline + 1;
  ReplayFeed feed;
  replay_ = &feed;
  try {
    const std::string header = logHeader();
    MFBO_CHECK(log.substr(0, header.size()) == header,
               "run log header does not match this engine: format, "
               "version, algo, seed, problem or options differ");
    // Every line is checked before the first step, so a damaged log is
    // rejected without re-running any of it.
    std::vector<LogRecord> records;
    for (std::size_t pos = header.size(); pos < whole;) {
      const std::size_t end = log.find('\n', pos);
      records.push_back(
          parseRecord(log.substr(pos, end - pos), records.size() + 1, d_, nc_));
      pos = end + 1;
    }
    for (std::size_t k = 0; k < records.size(); ++k) {
      LogRecord& record = records[k];
      MFBO_CHECK(record.steps >= steps_, "run log record ", k + 1,
                 " goes back from step ", steps_, " to ", record.steps);
      for (LoggedEvaluation& e : record.evaluations)
        feed.evaluations.push_back(std::move(e));
      while (steps_ < record.steps) {
        MFBO_CHECK(!done(), "run log record ", k + 1, " claims step ",
                   record.steps, " but the run completes at step ", steps_);
        step();
      }
      MFBO_CHECK(feed.next == feed.evaluations.size(), "run log record ",
                 k + 1, " holds evaluations its steps never asked for");
    }
    MFBO_CHECK(!done(),
               "run log replays a completed run; completion persists a "
               "result document instead");
  } catch (...) {
    replay_ = nullptr;
    rejected_ = true;
    throw;
  }
  replay_ = nullptr;
  return whole;
}

Evaluation Engine::serveLogged(const Vector& u, Fidelity f) {
  ReplayFeed& feed = *replay_;
  MFBO_CHECK(feed.next < feed.evaluations.size(),
             "run log ends before evaluation ", feed.next,
             " of its steps");
  LoggedEvaluation& logged = feed.evaluations[feed.next];
  MFBO_CHECK(logged.fidelity == f && sameBits(logged.u, u),
             "run log evaluation ", feed.next,
             " differs from the replayed proposal's fidelity or input");
  ++feed.next;
  return std::move(logged.eval);
}

MfboEngine::MfboEngine(Problem& problem, std::uint64_t seed,
                       MfboOptions options)
    : Engine(problem, seed), options_(std::move(options)) {
  MFBO_CHECK(options_.n_init_low > 0 && options_.n_init_high > 0,
             "initial designs must be non-empty, got ", options_.n_init_low,
             " low / ", options_.n_init_high, " high");
  MFBO_CHECK(options_.gamma >= 0.0, "gamma must be non-negative, got ",
             options_.gamma);
  MFBO_CHECK(options_.batch_size >= 1, "batch_size must be >= 1, got ",
             options_.batch_size);
}

SynthesisResult MfboEngine::run() {
  // The span name must be a literal (the profiler keeps the pointer for
  // the process lifetime), hence per-engine run() overrides.
  const spans::ScopedSpan run_span("mfbo");
  return runToCompletion();
}

void MfboEngine::buildModels() {
  SurrogateFactory factory = options_.surrogate_factory;
  if (!factory) {
    factory = [this](std::size_t x_dim, std::uint64_t s) {
      mf::NargpConfig cfg = options_.nargp;
      cfg.seed = s;
      cfg.low.seed = s + 17;
      cfg.high.seed = s + 31;
      return std::make_unique<mf::NargpModel>(x_dim, cfg);
    };
  }
  models_.clear();
  models_.reserve(n_out_);
  for (std::size_t i = 0; i < n_out_; ++i)
    models_.push_back(factory(d_, seed_ * 1000003u + i));
}

void MfboEngine::fitAll() {
  for (std::size_t i = 0; i < n_out_; ++i)
    models_[i]->fit(low_.x, columnOf(low_, i), high_.x, columnOf(high_, i));
}

std::vector<gp::Prediction> MfboEngine::lowPredictions(const Models& models,
                                                       const Vector& u) const {
  std::vector<gp::Prediction> p(n_out_);
  for (std::size_t i = 0; i < n_out_; ++i) p[i] = models[i]->predictLow(u);
  return p;
}

std::vector<gp::Prediction> MfboEngine::highPredictions(
    const Models& models, const Vector& u) const {
  std::vector<gp::Prediction> p(n_out_);
  for (std::size_t i = 0; i < n_out_; ++i) p[i] = models[i]->predictHigh(u);
  return p;
}

void MfboEngine::makeFantasies() {
  const spans::ScopedSpan span("fantasy");
  fantasy_.clear();
  fantasy_.reserve(models_.size());
  for (const auto& m : models_) fantasy_.push_back(m->clone());
}

void MfboEngine::applyLiar(const ProposedSlot& slot) {
  const spans::ScopedSpan span("fantasy");
  const bool hi = slot.fidelity == Fidelity::kHigh;
  for (std::size_t i = 0; i < n_out_; ++i) {
    double lie;
    if (i == 0) {
      // CL-min for the objective: the incumbent best, so the fantasy never
      // moves tau and a lie can only *discourage* re-proposing nearby.
      lie = hi ? fantasy_[0]->bestHighObserved()
               : fantasy_[0]->bestLowObserved();
    } else {
      // Constraints take the believer's value — the posterior mean.
      const gp::Prediction p = hi ? fantasy_[i]->predictHigh(slot.x)
                                  : fantasy_[i]->predictLow(slot.x);
      lie = p.mean;
    }
    if (hi)
      fantasy_[i]->addHigh(slot.x, lie, false);
    else
      fantasy_[i]->addLow(slot.x, lie, false);
  }
}

void MfboEngine::handleInit() {
  if (!replaying()) traceRunStart("mfbo", *problem_, seed_, options_.budget);
  // Step 1 of Algorithm 1: initial designs at both fidelities.
  for (const Vector& u :
       linalg::latinHypercube(options_.n_init_low, unit_, rng_))
    evaluateRaw(u, Fidelity::kLow);
  for (const Vector& u :
       linalg::latinHypercube(options_.n_init_high, unit_, rng_))
    evaluateRaw(u, Fidelity::kHigh);
  buildModels();
  transition(EngineState::kFitSurrogate);
}

void MfboEngine::handleFitSurrogate() {
  if (!models_fitted_) {
    fitAll();
    models_fitted_ = true;
  } else if (retrainPlanned()) {
    fitAll();
  } else {
    for (const ProposedSlot& slot : pending_) {
      const Dataset& ds = slot.fidelity == Fidelity::kHigh ? high_ : low_;
      const Evaluation& eval = ds.evals[slot.dataset_index];
      for (std::size_t i = 0; i < n_out_; ++i) {
        const double y = i == 0 ? eval.objective : eval.constraints[i - 1];
        if (slot.fidelity == Fidelity::kHigh)
          models_[i]->addHigh(ds.x[slot.dataset_index], y, false);
        else
          models_[i]->addLow(ds.x[slot.dataset_index], y, false);
      }
    }
  }
  finishFit();
}

void MfboEngine::handlePropose() {
  // Inputs proposed earlier in this batch; slot s dedupes against them so a
  // fantasy cannot re-propose (and singularize) an unevaluated sibling.
  Dataset pending_points;
  double projected = tracker_.cost();
  for (std::size_t s = 0; s < options_.batch_size; ++s) {
    if (s > 0 && projected + minStepCost() > budget() + 1e-9) break;
    ++iteration_;
    spans::addCounter("bo.mfbo.iterations");
    if (s == 1) makeFantasies();
    if (s > 0) applyLiar(pending_.back());
    ProposedSlot slot = proposeSlot(s, projected, pending_points);
    projected += slot.fidelity == Fidelity::kHigh ? 1.0 : 1.0 / ratio_;
    pending_points.add(slot.x, Evaluation{});
    pending_.push_back(std::move(slot));
  }
  fantasy_.clear();
  transition(EngineState::kAwaitResults);
}

ProposedSlot MfboEngine::proposeSlot(std::size_t slot_index,
                                     double projected_cost,
                                     const Dataset& pending_points) {
  MFBO_DCHECK(slot_index < options_.batch_size, "slot ", slot_index,
              " out of range for batch size ", options_.batch_size);
  const Models& models = activeModels();

  const auto feas_low = low_.bestFeasible();
  const auto feas_high = high_.bestFeasible();

  // tau incumbents (paper 4.1): locations of the current best results of
  // the low- and high-fidelity search spaces.
  const std::optional<Vector> inc_l =
      low_.size() ? std::optional<Vector>(
                        low_.x[feas_low ? *feas_low : low_.bestByMerit()])
                  : std::nullopt;
  const std::optional<Vector> inc_h =
      high_.size() ? std::optional<Vector>(
                         high_.x[feas_high ? *feas_high : high_.bestByMerit()])
                   : std::nullopt;

  ProposedSlot slot;
  slot.iteration = iteration_;
  slot.on_fantasy = slot_index > 0;

  // Step 5: optimize the low-fidelity acquisition -> x*_l.
  Vector x_star_l;
  double tau_l = IterationRecord::kNan;
  const bool ff_low = nc_ > 0 && !feas_low && options_.use_first_feasible;
  std::optional<spans::ScopedSpan> phase_span;
  phase_span.emplace("acq_low");
  if (ff_low) {
    opt::ScalarObjective criterion = [&](const Vector& u) {
      const auto p = lowPredictions(models, u);
      return predictedViolation({p.begin() + 1, p.end()});
    };
    x_star_l = minimizeCriterionMsp(criterion, unit_, options_.msp.n_starts,
                                    options_.msp.local, rng_);
  } else {
    tau_l = feas_low ? low_.evals[*feas_low].objective
                     : models[0]->bestLowObserved();
    // Ranked in log space: the linear wEI product underflows to a flat 0
    // wherever several constraints are simultaneously improbable, which
    // would blind the MSP search exactly where it must still rank.
    opt::ScalarObjective acq_low = [&](const Vector& u) {
      const auto p = lowPredictions(models, u);
      return logWeightedEi(p[0], tau_l, {p.begin() + 1, p.end()});
    };
    x_star_l = maximizeAcquisitionMsp(acq_low, unit_, inc_l, inc_h,
                                      options_.msp, rng_);
  }

  // Step 6: optimize the fused high-fidelity acquisition seeded with x*_l
  // (plus a few jittered copies of it).
  phase_span.emplace("acq_high");
  std::vector<Vector> seeds{x_star_l};
  for (std::size_t i = 0; i < options_.x_star_seeds; ++i)
    seeds.push_back(linalg::gaussianJitterInBox(
        x_star_l, options_.msp.relative_sd, unit_, rng_));

  Vector x_t;
  double tau_h = IterationRecord::kNan;
  const bool ff_high = nc_ > 0 && !feas_high && options_.use_first_feasible;
  if (ff_high) {
    // eq. (13) on the fused high-fidelity posterior means.
    opt::ScalarObjective criterion = [&](const Vector& u) {
      const auto p = highPredictions(models, u);
      return predictedViolation({p.begin() + 1, p.end()});
    };
    opt::ScalarObjective negated = [&](const Vector& u) {
      return -criterion(u);
    };
    // Reuse the MSP maximizer on the negated criterion so the x*_l seeds
    // participate; equivalent to minimizing the criterion.
    x_t = maximizeAcquisitionMsp(negated, unit_, inc_l, inc_h, options_.msp,
                                 rng_, seeds);
  } else {
    tau_h = feas_high ? high_.evals[*feas_high].objective
                      : models[0]->bestHighObserved();
    // Log-space ranking, as for the low-fidelity acquisition above.
    opt::ScalarObjective acq_high = [&](const Vector& u) {
      const auto p = highPredictions(models, u);
      return logWeightedEi(p[0], tau_h, {p.begin() + 1, p.end()});
    };
    x_t = maximizeAcquisitionMsp(acq_high, unit_, inc_l, inc_h, options_.msp,
                                 rng_, seeds);
  }

  // Dedupe before the fidelity decision, against both archives (the chosen
  // fidelity is not known yet) and the batch's earlier proposals: the
  // eq. (11)/(12) sigma^2_l criterion must be evaluated at the point
  // actually simulated, not at a raw maximizer that a later nudge moves.
  Vector x_t_raw = x_t;
  x_t = dedupeCandidate(std::move(x_t), {&low_, &high_, &pending_points},
                        unit_, rng_);
  slot.deduped = x_t.raw() != x_t_raw.raw();

  // Step 7 (3.4): fidelity selection. Variances are normalized by each low
  // GP's output scale so gamma is dimensionless (eq. 11-12).
  phase_span.emplace("fidelity_decision");
  const std::vector<gp::Prediction> p_low_t = lowPredictions(models, x_t);
  std::vector<double> norm_vars(n_out_);
  double max_norm_var = 0.0;
  for (std::size_t i = 0; i < n_out_; ++i) {
    const double sd_out = models[i]->lowOutputSd();
    norm_vars[i] = p_low_t[i].var / (sd_out * sd_out);
    max_norm_var = std::max(max_norm_var, norm_vars[i]);
  }
  const double threshold = (1.0 + static_cast<double>(nc_)) * options_.gamma;
  Fidelity f = max_norm_var < threshold ? Fidelity::kHigh : Fidelity::kLow;
  // Respect the remaining budget — including the cost of this batch's
  // earlier slots: a high-fidelity evaluation that no longer fits is
  // downgraded.
  bool downgraded = false;
  if (f == Fidelity::kHigh && projected_cost + 1.0 > options_.budget + 1e-9) {
    f = Fidelity::kLow;
    downgraded = true;
    spans::addCounter("bo.mfbo.budget_downgrades");
  }
  // Journal the eq. (11)/(12) outcome: the fidelity schedule is the one
  // decision an MF-BO operator audits over time, and the trace fields
  // alone vanish when tracing is off.
  eventlog::record(eventlog::EventKind::kFidelityDecision,
                   f == Fidelity::kHigh ? "high" : "low",
                   downgraded ? "downgraded" : nullptr,
                   static_cast<std::int64_t>(iteration_),
                   static_cast<std::int64_t>(slot_index));
  phase_span.reset();

  slot.x = std::move(x_t);
  slot.x_star_l = std::move(x_star_l);
  slot.x_t_raw = std::move(x_t_raw);
  slot.fidelity = f;
  slot.downgraded = downgraded;
  slot.first_feasible_phase = ff_high;
  slot.tau_l = tau_l;
  slot.tau_h = tau_h;
  slot.max_norm_var = max_norm_var;
  slot.threshold = threshold;
  slot.norm_low_var = std::move(norm_vars);

  // Fantasy slots report the acquisition at the point they were proposed
  // at, on the clones that proposed them — the clones are discarded with
  // the batch, so it is computed here rather than during Observe. (Slot 0
  // computes it on the real models during Observe, as the sequential loop
  // always has.) Reported in linear space; the log form is only the
  // search's ranking.
  if (slot.on_fantasy && iterationWanted(options_.observer)) {
    const spans::ScopedSpan observe_span("observe");
    const auto p = highPredictions(models, slot.x);
    slot.acquisition =
        ff_high ? predictedViolation({p.begin() + 1, p.end()})
                : weightedEi(p[0], tau_h, {p.begin() + 1, p.end()});
  }
  return slot;
}

double MfboEngine::observedAcquisition(const ProposedSlot& slot) {
  if (slot.on_fantasy) return slot.acquisition;
  // Acquisition (or eq. 13 criterion) value at the evaluated point — one
  // fused MC pass per output. Reported in linear space.
  const auto p = highPredictions(models_, slot.x);
  return slot.first_feasible_phase
             ? predictedViolation({p.begin() + 1, p.end()})
             : weightedEi(p[0], slot.tau_h, {p.begin() + 1, p.end()});
}

Json MfboEngine::optionsJson() const {
  Json o = Json::object();
  o.set("n_init_low", options_.n_init_low);
  o.set("n_init_high", options_.n_init_high);
  o.set("budget", options_.budget);
  o.set("gamma", options_.gamma);
  o.set("retrain_every", options_.retrain_every);
  o.set("x_star_seeds", options_.x_star_seeds);
  o.set("use_first_feasible", options_.use_first_feasible);
  o.set("batch_size", options_.batch_size);
  o.set("msp", mspJson(options_.msp));
  Json n = Json::object();
  n.set("n_mc", options_.nargp.n_mc);
  n.set("n_mc_var", options_.nargp.n_mc_var);
  n.set("n_restarts_low", options_.nargp.low.n_restarts);
  n.set("n_restarts_high", options_.nargp.high.n_restarts);
  o.set("nargp", std::move(n));
  // A custom factory is opaque: both-or-neither is the identity check
  // available, and a replay that trains differently diverges at the next
  // proposal.
  o.set("custom_surrogate", static_cast<bool>(options_.surrogate_factory));
  return o;
}

WeiboEngine::WeiboEngine(Problem& problem, std::uint64_t seed,
                         WeiboOptions options)
    : Engine(problem, seed), options_(std::move(options)) {}

SynthesisResult WeiboEngine::run() {
  const spans::ScopedSpan run_span("weibo");
  return runToCompletion();
}

void WeiboEngine::buildModels() {
  models_.clear();
  models_.reserve(n_out_);
  for (std::size_t i = 0; i < n_out_; ++i) {
    gp::GpConfig cfg = options_.gp;
    cfg.seed = seed_ * 1000003u + i;
    models_.emplace_back(std::make_unique<gp::SeArdKernel>(d_), cfg);
  }
}

void WeiboEngine::fitAll() {
  const spans::ScopedSpan span("fit_high");
  models_[0].fit(high_.x, high_.objectives());
  for (std::size_t i = 0; i < nc_; ++i)
    models_[1 + i].fit(high_.x, high_.constraintColumn(i));
}

std::vector<gp::Prediction> WeiboEngine::constraintPredictions(
    const Vector& u) const {
  std::vector<gp::Prediction> cons(nc_);
  for (std::size_t i = 0; i < nc_; ++i) cons[i] = models_[1 + i].predict(u);
  return cons;
}

void WeiboEngine::handleInit() {
  if (!replaying())
    traceRunStart("weibo", *problem_, seed_, options_.max_sims);
  for (const Vector& u : linalg::latinHypercube(initTotal(), unit_, rng_))
    evaluateRaw(u, Fidelity::kHigh);
  buildModels();
  transition(EngineState::kFitSurrogate);
}

void WeiboEngine::handleFitSurrogate() {
  if (!models_fitted_) {
    fitAll();
    models_fitted_ = true;
  } else if (retrainPlanned()) {
    fitAll();
  } else {
    const spans::ScopedSpan span("fit_high");
    for (const ProposedSlot& slot : pending_) {
      const Evaluation& eval = high_.evals[slot.dataset_index];
      models_[0].addPoint(high_.x[slot.dataset_index], eval.objective, false);
      for (std::size_t i = 0; i < nc_; ++i)
        models_[1 + i].addPoint(high_.x[slot.dataset_index],
                                eval.constraints[i], false);
    }
  }
  finishFit();
}

void WeiboEngine::handlePropose() {
  ++iteration_;
  spans::addCounter("bo.weibo.iterations");

  const auto feasible_idx = high_.bestFeasible();
  const bool ff = nc_ > 0 && !feasible_idx && options_.use_first_feasible;

  ProposedSlot slot;
  slot.iteration = iteration_;
  slot.fidelity = Fidelity::kHigh;
  slot.first_feasible_phase = ff;

  std::optional<spans::ScopedSpan> phase_span;
  phase_span.emplace("acq_high");
  Vector candidate;
  double tau = IterationRecord::kNan;
  if (ff) {
    // No feasible point yet: minimize the eq. (13) predicted violation.
    opt::ScalarObjective criterion = [&](const Vector& u) {
      return predictedViolation(constraintPredictions(u));
    };
    candidate = minimizeCriterionMsp(criterion, unit_, options_.msp.n_starts,
                                     options_.msp.local, rng_);
  } else {
    tau = feasible_idx ? high_.evals[*feasible_idx].objective
                       : models_[0].bestObserved();
    // Log-space ranking (see the MFBO acquisition for the rationale).
    opt::ScalarObjective acq = [&](const Vector& u) {
      return logWeightedEi(models_[0].predict(u), tau,
                           constraintPredictions(u));
    };
    const std::optional<Vector> incumbent(
        high_.x[feasible_idx ? *feasible_idx : high_.bestByMerit()]);
    candidate = maximizeAcquisitionMsp(acq, unit_, std::nullopt, incumbent,
                                       options_.msp, rng_);
  }
  slot.tau_h = tau;
  candidate = dedupeCandidate(std::move(candidate), high_, unit_, rng_);
  phase_span.reset();

  // The sequential loop never reported dedupe nudges in its records;
  // slot.deduped stays false for artifact parity.
  slot.x = std::move(candidate);
  pending_.push_back(std::move(slot));
  transition(EngineState::kAwaitResults);
}

double WeiboEngine::observedAcquisition(const ProposedSlot& slot) {
  const auto cons = constraintPredictions(slot.x);
  return slot.first_feasible_phase
             ? predictedViolation(cons)
             : weightedEi(models_[0].predict(slot.x), slot.tau_h, cons);
}

Json WeiboEngine::optionsJson() const {
  Json o = Json::object();
  o.set("n_init", options_.n_init);
  o.set("max_sims", options_.max_sims);
  o.set("retrain_every", options_.retrain_every);
  o.set("use_first_feasible", options_.use_first_feasible);
  o.set("msp", mspJson(options_.msp));
  Json g = Json::object();
  g.set("n_restarts", options_.gp.n_restarts);
  o.set("gp", std::move(g));
  return o;
}

}  // namespace mfbo::bo
