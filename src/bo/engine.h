// mfbo::bo — resumable synthesis engine: Algorithm 1's propose → simulate
// → observe loop as an explicit state machine with an append-only run log
// and q-point constant-liar batch proposals.
//
// States and transitions (every state change goes through
// Engine::transition — the single mutation site, pinned by lint rule
// E001):
//
//   Init → FitSurrogate → Propose → AwaitResults → Observe
//             ↑    │                                  │
//             │    └────────→ Done (budget spent)     │
//             └──────────────────────────────────────-┘
//
// Run log contract: the run is a pure function of the seed, the options and
// the evaluations the simulator returned, so those evaluations are its
// whole persistent state. logHeader() names the run (format, version,
// algo, seed, problem identity, options); logRecord() writes one line per
// persisted boundary holding the step count and the evaluations completed
// since the previous line, sealed with a 64-bit FNV-1a checksum. replay()
// on a freshly constructed engine checks the header byte for byte, then
// re-executes step() up to each line's step count while serving the
// logged evaluations in place of the simulator; every served evaluation
// must match the proposed fidelity and unit-cube input bit for bit, and
// every line must be used up exactly. Surrogates, MSP searches and the
// eq. (11)/(12) decisions are recomputed, never deserialized, so replay
// followed by run() yields a result and a suffix of iteration records
// byte-identical to the uninterrupted run at any thread count — the
// crash/resume harness in tests/test_checkpoint.cpp enforces this at every
// reachable boundary. Replay mutes only the observer callback; everything
// else, building the iteration records included, runs as it did.
//
// Batch proposals (MfboOptions::batch_size = q > 1) use the constant-liar
// fantasy: the fused surrogates are cloned once per batch, each proposed
// slot is fed back into the clones as a lie (CL-min for the objective —
// the incumbent best, so τ never moves — and the posterior mean for each
// constraint) via the O(n²) addPoint(retrain=false) path, and the next
// slot is proposed on the lied-to clones. The real models never see a lie,
// every slot still gets its own eq. (11)/(12) fidelity decision, and
// q = 1 never clones — reproducing the sequential loop bit-for-bit.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bo/common.h"
#include "bo/mfbo.h"
#include "bo/weibo.h"
#include "common/json.h"

namespace mfbo::bo {

enum class EngineState {
  kInit,          ///< evaluate the initial designs, construct surrogates
  kFitSurrogate,  ///< (re)train or incrementally update the surrogates
  kPropose,       ///< select the next batch of candidate points
  kAwaitResults,  ///< evaluate every pending candidate
  kObserve,       ///< publish per-iteration records for the batch
  kDone,          ///< budget exhausted; result available
};

/// Lowercase state name used in the flight-recorder journal
/// ("fit_surrogate", ...).
const char* engineStateName(EngineState s);

/// One slot of the current proposal batch, carrying everything the Observe
/// phase needs to publish the iteration record after the (possibly
/// asynchronous) evaluation lands.
struct ProposedSlot {
  std::size_t iteration = 0;  ///< 1-based loop iteration this slot is
  Vector x;                   ///< proposed point (unit cube, post-dedupe)
  Vector x_star_l;            ///< MFBO step-5 maximizer (empty for WEIBO)
  Vector x_t_raw;             ///< pre-dedupe maximizer (empty for WEIBO)
  Fidelity fidelity = Fidelity::kHigh;
  bool downgraded = false;   ///< high→low forced by the remaining budget
  bool deduped = false;      ///< nudged away from an archived duplicate
  bool first_feasible_phase = false;  ///< eq. (13) replaced wEI
  bool on_fantasy = false;   ///< proposed on constant-liar clones (slot > 0)
  double tau_l = IterationRecord::kNan;
  double tau_h = IterationRecord::kNan;
  /// For fantasy slots: acquisition at x on the clones that proposed it
  /// (computed at propose time — the clones are discarded with the batch).
  /// Slot 0 computes it on the real models during Observe, as the
  /// sequential loop always has.
  double acquisition = IterationRecord::kNan;
  double max_norm_var = IterationRecord::kNan;  ///< eq. (11) LHS
  double threshold = IterationRecord::kNan;     ///< eq. (12) RHS
  std::vector<double> norm_low_var;  ///< per-output normalized low variance
  std::size_t history_index = 0;  ///< row in the run history once evaluated
  std::size_t dataset_index = 0;  ///< row in its fidelity's archive
};

/// Deterministic JSON projection of a SynthesisResult, full history
/// included: byte-equality of two dumps is equality of everything a run
/// produced. The crash/resume harness and micro_batch compare these.
Json synthesisResultToJson(const SynthesisResult& result);

/// Base synthesis state machine. Owns the archives, cost meter, RNG and
/// pending batch; subclasses provide the algorithm-specific Init /
/// FitSurrogate / Propose handlers and the options section of the run-log
/// header.
class Engine {
 public:
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  EngineState state() const { return state_; }
  bool done() const { return state_ == EngineState::kDone; }

  /// Stable algorithm tag ("mfbo", "weibo"): names the run span, the
  /// iteration records, and the session-layer artifacts (src/service).
  const char* algo() const { return algoName(); }

  /// Health-layer progress accessors (src/service/health.h): evaluation
  /// cost charged so far, the algorithm's total budget (cost units for
  /// MFBO, simulations for WEIBO), and completed iterations.
  double costSpent() const { return tracker_.cost(); }
  double costBudget() const { return budget(); }
  std::size_t iterationCount() const { return iteration_; }
  /// step() calls completed so far: the run log's position.
  std::size_t steps() const { return steps_; }
  /// Evaluations recorded so far (rows of the run history).
  std::size_t evaluations() const {
    return tracker_.numLow() + tracker_.numHigh();
  }

  /// Execute the current state's handler and advance. Not callable once
  /// Done, nor after a rejected replay().
  void step();

  /// Drive the machine to completion under the algorithm's run span and
  /// return the result. Works from a fresh engine and from a replayed log.
  virtual SynthesisResult run() = 0;

  /// The run log's first line, newline included: format, version, algo,
  /// seed (a decimal string), problem identity and this engine's options.
  std::string logHeader() const;

  /// One run-log line, newline included: steps() and the evaluations
  /// recorded since history row @p first_evaluation (fidelity, unit-cube
  /// input, objective, constraints), followed by the FNV-1a checksum of
  /// those bytes. Callable between any two step() calls; not once Done.
  std::string logRecord(std::size_t first_evaluation) const;

  /// Replay a run log (logHeader() followed by logRecord() lines) into
  /// this freshly constructed engine: check the header byte for byte, then
  /// step to each line's step count, serving the logged evaluations in
  /// place of the simulator. An unterminated final line — an append cut
  /// short by a kill — is ignored. Returns the length of the replayed
  /// prefix (0 when the log holds no complete line, leaving the engine
  /// fresh). Any mismatch — header, checksum, field ranges, an evaluation
  /// that differs from the replayed proposal, an unconsumed evaluation, a
  /// step count going backwards or past the end of the run — is a
  /// ContractViolation (a forged line with invalid JSON is a parse error),
  /// after which the engine refuses to step.
  std::size_t replay(std::string_view log);

  /// Move the result out; engine must be Done.
  SynthesisResult takeResult();

 protected:
  Engine(Problem& problem, std::uint64_t seed);

  /// The single state-mutation site (lint rule E001). Checks the edge
  /// against the transition diagram above.
  void transition(EngineState next);

  /// Shared driver behind every run() override: step to completion,
  /// return the result.
  SynthesisResult runToCompletion();

  // Algorithm hooks.
  virtual const char* algoName() const = 0;
  virtual double budget() const = 0;
  /// Cost of the cheapest evaluation still worth proposing.
  virtual double minStepCost() const = 0;
  virtual std::size_t retrainEvery() const = 0;
  virtual const IterationObserver& observerRef() const = 0;
  virtual void handleInit() = 0;
  virtual void handleFitSurrogate() = 0;
  virtual void handlePropose() = 0;
  /// Acquisition (or eq. 13 criterion) value reported for @p slot's
  /// iteration record, on the models that proposed it.
  virtual double observedAcquisition(const ProposedSlot& slot) = 0;
  /// Options section of the run-log header: every setting the run depends
  /// on, so a log replays only into an identically configured engine.
  virtual Json optionsJson() const = 0;

  /// True while replay() re-executes logged steps: the observer callback
  /// stays silent, so a resumed run's records are the suffix of the
  /// uninterrupted run's.
  bool replaying() const { return replay_ != nullptr; }

  // Shared handlers.
  void handleAwaitResults();
  void handleObserve();

  /// One evaluation of a batch: a unit-cube input and its fidelity.
  struct BatchInput {
    const Vector* u;
    Fidelity f;
  };
  /// The engine's one evaluation path, taken by Init and AwaitResults.
  /// Simulates @p batch as one pool region, each simulation a task writing
  /// its own slot (or, while replaying, serves it from the run log in slot
  /// order), then records every evaluation serially in slot order — the
  /// order the sequential loop produced, so results are byte-identical at
  /// any thread count. Records nothing when an evaluation throws. Returns
  /// the history row of batch[0]; batch[i] lands in row + i.
  std::size_t evaluateBatch(const std::vector<BatchInput>& batch);

  /// Tail of every FitSurrogate handler: retire the completed batch and
  /// advance on the remaining budget.
  void finishFit();

  /// True when the batch containing the given iterations retrains
  /// hyperparameters (any slot hits the retrain_every schedule).
  bool retrainPlanned() const;

  /// Output column @p out of a dataset (0 = objective).
  static std::vector<double> columnOf(const Dataset& ds, std::size_t out);

  Problem* problem_;
  std::uint64_t seed_;
  std::size_t d_;
  std::size_t nc_;
  std::size_t n_out_;
  Box real_box_;
  Box unit_;
  double ratio_;
  Rng rng_;
  CostTracker tracker_;
  std::vector<HistoryEntry> history_;
  Dataset low_;   ///< low-fidelity archive (unused by WEIBO)
  Dataset high_;  ///< high-fidelity archive (WEIBO's only archive)
  std::size_t iteration_ = 0;
  std::vector<ProposedSlot> pending_;   ///< current batch
  bool models_fitted_ = false;
  SynthesisResult result_;

 private:
  struct ReplayFeed;

  void finish();
  /// The next logged evaluation, which must match (@p u, @p f) bit for bit.
  Evaluation serveLogged(const Vector& u, Fidelity f);

  EngineState state_ = EngineState::kInit;
  std::size_t steps_ = 0;
  ReplayFeed* replay_ = nullptr;  ///< set while replay() runs
  bool rejected_ = false;         ///< a replay() failed part-way
};

/// The paper's multi-fidelity synthesizer as an Engine; adds q-point
/// constant-liar batching on top of the sequential Algorithm 1.
class MfboEngine final : public Engine {
 public:
  MfboEngine(Problem& problem, std::uint64_t seed, MfboOptions options);

  SynthesisResult run() override;

 protected:
  const char* algoName() const override { return "mfbo"; }
  double budget() const override { return options_.budget; }
  double minStepCost() const override { return 1.0 / ratio_; }
  std::size_t retrainEvery() const override { return options_.retrain_every; }
  const IterationObserver& observerRef() const override {
    return options_.observer;
  }
  void handleInit() override;
  void handleFitSurrogate() override;
  void handlePropose() override;
  double observedAcquisition(const ProposedSlot& slot) override;
  Json optionsJson() const override;

 private:
  using Models = std::vector<std::unique_ptr<mf::MfSurrogate>>;

  void buildModels();
  void fitAll();
  /// Models the next slot is proposed on: the constant-liar clones while a
  /// batch is being fantasized, the real models otherwise.
  const Models& activeModels() const {
    return fantasy_.empty() ? models_ : fantasy_;
  }
  std::vector<gp::Prediction> lowPredictions(const Models& models,
                                             const Vector& u) const;
  std::vector<gp::Prediction> highPredictions(const Models& models,
                                              const Vector& u) const;
  /// Clone the fitted surrogates into the fantasy set (once per batch).
  void makeFantasies();
  /// Feed @p slot into the fantasy models as a constant-liar observation.
  void applyLiar(const ProposedSlot& slot);
  /// Steps 5-7 of Algorithm 1 for one batch slot, on activeModels().
  ProposedSlot proposeSlot(std::size_t slot_index, double projected_cost,
                           const Dataset& pending_points);

  MfboOptions options_;
  Models models_;
  Models fantasy_;
};

/// The WEIBO baseline on the same skeleton (sequential, batch size 1).
class WeiboEngine final : public Engine {
 public:
  WeiboEngine(Problem& problem, std::uint64_t seed, WeiboOptions options);

  SynthesisResult run() override;

 protected:
  const char* algoName() const override { return "weibo"; }
  double budget() const override { return options_.max_sims; }
  double minStepCost() const override { return 1.0; }
  std::size_t retrainEvery() const override { return options_.retrain_every; }
  const IterationObserver& observerRef() const override {
    return options_.observer;
  }
  void handleInit() override;
  void handleFitSurrogate() override;
  void handlePropose() override;
  double observedAcquisition(const ProposedSlot& slot) override;
  Json optionsJson() const override;

 private:
  void buildModels();
  void fitAll();
  std::vector<gp::Prediction> constraintPredictions(const Vector& u) const;

  WeiboOptions options_;
  std::vector<gp::GpRegressor> models_;
};

}  // namespace mfbo::bo
