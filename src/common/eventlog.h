// mfbo — flight recorder: one ring journal of structured service events
// per session, with a crash-time black-box dump. It answers the
// operator's first post-mortem question: *what was the fleet doing right
// before it died?*
//
//   * Structured events, not log lines: an EventKind (session lifecycle,
//     engine transitions, fidelity decisions, checkpoint persist/restore,
//     contract violations) plus two static-string details (pointers must
//     outlive the process, like span names) and two integers.
//   * One journal per session. A Journal is a ring of kJournalCapacity
//     events numbered by its own seq. JournalScope installs it on the
//     calling thread; record() writes to the calling thread's installed
//     journal and does nothing when none is installed. Whichever thread
//     steps a session, the driver or a pool worker, writes that session's
//     ring and no other, so a journal's bytes depend on its session alone.
//     A full ring overwrites its oldest event and counts it as dropped.
//   * Fixed storage: a static table of kMaxJournals slots, never freed. A
//     journal claims the lowest free slot at claim() or its first record
//     after enable() and releases it when destroyed; a released slot keeps
//     its window until another journal reuses it. Recording never
//     allocates, and the dump never reads freed memory.
//   * Deterministic by default: no timestamps, and the dump is
//     byte-identical at 1 and N threads. wall_clock=true stamps every event
//     (steady-clock ns since enable()), outside the determinism contract,
//     under the same audited D002 clock exemption as common/timeline.cpp.
//   * Disabled cost: one inline relaxed atomic load and a branch.
//   * Black-box dump: every window, in slot order, to
//     `<dump_dir>/flightrec.<pid>.jsonl` (a header line, then one
//     session-labelled line per event), written with async-signal-safe
//     primitives only — open/write/close, no allocation, locks or stdio —
//     because the same path runs from the optional SIGSEGV/SIGABRT handler
//     and from the ContractViolation hook in common/check.cpp.
//     SessionManager also dumps at every persist.
//
// Contract: enable()/disable() only from the serial harness; a journal is
// installed on one thread at a time; detail strings have static storage
// duration; long labels are truncated. Slots go in first-claim order, so
// dump bytes are thread-count-invariant when journals claim from serial
// code (SessionManager::create and stepRound; see Journal::claim()).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/json.h"

namespace mfbo {
namespace eventlog {

/// What happened. kindName() gives the stable serialization tag.
enum class EventKind : unsigned char {
  kSessionCreate,      ///< Session constructed (a = algo)
  kSessionStep,        ///< Session::step entered (v0 = steps so far)
  kSessionDone,        ///< session completed (v0 = total steps)
  kSessionDestroy,     ///< SessionManager::destroy
  kEngineTransition,   ///< Engine::transition (a = from, b = to)
  kFidelityDecision,   ///< eq. (11)/(12) choice (a = fidelity,
                       ///< b = "downgraded" when budget-forced,
                       ///< v0 = iteration, v1 = batch slot)
  kCheckpointPersist,  ///< SessionManager persisted a boundary
                       ///< (a = "checkpoint"|"result", v0 = steps)
  kCheckpointRestore,  ///< Session::restore / adoptResult
                       ///< (a = "checkpoint"|"result", v0 = steps)
  kContractViolation,  ///< MFBO_CHECK failed (a = file, v0 = line)
  kCustom,             ///< tests and embedders
};

/// Stable lowercase tag ("session_step", "engine_transition", ...).
const char* kindName(EventKind kind);

/// Events per journal window.
constexpr std::size_t kJournalCapacity = 256;

/// Journals whose windows the dump can hold at once.
constexpr std::size_t kMaxJournals = 128;

/// Longest journal label stored, terminator included; longer labels are
/// truncated (no allocation).
constexpr std::size_t kSessionIdCap = 24;

struct Options {
  /// Stamp events with steady-clock ns: the wall-clock dump mode, outside
  /// the byte-determinism boundary. Off = deterministic mode (no
  /// timestamps, byte-identical at 1 vs N threads).
  bool wall_clock = false;
  /// Directory for flightrec.<pid>.jsonl. Empty disables automatic dumps
  /// (explicit dumpFlightRecorder(path) still works).
  std::string dump_dir;
  /// Install a SIGSEGV/SIGABRT handler that writes the dump (async-
  /// signal-safely) before re-raising with the default disposition.
  /// Requires a non-empty dump_dir.
  bool install_signal_handler = false;
};

/// Turn the recorder on. Resets the stats, and earlier windows leave the
/// dump: every journal claims a fresh slot on its next record.
/// Enabling while already enabled is a ContractViolation.
void enable(const Options& options = {});

/// Turn the recorder off (journal contents stay readable until the next
/// enable()). The signal handler, if installed, becomes a pass-through.
void disable();

namespace detail {
/// Shared on/off flag; record() inlines the load.
extern std::atomic<bool> g_enabled;
void recordSlow(EventKind kind, const char* a, const char* b,
                std::int64_t v0, std::int64_t v1);
/// Hook for common/check.cpp: journal the violation and, when a dump
/// directory is configured, write the black box before the throw
/// unwinds. Never throws; reentrancy-guarded.
void noteContractViolation(const char* file, long line);
}  // namespace detail

/// A session's journal: its label (the session id, truncated to
/// kSessionIdCap-1 bytes) and, while the recorder is on, its slot in the
/// table. Destroying it releases the slot; the window stays in the dump
/// until another journal claims the slot.
class Journal {
 public:
  explicit Journal(std::string_view label);
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  ~Journal();

  /// Claim this journal's slot now rather than at its first record; a
  /// no-op while the recorder is off or once claimed this cycle. Slots go
  /// in claim order, so journals claimed serially before they record
  /// concurrently keep the dump order independent of the thread count.
  void claim();

 private:
  friend void detail::recordSlow(EventKind, const char*, const char*,
                                 std::int64_t, std::int64_t);
  /// This journal's slot in the current enable() cycle, claiming the
  /// lowest free one on first use; kMaxJournals when the table is full.
  std::size_t claimSlot();

  char label_[kSessionIdCap] = {};
  std::size_t slot_ = kMaxJournals;  ///< kMaxJournals = none
  std::uint64_t generation_ = 0;     ///< enable() cycle that claimed slot_
};

/// RAII install: while alive, record() on this thread writes to
/// @p journal. Scopes nest and restore; the service layer installs one
/// around every session entry so engine events land in the session's own
/// journal.
class JournalScope {
 public:
  explicit JournalScope(Journal& journal);
  JournalScope(const JournalScope&) = delete;
  JournalScope& operator=(const JournalScope&) = delete;
  ~JournalScope();

 private:
  Journal* saved_;
};

/// True while the recorder is on.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Append one event to the calling thread's installed journal. One
/// relaxed load + branch when disabled; never allocates. @p a and @p b
/// must be static strings (or null).
inline void record(EventKind kind, const char* a = nullptr,
                   const char* b = nullptr, std::int64_t v0 = 0,
                   std::int64_t v1 = 0) {
  if (!detail::g_enabled.load(std::memory_order_relaxed)) return;
  detail::recordSlow(kind, a, b, v0, v1);
}

struct Stats {
  std::uint64_t recorded = 0;  ///< events written to a journal
  std::uint64_t dropped = 0;   ///< events no longer in any window
};

/// Current counters. Deterministic for a fixed seed at any thread count
/// in deterministic mode. Events lost to ring wrap, to a reused slot, or
/// to a full table count as dropped.
Stats stats();

/// Every window, in slot order:
/// {"format":"mfbo-flightrec","version":2,"deterministic":...,
///  "ring_capacity":...,"recorded":...,"dropped":...,
///  "events":[{"seq":...,"kind":...,"session":...,...}]}.
/// In deterministic mode the dump() bytes are identical at 1 vs N
/// threads. Callable while disabled (serializes the last journals).
Json journalJson();

/// Write every window to `<dump_dir>/flightrec.<pid>.jsonl`. Returns
/// false (never throws) when no dump directory is configured or the write
/// fails. The non-signal path additionally runs under the
/// "flightrec_dump" span.
bool dumpFlightRecorder();

/// Same, to an explicit path. Explicit dumps take turns, so dumps raised
/// from several threads at once (contract violations inside concurrent
/// session steps) each leave a whole snapshot; the crash handler's dump
/// takes no lock.
bool dumpFlightRecorder(const char* path);

/// The path automatic dumps go to ("" when no dump_dir is configured).
std::string dumpPath();

}  // namespace eventlog
}  // namespace mfbo
