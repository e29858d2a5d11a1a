#include "common/eventlog.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <mutex>
#include <unistd.h>

#include "common/check.h"
#include "common/memstats.h"
#include "common/spans.h"

namespace mfbo {
namespace eventlog {

namespace {

/// One journal event, written whole by record(). Plain data: safe to read
/// from a signal handler. Its seq is its position in the journal.
struct Event {
  std::int64_t ts_ns = 0;  ///< steady ns since enable(); -1 = unstamped
  std::int64_t v0 = 0;
  std::int64_t v1 = 0;
  const char* a = nullptr;  ///< static detail string (or null)
  const char* b = nullptr;  ///< static detail string (or null)
  EventKind kind = EventKind::kSessionCreate;
};

/// One journal's window. The table is static and never freed, so the dump
/// — the signal handler included — reads it without locks and never
/// chases a dangling pointer.
struct Slot {
  /// enable() cycle that last claimed this slot. Stored with release
  /// after the label and head are reset.
  std::atomic<std::uint64_t> generation{0};
  std::atomic<std::uint64_t> head{0};  ///< events ever written = next seq
  bool held = false;  ///< owned by a live journal; guarded by g_claim_mu
  char label[kSessionIdCap] = {};
  Event events[kJournalCapacity];
};

/// constinit: all-zero and initialized at compile time, so the table sits
/// in .bss and no page of it is touched until a journal records.
constinit Slot g_slots[kMaxJournals];
std::mutex g_claim_mu;  ///< serializes claims and releases; readers don't lock

std::atomic<std::uint64_t> g_generation{0};  ///< bumped by every enable()
/// Events that left the table whole: the windows of reused slots, and
/// records made while every slot was held.
std::atomic<std::uint64_t> g_evicted{0};
std::atomic<bool> g_wall{false};
std::chrono::steady_clock::time_point g_start{};

/// Pre-formatted at enable() so the signal handler never formats a path.
char g_dump_path[512] = {0};
bool g_handlers_installed = false;
struct sigaction g_old_segv;
struct sigaction g_old_abrt;

thread_local Journal* t_journal = nullptr;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_start)
      .count();
}

/// Async-signal-safe buffered writer: open/write/close only — no stdio,
/// no locks, no allocation. Everything the dump serializes (static detail
/// strings, fixed labels, integers) formats through here.
struct FdWriter {
  int fd = -1;
  char buf[4096];
  std::size_t len = 0;
  bool ok = true;

  void flush() {
    std::size_t done = 0;
    while (ok && done < len) {
      const ssize_t wrote = ::write(fd, buf + done, len - done);
      if (wrote < 0) {
        ok = false;
        break;
      }
      done += static_cast<std::size_t>(wrote);
    }
    len = 0;
  }
  void putChar(char c) {
    if (len == sizeof(buf)) flush();
    buf[len++] = c;
  }
  void putStr(const char* s) {
    for (; *s != '\0'; ++s) putChar(*s);
  }
  void putUInt(std::uint64_t v) {
    char digits[20];
    std::size_t n = 0;
    do {
      digits[n++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (n > 0) putChar(digits[--n]);
  }
  void putInt(std::int64_t v) {
    if (v < 0) {
      putChar('-');
      // Negate via unsigned arithmetic: -INT64_MIN overflows.
      putUInt(~static_cast<std::uint64_t>(v) + 1);
    } else {
      putUInt(static_cast<std::uint64_t>(v));
    }
  }
  /// JSON string: quotes, backslash-escapes, \u00XX for control bytes.
  void putQuoted(const char* s) {
    putChar('"');
    for (; *s != '\0'; ++s) {
      const unsigned char c = static_cast<unsigned char>(*s);
      if (c == '"' || c == '\\') {
        putChar('\\');
        putChar(static_cast<char>(c));
      } else if (c < 0x20) {
        putStr("\\u00");
        const char* hex = "0123456789abcdef";
        putChar(hex[c >> 4]);
        putChar(hex[c & 0xf]);
      } else {
        putChar(static_cast<char>(c));
      }
    }
    putChar('"');
  }
};

/// Every slot's head, read once, so a dump's header and lines agree even
/// while journals keep recording. Exact when recording is quiesced;
/// best-effort otherwise — an event being written while the window is
/// read may serialize torn, never crash. Fixed-size: the signal handler
/// builds this on its stack.
struct Snapshot {
  std::uint64_t head[kMaxJournals] = {};  ///< 0 for earlier cycles' slots
  std::uint64_t recorded = 0;
  std::uint64_t dropped = 0;
  std::uint64_t events = 0;

  Snapshot() {
    const std::uint64_t generation =
        g_generation.load(std::memory_order_acquire);
    recorded = dropped = g_evicted.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < kMaxJournals; ++i) {
      const Slot& slot = g_slots[i];
      head[i] = slot.generation.load(std::memory_order_acquire) == generation
                    ? slot.head.load(std::memory_order_acquire)
                    : 0;
      recorded += head[i];
      dropped += first(i);
      events += head[i] - first(i);
    }
  }
  /// Seq of the oldest event still in slot @p i's window.
  std::uint64_t first(std::size_t i) const {
    return head[i] > kJournalCapacity ? head[i] - kJournalCapacity : 0;
  }
};

void writeEventLine(FdWriter& w, std::uint64_t seq, const char* label,
                    const Event& e) {
  w.putStr("{\"seq\":");
  w.putUInt(seq);
  w.putStr(",\"kind\":");
  w.putQuoted(kindName(e.kind));
  w.putStr(",\"session\":");
  w.putQuoted(label);
  if (e.a != nullptr) {
    w.putStr(",\"a\":");
    w.putQuoted(e.a);
  }
  if (e.b != nullptr) {
    w.putStr(",\"b\":");
    w.putQuoted(e.b);
  }
  w.putStr(",\"v0\":");
  w.putInt(e.v0);
  w.putStr(",\"v1\":");
  w.putInt(e.v1);
  if (e.ts_ns >= 0) {
    w.putStr(",\"ts_ns\":");
    w.putInt(e.ts_ns);
  }
  w.putStr("}\n");
}

/// The shared dump body: header line + every window in slot order.
/// Everything on this path is async-signal-safe.
bool dumpToFd(int fd) {
  FdWriter w;
  w.fd = fd;
  const Snapshot snap;
  w.putStr("{\"format\":\"mfbo-flightrec\",\"version\":2,\"pid\":");
  w.putInt(static_cast<std::int64_t>(::getpid()));
  w.putStr(",\"deterministic\":");
  w.putStr(g_wall.load(std::memory_order_relaxed) ? "false" : "true");
  w.putStr(",\"ring_capacity\":");
  w.putUInt(kJournalCapacity);
  w.putStr(",\"recorded\":");
  w.putUInt(snap.recorded);
  w.putStr(",\"dropped\":");
  w.putUInt(snap.dropped);
  w.putStr(",\"events\":");
  w.putUInt(snap.events);
  w.putStr("}\n");
  for (std::size_t i = 0; i < kMaxJournals; ++i)
    for (std::uint64_t seq = snap.first(i); seq < snap.head[i]; ++seq)
      writeEventLine(w, seq, g_slots[i].label,
                     g_slots[i].events[seq % kJournalCapacity]);
  w.flush();
  return w.ok;
}

bool dumpToPath(const char* path) {
  if (path == nullptr || path[0] == '\0') return false;
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool ok = dumpToFd(fd);
  return (::close(fd) == 0) && ok;
}

extern "C" void crashHandler(int sig) {
  if (detail::g_enabled.load(std::memory_order_relaxed) &&
      g_dump_path[0] != '\0') {
    dumpToPath(g_dump_path);
  }
  // Restore the previous disposition and re-deliver: the process dies of
  // the original signal (exit status intact) once the handler returns.
  struct sigaction* old = sig == SIGSEGV ? &g_old_segv : &g_old_abrt;
  ::sigaction(sig, old, nullptr);
  ::raise(sig);
}

void installHandlers() {
  if (g_handlers_installed) return;
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = crashHandler;
  sigemptyset(&action.sa_mask);
  ::sigaction(SIGSEGV, &action, &g_old_segv);
  ::sigaction(SIGABRT, &action, &g_old_abrt);
  g_handlers_installed = true;
}

void uninstallHandlers() {
  if (!g_handlers_installed) return;
  ::sigaction(SIGSEGV, &g_old_segv, nullptr);
  ::sigaction(SIGABRT, &g_old_abrt, nullptr);
  g_handlers_installed = false;
}

}  // namespace

const char* kindName(EventKind kind) {
  switch (kind) {
    case EventKind::kSessionCreate:
      return "session_create";
    case EventKind::kSessionStep:
      return "session_step";
    case EventKind::kSessionDone:
      return "session_done";
    case EventKind::kSessionDestroy:
      return "session_destroy";
    case EventKind::kEngineTransition:
      return "engine_transition";
    case EventKind::kFidelityDecision:
      return "fidelity_decision";
    case EventKind::kCheckpointPersist:
      return "checkpoint_persist";
    case EventKind::kCheckpointRestore:
      return "checkpoint_restore";
    case EventKind::kContractViolation:
      return "contract_violation";
    case EventKind::kCustom:
      return "custom";
  }
  return "unknown";
}

void enable(const Options& options) {
  MFBO_CHECK(!enabled(), "eventlog::enable() while already enabled");
  MFBO_CHECK(!options.install_signal_handler || !options.dump_dir.empty(),
             "install_signal_handler requires a dump_dir");
  g_wall.store(options.wall_clock, std::memory_order_relaxed);
  g_evicted.store(0, std::memory_order_relaxed);
  g_start = std::chrono::steady_clock::now();
  if (options.dump_dir.empty()) {
    g_dump_path[0] = '\0';
  } else {
    const int n = std::snprintf(g_dump_path, sizeof(g_dump_path),
                                "%s/flightrec.%ld.jsonl",
                                options.dump_dir.c_str(),
                                static_cast<long>(::getpid()));
    MFBO_CHECK(n > 0 && static_cast<std::size_t>(n) < sizeof(g_dump_path),
               "eventlog dump_dir path too long");
  }
  // New cycle: every journal claims a fresh slot on its next record, and
  // the windows of earlier cycles drop out of the dump.
  g_generation.fetch_add(1, std::memory_order_release);
  if (options.install_signal_handler) installHandlers();
  detail::g_enabled.store(true, std::memory_order_release);
}

void disable() {
  detail::g_enabled.store(false, std::memory_order_release);
  uninstallHandlers();
}

Journal::Journal(std::string_view label) {
  label_[label.copy(label_, kSessionIdCap - 1)] = '\0';
}

Journal::~Journal() {
  if (slot_ == kMaxJournals) return;
  const std::lock_guard<std::mutex> lock(g_claim_mu);
  // Under a later enable() cycle the slot may belong to another journal.
  Slot& slot = g_slots[slot_];
  if (slot.generation.load(std::memory_order_relaxed) == generation_)
    slot.held = false;
}

std::size_t Journal::claimSlot() {
  const std::uint64_t generation =
      g_generation.load(std::memory_order_acquire);
  if (generation_ == generation) return slot_;
  const std::lock_guard<std::mutex> lock(g_claim_mu);
  generation_ = generation;
  for (slot_ = 0; slot_ < kMaxJournals; ++slot_) {
    Slot& slot = g_slots[slot_];
    const bool this_cycle =
        slot.generation.load(std::memory_order_relaxed) == generation;
    if (this_cycle && slot.held) continue;
    // Reusing a released slot of this cycle evicts its window.
    if (this_cycle)
      g_evicted.fetch_add(slot.head.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    slot.held = true;
    std::memcpy(slot.label, label_, kSessionIdCap);
    slot.head.store(0, std::memory_order_relaxed);
    slot.generation.store(generation, std::memory_order_release);
    break;
  }
  return slot_;
}

JournalScope::JournalScope(Journal& journal) : saved_(t_journal) {
  t_journal = &journal;
}

JournalScope::~JournalScope() { t_journal = saved_; }

namespace detail {

std::atomic<bool> g_enabled{false};

void recordSlow(EventKind kind, const char* a, const char* b,
                std::int64_t v0, std::int64_t v1) {
  Journal* journal = t_journal;
  if (journal == nullptr) return;
  const std::size_t index = journal->claimSlot();
  if (index == kMaxJournals) {
    g_evicted.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Slot& slot = g_slots[index];
  const std::uint64_t head = slot.head.load(std::memory_order_relaxed);
  Event& event = slot.events[head % kJournalCapacity];
  event.ts_ns = g_wall.load(std::memory_order_relaxed) ? nowNs() : -1;
  event.v0 = v0;
  event.v1 = v1;
  event.a = a;
  event.b = b;
  event.kind = kind;
  slot.head.store(head + 1, std::memory_order_release);
}

void noteContractViolation(const char* file, long line) {
  if (!enabled()) return;
  // A violation raised by the dump machinery itself must not recurse.
  thread_local bool in_note = false;
  if (in_note) return;
  in_note = true;
  record(EventKind::kContractViolation, file, nullptr,
         static_cast<std::int64_t>(line), 0);
  if (g_dump_path[0] != '\0') dumpFlightRecorder();
  in_note = false;
}

}  // namespace detail

Stats stats() {
  const Snapshot snap;
  return {snap.recorded, snap.dropped};
}

Json journalJson() {
  // Serialization is reporting, not workload: its allocations stay out of
  // the per-span accounting, like every other snapshot path.
  const memstats::PauseScope alloc_pause;
  const Snapshot snap;
  Json doc = Json::object();
  doc.set("format", "mfbo-flightrec");
  doc.set("version", 2);
  doc.set("deterministic", !g_wall.load(std::memory_order_relaxed));
  doc.set("ring_capacity", kJournalCapacity);
  doc.set("recorded", snap.recorded);
  doc.set("dropped", snap.dropped);
  Json events = Json::array();
  for (std::size_t i = 0; i < kMaxJournals; ++i) {
    for (std::uint64_t seq = snap.first(i); seq < snap.head[i]; ++seq) {
      const Event& e = g_slots[i].events[seq % kJournalCapacity];
      Json row = Json::object();
      row.set("seq", seq);
      row.set("kind", kindName(e.kind));
      row.set("session", g_slots[i].label);
      if (e.a != nullptr) row.set("a", e.a);
      if (e.b != nullptr) row.set("b", e.b);
      row.set("v0", static_cast<double>(e.v0));
      row.set("v1", static_cast<double>(e.v1));
      if (e.ts_ns >= 0) row.set("ts_ns", static_cast<double>(e.ts_ns));
      events.push(std::move(row));
    }
  }
  doc.set("events", std::move(events));
  return doc;
}

bool dumpFlightRecorder() {
  if (g_dump_path[0] == '\0') return false;
  return dumpFlightRecorder(g_dump_path);
}

bool dumpFlightRecorder(const char* path) {
  // The explicit (non-signal) dump is an ordinary slow path: span-covered
  // like every other hot-path boundary, then the signal-safe writer.
  const spans::ScopedSpan dump_span("flightrec_dump");
  return dumpToPath(path);
}

std::string dumpPath() { return g_dump_path; }

}  // namespace eventlog
}  // namespace mfbo
