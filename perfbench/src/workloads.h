// The benchmark's workloads and the inputs it generates for them.
//
// The workload seed is the only source of variation: job j of a workload
// is a pure function of (workload, seed, j), so the same seed replays the
// same job stream however far a run gets. The library sees only what is
// generated here — a per-job engine seed and, for sessions, a batch size
// and a session id — plus the fixed per-workload options below.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "bo/mfbo.h"
#include "bo/problem.h"

namespace perfbench {

enum class Workload {
  kPaSynth,        ///< power-amplifier syntheses back to back (5-D)
  kCpSynth,        ///< charge-pump syntheses back to back (36-D, 27 corners)
  kFleetSessions,  ///< SessionManager fleet of cheap 2-D sessions
};

const char* workloadName(Workload w);
std::optional<Workload> parseWorkload(std::string_view name);

/// One generated job: an MFBO synthesis (pa/cp) or one session (fleet).
struct JobInput {
  std::uint64_t seed = 0;      ///< engine seed
  std::size_t batch_size = 1;  ///< q; mixed 1/2 on the fleet, 1 elsewhere
  std::string id;              ///< session id (fleet), "j<index>" otherwise
};

/// Job @p index of @p workload under workload seed @p seed.
JobInput jobInput(Workload workload, std::uint64_t seed, std::size_t index);

/// Sessions the fleet keeps in flight.
constexpr std::size_t kFleetInFlight = 16;

/// Fixed synthesis options of a workload for a job with batch size @p q.
mfbo::bo::MfboOptions workloadOptions(Workload workload, std::size_t q);

/// A fresh problem instance of the workload.
std::unique_ptr<mfbo::bo::Problem> makeProblem(Workload workload);

}  // namespace perfbench
