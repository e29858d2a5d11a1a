// mfbo::bo — synthesis run records.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "bo/problem.h"

namespace mfbo::bo {

/// One evaluated point in the order it was queried.
struct HistoryEntry {
  Vector x;
  Evaluation eval;
  Fidelity fidelity = Fidelity::kHigh;
  /// Cumulative cost in equivalent high-fidelity simulations *after* this
  /// evaluation (low-fidelity evaluations add 1/costRatio).
  double cumulative_cost = 0.0;
};

/// Outcome of one synthesis run.
struct SynthesisResult {
  Vector best_x;               ///< best feasible point (or least-violating)
  Evaluation best_eval;        ///< its evaluation (high fidelity)
  bool feasible_found = false;
  std::size_t n_low = 0;       ///< low-fidelity evaluations consumed
  std::size_t n_high = 0;      ///< high-fidelity evaluations consumed
  double equivalent_high_sims = 0.0;  ///< n_high + n_low / costRatio
  std::vector<HistoryEntry> history;
};

/// Index of the best entry under Evaluation::betterThan among the
/// high-fidelity entries of the first @p count history entries (all of
/// them by default; a count past the end is clamped), the earliest on
/// ties. Returns nullopt when there are no such entries.
std::optional<std::size_t> bestHighIndex(
    const std::vector<HistoryEntry>& history,
    std::size_t count = static_cast<std::size_t>(-1));

}  // namespace mfbo::bo
