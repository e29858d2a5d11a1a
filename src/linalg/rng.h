// mfbo::linalg — seeded random number generation.
//
// A single Rng object threads through every stochastic component (initial
// designs, MSP scatter, MC fidelity integration, DE mutation) so that whole
// synthesis runs are reproducible from one seed.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "linalg/vector.h"

namespace mfbo::linalg {

/// Seeded pseudo-random source used throughout the library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0xC0FFEEu) : seed_(seed), engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal draw.
  double normal() { return normal_(engine_); }

  /// Normal draw with the given mean and standard deviation (sd ≥ 0).
  double normal(double mean, double sd);

  /// Uniform integer in [0, n-1]; n must be ≥ 1.
  std::size_t index(std::size_t n);

  /// Vector of d independent U[lo,hi) draws.
  Vector uniformVector(std::size_t d, double lo = 0.0, double hi = 1.0);

  /// Vector of d independent standard normal draws.
  Vector normalVector(std::size_t d);

  /// k distinct indices drawn from {0..n-1}, none equal to @p exclude
  /// (pass n or larger to exclude nothing). Requires enough candidates.
  std::vector<std::size_t> distinctIndices(std::size_t k, std::size_t n,
                                           std::size_t exclude);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Fork a child generator with an independent stream (for per-run seeding).
  /// Advances this generator, so successive forks differ.
  Rng fork();

  /// Deterministic per-index child stream for parallel loops: the child
  /// depends only on (construction seed, stream), is independent of call
  /// order, and never advances this generator — so task i gets the same
  /// stream whether the loop runs serially or on N threads, and sibling
  /// streams are decorrelated (SplitMix64 of the seed/stream pair).
  Rng split(std::uint64_t stream) const;

  std::mt19937_64& engine() { return engine_; }

 private:
  std::uint64_t seed_;
  std::mt19937_64 engine_;
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace mfbo::linalg
