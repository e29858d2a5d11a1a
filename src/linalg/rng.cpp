#include "linalg/rng.h"

#include "common/check.h"

namespace mfbo::linalg {

double Rng::uniform(double lo, double hi) {
  MFBO_CHECK(hi > lo, "empty uniform range [", lo, ", ", hi, ")");
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double sd) {
  MFBO_CHECK(sd >= 0.0, "negative standard deviation ", sd);
  return mean + sd * normal_(engine_);
}

std::size_t Rng::index(std::size_t n) {
  MFBO_CHECK(n >= 1, "empty index range");
  std::uniform_int_distribution<std::size_t> dist(0, n - 1);
  return dist(engine_);
}

Vector Rng::uniformVector(std::size_t d, double lo, double hi) {
  MFBO_CHECK(hi > lo, "empty uniform range [", lo, ", ", hi, ")");
  Vector v(d);
  for (std::size_t i = 0; i < d; ++i) v[i] = uniform(lo, hi);
  return v;
}

// mfbo-lint: allow(C001) — any d is a valid draw count, nothing to check
Vector Rng::normalVector(std::size_t d) {
  Vector v(d);
  for (std::size_t i = 0; i < d; ++i) v[i] = normal();
  return v;
}

std::vector<std::size_t> Rng::distinctIndices(std::size_t k, std::size_t n,
                                              std::size_t exclude) {
  const std::size_t available = exclude < n ? n - 1 : n;
  MFBO_CHECK(k <= available, "need ", k, " distinct indices but only ",
             available, " candidates");
  std::vector<std::size_t> out;
  out.reserve(k);
  while (out.size() < k) {
    const std::size_t candidate = index(n);
    if (candidate == exclude) continue;
    bool seen = false;
    for (std::size_t s : out)
      if (s == candidate) {
        seen = true;
        break;
      }
    if (!seen) out.push_back(candidate);
  }
  return out;
}

Rng Rng::fork() {
  // Derive a decorrelated child seed from this engine's stream.
  const std::uint64_t child_seed =
      engine_() ^ 0x9E3779B97F4A7C15ull;
  return Rng(child_seed);
}

Rng Rng::split(std::uint64_t stream) const {
  // SplitMix64 finalizer over the (seed, stream) pair: adjacent streams map
  // to well-separated seeds, and the parent engine is left untouched.
  std::uint64_t z = seed_ + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return Rng(z ^ (z >> 31));
}

}  // namespace mfbo::linalg
