// mfbo::opt — the differential-evolution step DE/rand/1/bin.
//
// Both evolutionary baselines of the paper's Tables 1-2 breed with this one
// step: GASPAD its children from the elite pool, and the plain DE baseline
// (standing in for the hybrid EA of Liu et al. 2009) its trial vectors. The
// callers own the population, the parent picks, the clamping to the box and
// the selection.
#pragma once

#include "linalg/rng.h"
#include "linalg/vector.h"

namespace mfbo::opt {

/// DE/rand/1/bin trial vector: @p target with binomial crossover against
/// the mutant a + F·(b − c). Coordinate j takes the mutant gene when it is
/// the forced coordinate (one uniform rng.index(d) draw, made first) or
/// when its own rng.uniform() draw falls below @p crossover (CR); the
/// forced coordinate draws no uniform. The result is not clamped.
linalg::Vector deRand1Bin(linalg::Vector target, const linalg::Vector& a,
                          const linalg::Vector& b, const linalg::Vector& c,
                          double differential, double crossover,
                          linalg::Rng& rng);

}  // namespace mfbo::opt
