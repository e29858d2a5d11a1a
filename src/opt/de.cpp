#include "opt/de.h"

#include "common/check.h"

namespace mfbo::opt {

linalg::Vector deRand1Bin(linalg::Vector target, const linalg::Vector& a,
                          const linalg::Vector& b, const linalg::Vector& c,
                          double differential, double crossover,
                          linalg::Rng& rng) {
  const std::size_t d = target.size();
  MFBO_CHECK(d > 0, "zero-dimensional DE target");
  MFBO_CHECK(a.size() == d && b.size() == d && c.size() == d,
             "DE parents must match the target's dimension ", d);
  const std::size_t forced = rng.index(d);  // at least one mutant gene
  for (std::size_t j = 0; j < d; ++j) {
    if (j == forced || rng.uniform() < crossover)
      target[j] = a[j] + differential * (b[j] - c[j]);
  }
  return target;
}

}  // namespace mfbo::opt
