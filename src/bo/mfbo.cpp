#include "bo/mfbo.h"

#include <memory>

#include "bo/engine.h"

namespace mfbo::bo {

// The synthesis loop itself lives in MfboEngine (bo/engine.cpp): the
// sequential Algorithm 1 is the batch_size = 1 special case of the
// state-machine engine and reproduces the former inline loop bit-for-bit.

SynthesisResult MfboSynthesizer::run(Problem& problem,
                                     std::uint64_t seed) const {
  MfboEngine engine(problem, seed, options_);
  return engine.run();
}

std::unique_ptr<Engine> MfboSynthesizer::makeEngine(Problem& problem,
                                                    std::uint64_t seed) const {
  return std::make_unique<MfboEngine>(problem, seed, options_);
}

}  // namespace mfbo::bo
