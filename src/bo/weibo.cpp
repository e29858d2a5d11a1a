#include "bo/weibo.h"

#include <memory>

#include "bo/engine.h"

namespace mfbo::bo {

// The synthesis loop itself lives in WeiboEngine (bo/engine.cpp), on the
// same state-machine skeleton as MFBO; it reproduces the former inline
// loop bit-for-bit.

SynthesisResult Weibo::run(Problem& problem, std::uint64_t seed) const {
  WeiboEngine engine(problem, seed, options_);
  return engine.run();
}

std::unique_ptr<Engine> Weibo::makeEngine(Problem& problem,
                                          std::uint64_t seed) const {
  return std::make_unique<WeiboEngine>(problem, seed, options_);
}

}  // namespace mfbo::bo
