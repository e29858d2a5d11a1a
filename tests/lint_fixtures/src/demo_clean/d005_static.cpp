// Clean twin of d005: compile-time constant, no mutable process state, and
// a function-local (non-static) reference looked up per call.
namespace demo {

struct Tally;
Tally& currentTally();

constexpr int kMaxCalls = 64;

int clampCalls(int n) { return n < kMaxCalls ? n : kMaxCalls; }

void hit() {
  Tally& hits = currentTally();
  (void)hits;
}

}  // namespace demo
