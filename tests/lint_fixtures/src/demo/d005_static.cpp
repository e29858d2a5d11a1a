// Fixture: D005 fires on mutable static state in src/, including a static
// reference to shared mutable state (it binds whatever object the first
// call saw, for the rest of the process).
namespace demo {

struct Tally;
Tally& currentTally();

static int call_count = 0;

int bump() { return ++call_count; }

void hit() {
  static Tally& hits = currentTally();
  (void)hits;
}

}  // namespace demo
