// Fixture: O003 fires — this file is registered with a `journalHook`
// coupling (see the test's Config), mirroring the real flight-recorder
// hook sites (kSessionStep and JournalScope in session.cpp,
// kFidelityDecision in engine.cpp, ...), but the journalling call was
// deleted.
namespace demo {

void advanceEngine(int step) {
  // The registered journalHook(step) call site is gone: the engine still
  // advances, the black box just never hears about it.
  (void)step;
}

}  // namespace demo
