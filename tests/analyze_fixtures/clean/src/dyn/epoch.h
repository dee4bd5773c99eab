// Fixture: the epoch-versioning surface mirrored from src/dyn — a pending
// delta guarded at level 22, a drain tracker nested at level 24, a publish
// atomic for the current snapshot and a counter for folds. Exercises the
// dyn module's one edge in the layering DAG (graph) and the 22 -> 24
// nested acquisition the lock-order pass must accept.
#ifndef FIX_DYN_EPOCH_H_
#define FIX_DYN_EPOCH_H_

#include <atomic>
#include <cstdint>

#include "check/check.h"
#include "graph/graph.h"

namespace fix {

class EpochRing {
 public:
  void Commit(uint64_t touched);
  void Pin();
  void Unpin();
  void AwaitDrained();

  const Graph* Current() {
    return current_.load(std::memory_order_acquire);
  }
  uint64_t Folds() { return folds_.load(std::memory_order_relaxed); }

 private:
  void NoteRetired(uint64_t epoch);

  Mutex mu_ CFL_LOCK_LEVEL(22);
  Mutex drain_mu_ CFL_LOCK_LEVEL(24);
  CondVar drained_;
  uint64_t epoch_ = 0;
  uint64_t pins_ = 0;

  std::atomic<const Graph*> current_ CFL_ATOMIC_INTENT(publish){nullptr};
  std::atomic<uint64_t> folds_ CFL_ATOMIC_INTENT(counter){0};
};

}  // namespace fix

#endif  // FIX_DYN_EPOCH_H_
