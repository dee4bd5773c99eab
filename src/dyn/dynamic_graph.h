// The mutable facade over immutable per-epoch snapshots.
//
// `DynamicGraph` is the one stateful object of the dynamic subsystem. It
// owns the current `Graph` snapshot, the epoch counter and the background
// compactor. The engine's `const Graph&` interface is untouched: a reader
// calls `Acquire()` and gets a `Snapshot` — a shared_ptr to one immutable
// epoch graph plus that graph's epoch — and runs the entire
// prepare/enumerate pipeline against that frozen instance while writers
// commit later epochs alongside. Shared ownership alone keeps a snapshot
// alive: a superseded graph is freed when its last reader drops it, and
// nothing waits for readers.
//
// Writer path (`Apply`): seal the delta, fold it into a fresh CSR
// (dyn/fold.h) with no lock held — the base snapshot is immutable — then,
// under the graph mutex, only check that the base is still current, run
// the commit hook and install the fold as the next epoch. The fold's
// DirtyLabels let the serve layer invalidate exactly the affected cached
// plans. Readers never wait for a fold: the mutex guards a pointer swap.
// A delta built against a snapshot that is no longer current — including
// one whose base was superseded while it folded — is rejected as stale;
// the caller re-acquires and rebuilds its delta. `Commit` is that replay
// loop, bounded, and the serve layer's UPDATE path: it also serializes
// its callers, because of two writers folding side by side only one can
// install, and the other's fold is wasted.
//
// Compaction: folds are incremental and never re-sort, so after enough
// churn the snapshot drifts from what a from-scratch build would choose
// (hub budget settlement pessimism, tombstone accumulation in the label
// index). When the touched-vertex accumulator crosses
// `compact_touched_fraction * n`, the compactor (one TaskPool worker)
// rebuilds the current snapshot from scratch off-lock and installs the
// rebuild as the next epoch only if the epoch did not advance mid-rebuild
// (otherwise the work is abandoned and recounted). Readers of older epochs
// keep their own graphs; the rebuild does not wait for them.
//
// Lock hierarchy (DESIGN.md §9): writer_mu_ is level 21 and mu_ level 22,
// the lowest levels in the process — below the plan cache's (30), so
// Commit's writer -> graph -> cache (commit hook) chain ascends. Callers
// hold no lock when they call in.

#ifndef CFL_DYN_DYNAMIC_GRAPH_H_
#define CFL_DYN_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "check/thread_annotations.h"
#include "dyn/delta.h"
#include "graph/graph.h"
#include "obs/dyn_counters.h"
#include "parallel/task_pool.h"

namespace cfl {
struct DynamicGraphTestAccess;  // tests/dyn_epoch_test.cc
}  // namespace cfl

namespace cfl::dyn {

struct DynOptions {
  // Schedule a compaction once the cumulative touched-vertex count since
  // the last rebuild exceeds this fraction of the vertex count. <= 0
  // disables automatic compaction (CompactNow still works).
  double compact_touched_fraction = 0.25;

  // Run compactions on a background worker. When false, nothing compacts
  // until CompactNow() is called (deterministic tests).
  bool background_compaction = true;
};

using Epoch = uint64_t;

// One epoch: the immutable graph and its epoch number. Queries hold it for
// their full lifetime; the graph lives as long as any copy does.
class Snapshot {
 public:
  Snapshot() = default;
  Snapshot(std::shared_ptr<const Graph> graph, Epoch epoch)
      : graph_(std::move(graph)), epoch_(epoch) {}

  const Graph& graph() const { return *graph_; }
  Epoch epoch() const { return epoch_; }

 private:
  std::shared_ptr<const Graph> graph_;
  Epoch epoch_ = 0;
};

// Result of a successful Apply.
struct ApplyResult {
  Epoch epoch = 0;           // the newly committed epoch
  DirtyLabels dirty;         // labels whose candidates changed
  uint32_t added_vertices = 0;
  uint32_t removed_vertices = 0;
  uint64_t added_edges = 0;
  uint64_t removed_edges = 0;
  uint32_t replays = 0;      // Commit only: attempts that came back stale
};

class DynamicGraph {
 public:
  explicit DynamicGraph(Graph base, DynOptions options = {});

  DynamicGraph(const DynamicGraph&) = delete;
  DynamicGraph& operator=(const DynamicGraph&) = delete;

  // Returns the current epoch's snapshot.
  Snapshot Acquire() CFL_EXCLUDES(mu_);

  // Builds a delta against `snapshot`'s graph. Keep `snapshot` until Apply
  // returns: the delta reads that graph, and Apply tells a stale delta by
  // the graph's identity.
  GraphDelta NewDelta(const Snapshot& snapshot) const {
    return GraphDelta(snapshot.graph());
  }

  // Commits one batch: seals, folds (off the lock), advances the epoch.
  // Returns an error string when the delta is stale (bound to a superseded
  // snapshot, before or after the fold) — the caller should re-acquire and
  // rebuild — or nullopt on success with `result` (optional) filled. An
  // empty delta commits nothing and reports the current epoch.
  //
  // `on_commit`, when given, runs *inside* the commit's critical section,
  // just before the new epoch is installed, so no Acquire can observe the
  // epoch before the hook has run. It gets the batch's dirty labels and
  // the epoch the batch is committed as. The serve layer invalidates
  // its plan cache here: a query that later acquires the new epoch can then
  // never hit a plan the batch dirtied (invalidation strictly precedes
  // visibility), and the cache refuses plans prepared before this epoch
  // for those labels. The callback must not call back into this
  // DynamicGraph and may only take locks above level 22 (the plan cache's
  // 30 qualifies).
  std::optional<std::string> Apply(
      GraphDelta&& delta, ApplyResult* result = nullptr,
      const std::function<void(const DirtyLabels&, Epoch)>& on_commit =
          nullptr) CFL_EXCLUDES(mu_);

  // Attempts Commit makes before it reports a lost race.
  static constexpr int kCommitAttempts = 8;

  // Commits the batch `record` stages, replaying it while it comes back
  // stale: each attempt acquires the current snapshot, lets `record` stage
  // the batch's ops on a delta against it, and Applies the delta (with
  // `on_commit`, as above). Commits run one at a time, so they never make
  // each other stale; only a compaction or a direct Apply landing
  // mid-commit costs a replay. Returns nullopt on success, with `result`
  // filled as by Apply, or the reason for failure: `record` returned false
  // ("update rejected: " and the delta's error; nothing is applied), or
  // kCommitAttempts attempts came back stale. `result->replays` counts the
  // stale attempts either way.
  std::optional<std::string> Commit(
      const std::function<bool(GraphDelta&)>& record, ApplyResult* result,
      const std::function<void(const DirtyLabels&, Epoch)>& on_commit =
          nullptr) CFL_EXCLUDES(writer_mu_, mu_);

  Epoch CurrentEpoch() CFL_EXCLUDES(mu_);

  // Counter snapshot (gauges sampled now).
  obs::DynCounters Stats() CFL_EXCLUDES(mu_);

  // Synchronous compaction: rebuilds the current snapshot and installs the
  // rebuild as the next epoch. Returns false if the epoch advanced
  // mid-rebuild. Test hook and the background task's body.
  bool CompactNow() CFL_EXCLUDES(mu_);

 private:
  friend struct cfl::DynamicGraphTestAccess;

  // Makes `next` the current snapshot of a new epoch.
  void InstallLocked(std::shared_ptr<const Graph> next) CFL_REQUIRES(mu_);

  // Forgets superseded snapshots no reader holds any more.
  void PruneSupersededLocked() CFL_REQUIRES(mu_);

  // From-scratch rebuild of `g` through GraphBuilder (fresh hub
  // settlement, canonical vector sizes). Static: runs off-lock.
  static Graph Rebuild(const Graph& g);

  const DynOptions options_;

  // Test seam (DynamicGraphTestAccess): when set, Apply calls it on the
  // writer's thread between the fold and the install, with no lock held.
  std::function<void()> after_fold_for_test_;

  // Serializes Commit calls; held across a whole commit, fold included.
  Mutex writer_mu_ CFL_LOCK_LEVEL(21);
  Mutex mu_ CFL_LOCK_LEVEL(22);
  std::shared_ptr<const Graph> current_ CFL_GUARDED_BY(mu_);
  // Superseded snapshots, held weakly: only the live_epochs gauge reads
  // them.
  std::vector<std::weak_ptr<const Graph>> superseded_ CFL_GUARDED_BY(mu_);
  // counters_.epoch is the epoch counter: the current snapshot's epoch.
  obs::DynCounters counters_ CFL_GUARDED_BY(mu_);
  // Touched vertices folded since the last from-scratch rebuild; the
  // compaction trigger.
  uint64_t touched_since_rebuild_ CFL_GUARDED_BY(mu_) = 0;
  bool compaction_scheduled_ CFL_GUARDED_BY(mu_) = false;

  // Single-worker pool for background compaction; null when
  // options_.background_compaction is false. Declared last so its
  // destructor (which joins the worker) runs first, while the members a
  // running compaction touches are still alive.
  std::unique_ptr<TaskPool> compactor_;
};

}  // namespace cfl::dyn

#endif  // CFL_DYN_DYNAMIC_GRAPH_H_
