// The mutable facade over immutable per-epoch snapshots.
//
// `DynamicGraph` is the one stateful object of the dynamic subsystem. It
// owns the current `Graph` snapshot, the epoch counter, the retained list
// of superseded snapshots, and the background compactor. The engine's
// `const Graph&` interface is untouched: a reader calls `Acquire()` and
// gets a `Snapshot` — a shared_ptr to one immutable epoch graph plus an
// RAII `EpochRef` pin — and runs the entire prepare/enumerate pipeline
// against that frozen instance while writers commit later epochs alongside.
//
// Writer path (`Apply`): seal the delta, fold it into a fresh CSR
// (dyn/fold.h) under the graph mutex, retain the superseded snapshot until
// its pins drain, advance the epoch, and report the fold's DirtyLabels so
// the serve layer can invalidate exactly the affected cached plans. A delta
// built against a snapshot that is no longer current is rejected as stale —
// the caller re-acquires and rebuilds its delta (serve/server.cc does this
// with a bounded retry).
//
// Compaction: folds are incremental and never re-sort, so after enough
// churn the snapshot drifts from what a from-scratch build would choose
// (hub budget settlement pessimism, tombstone accumulation in the label
// index). When the touched-vertex accumulator crosses
// `compact_touched_fraction * n`, the compactor (one TaskPool worker)
// waits until every older epoch drains (`EpochManager::WaitUntilDrained` —
// compaction never runs while an older epoch is pinned, the property
// tests/dyn_epoch_test.cc locks in under tsan), rebuilds from scratch
// off-lock, and installs the rebuild only if the epoch did not advance
// mid-rebuild (otherwise the work is abandoned and recounted).
//
// Lock hierarchy (DESIGN.md §9): mu_ is level 22, the lowest level in the
// process — below EpochManager's (24) and the plan cache's (30), so
// Apply's graph -> pin and graph -> cache (commit hook) chains ascend.
// Callers hold no lock when they call in.

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
#include "dyn/epoch.h"
#include "graph/graph.h"
#include "obs/dyn_counters.h"
#include "parallel/task_pool.h"

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

// One pinned epoch: the immutable graph plus the pin keeping its snapshot
// from being retired. Move-only; queries hold it for their full lifetime.
class Snapshot {
 public:
  Snapshot() = default;
  Snapshot(std::shared_ptr<const Graph> graph, EpochRef ref)
      : graph_(std::move(graph)), ref_(std::move(ref)) {}

  Snapshot(Snapshot&&) = default;
  Snapshot& operator=(Snapshot&&) = default;

  const Graph& graph() const { return *graph_; }
  const std::shared_ptr<const Graph>& graph_ptr() const { return graph_; }
  Epoch epoch() const { return ref_.epoch(); }
  bool valid() const { return graph_ != nullptr && ref_.held(); }

  // Unpins early (before destruction). The graph pointer stays usable —
  // shared ownership protects the memory — but the compactor no longer
  // waits for this reader.
  void ReleasePin() { ref_.Release(); }

 private:
  std::shared_ptr<const Graph> graph_;
  EpochRef ref_;
};

// Result of a successful Apply.
struct ApplyResult {
  Epoch epoch = 0;           // the newly committed epoch
  DirtyLabels dirty;         // labels whose candidates changed
  uint32_t added_vertices = 0;
  uint32_t removed_vertices = 0;
  uint64_t added_edges = 0;
  uint64_t removed_edges = 0;
};

class DynamicGraph {
 public:
  explicit DynamicGraph(Graph base, DynOptions options = {});

  // Cancels any parked compactor wait and joins the worker. Dies (via
  // ~EpochManager) if a Snapshot still holds a pin.
  ~DynamicGraph();

  DynamicGraph(const DynamicGraph&) = delete;
  DynamicGraph& operator=(const DynamicGraph&) = delete;

  // Pins the current epoch and returns its snapshot.
  Snapshot Acquire() CFL_EXCLUDES(mu_);

  // Builds a delta against `snapshot`'s graph. Convenience for callers
  // that already hold a snapshot (the delta is bound to that instance).
  GraphDelta NewDelta(const Snapshot& snapshot) const {
    return GraphDelta(snapshot.graph());
  }

  // Commits one batch: seals, folds, advances the epoch. Returns an error
  // string when the delta is stale (bound to a superseded snapshot) — the
  // caller should re-acquire and rebuild — or nullopt on success with
  // `result` (optional) filled. An empty delta commits nothing and reports
  // the current epoch.
  //
  // `on_commit`, when given, runs *inside* the commit's critical section,
  // after the new epoch exists but before any Acquire can observe it, with
  // the batch's dirty labels and the new epoch. The serve layer invalidates
  // its plan cache here: a query that later pins the new epoch can then
  // never hit a plan the batch dirtied (invalidation strictly precedes
  // visibility), and the cache refuses plans prepared before this epoch
  // for those labels. The callback must not call back into this
  // DynamicGraph and may only take locks above level 22 (the plan cache's
  // 30 qualifies).
  std::optional<std::string> Apply(
      GraphDelta&& delta, ApplyResult* result = nullptr,
      const std::function<void(const DirtyLabels&, Epoch)>& on_commit =
          nullptr) CFL_EXCLUDES(mu_);

  Epoch CurrentEpoch() CFL_EXCLUDES(mu_);

  // Counter snapshot (gauges sampled now). Also opportunistically retires
  // drained snapshots so the gauges reflect reality.
  obs::DynCounters Stats() CFL_EXCLUDES(mu_);

  // Synchronous compaction: waits for older epochs to drain, rebuilds,
  // installs. Returns false if cancelled (shutdown) or if the epoch
  // advanced mid-rebuild. Test hook and the background task's body.
  bool CompactNow() CFL_EXCLUDES(mu_);

 private:
  struct Retained {
    Epoch epoch;
    std::shared_ptr<const Graph> graph;
  };

  // Drops retained snapshots whose epoch has no outstanding pins.
  void RetireDrainedLocked() CFL_REQUIRES(mu_);

  // From-scratch rebuild of `g` through GraphBuilder (fresh hub
  // settlement, canonical vector sizes). Static: runs off-lock.
  static Graph Rebuild(const Graph& g);

  const DynOptions options_;

  Mutex mu_ CFL_LOCK_LEVEL(22);
  std::shared_ptr<const Graph> current_ CFL_GUARDED_BY(mu_);
  std::vector<Retained> retained_ CFL_GUARDED_BY(mu_);
  obs::DynCounters counters_ CFL_GUARDED_BY(mu_);
  // Touched vertices folded since the last from-scratch rebuild; the
  // compaction trigger.
  uint64_t touched_since_rebuild_ CFL_GUARDED_BY(mu_) = 0;
  bool compaction_scheduled_ CFL_GUARDED_BY(mu_) = false;

  EpochManager epochs_;

  // Single-worker pool for background compaction; null when
  // options_.background_compaction is false. Declared last so its
  // destructor (which joins the worker) runs first — after ~DynamicGraph
  // has cancelled the epoch waits the worker might be parked on.
  std::unique_ptr<TaskPool> compactor_;
};

}  // namespace cfl::dyn

#endif  // CFL_DYN_DYNAMIC_GRAPH_H_
