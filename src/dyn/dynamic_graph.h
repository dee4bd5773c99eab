// The mutable facade over immutable per-epoch snapshots.
//
// `DynamicGraph` is the one stateful object of the dynamic subsystem. It
// owns the current `Graph` snapshot and the epoch counter. The engine's
// `const Graph&` interface is untouched: a reader calls `Acquire()` and
// gets a `Snapshot` — a shared_ptr to one immutable epoch graph plus that
// graph's epoch — and runs the entire prepare/enumerate pipeline against
// that frozen instance while writers commit later epochs alongside. Shared
// ownership alone keeps a snapshot alive: a superseded graph is freed when
// its last reader drops it, and nothing waits for readers.
//
// Writer path: the graph has one writer at a time. `Apply` and `Commit`
// hold the writer mutex for their whole call: seal the delta, fold it into
// a fresh CSR (dyn/fold.h) — under the writer mutex only, so readers
// proceed — then, under the graph mutex, run the commit hook and install
// the fold as the next epoch. The fold equals a from-scratch GraphBuilder
// build of the same edge set, so an epoch never needs rebuilding. The
// fold's DirtyLabels let the serve layer invalidate exactly the affected
// cached plans. Readers never wait for a fold: the graph mutex guards a
// pointer swap. `Commit` acquires, records and applies under one hold of
// the writer mutex, so nothing can land in between and it never comes back
// stale; it is the serve layer's UPDATE path. A bare `Apply` whose delta
// was built on a snapshot that is no longer current is rejected as stale,
// and its caller re-acquires and rebuilds the delta.
//
// Lock hierarchy (DESIGN.md §9): writer_mu_ is level 21 and mu_ level 22,
// the lowest levels in the process — below the plan cache's (30), so a
// commit's writer -> graph -> cache (commit hook) chain ascends. Callers
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

namespace cfl {
struct DynamicGraphTestAccess;  // tests/dyn_epoch_test.cc
}  // namespace cfl

namespace cfl::dyn {

// Has no effect. The benchmark (perfbench/layers.h) still constructs a
// DynamicGraph with `{.background_compaction = false}`; remove the struct
// and the constructor's parameter with the next change to the benchmark.
struct DynOptions {
  bool background_compaction = true;  // no effect
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
};

class DynamicGraph {
 public:
  explicit DynamicGraph(Graph base, DynOptions /*unused*/ = {});

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

  // Commits one batch: seals, folds (off the graph mutex), advances the
  // epoch. Serialized with every other Apply and Commit. Returns an error
  // string when the delta is stale (bound to a superseded snapshot) — the
  // caller should re-acquire and rebuild — or nullopt on success with
  // `result` (optional) filled. An empty delta commits nothing and reports
  // the current epoch.
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
          nullptr) CFL_EXCLUDES(writer_mu_, mu_);

  // Commits the batch `record` stages: under one hold of the writer mutex
  // it acquires the current snapshot, lets `record` stage the batch's ops
  // on a delta against it, and applies the delta (with `on_commit`, as
  // above). No other writer can land in between, so the delta is never
  // stale. Returns nullopt on success, with `result` filled as by Apply,
  // or "update rejected: " and the delta's error when `record` returned
  // false (nothing is applied).
  std::optional<std::string> Commit(
      const std::function<bool(GraphDelta&)>& record, ApplyResult* result,
      const std::function<void(const DirtyLabels&, Epoch)>& on_commit =
          nullptr) CFL_EXCLUDES(writer_mu_, mu_);

  Epoch CurrentEpoch() CFL_EXCLUDES(mu_);

  // Counter snapshot (gauges sampled now).
  obs::DynCounters Stats() CFL_EXCLUDES(mu_);

 private:
  friend struct cfl::DynamicGraphTestAccess;

  // Apply's body, for a caller that already holds the writer mutex.
  std::optional<std::string> ApplyLocked(
      GraphDelta&& delta, ApplyResult* result,
      const std::function<void(const DirtyLabels&, Epoch)>& on_commit)
      CFL_REQUIRES(writer_mu_) CFL_EXCLUDES(mu_);

  // Makes `next` the current snapshot of a new epoch.
  void InstallLocked(std::shared_ptr<const Graph> next) CFL_REQUIRES(mu_);

  // Forgets superseded snapshots no reader holds any more.
  void PruneSupersededLocked() CFL_REQUIRES(mu_);

  // Test seam (DynamicGraphTestAccess): when set, Apply calls it on the
  // writer's thread between the fold and the install, with only the writer
  // mutex held.
  std::function<void()> after_fold_for_test_;

  // Serializes writers: held across a whole Apply or Commit, fold
  // included.
  Mutex writer_mu_ CFL_LOCK_LEVEL(21);
  Mutex mu_ CFL_LOCK_LEVEL(22);
  std::shared_ptr<const Graph> current_ CFL_GUARDED_BY(mu_);
  // Superseded snapshots, held weakly: only the live_epochs gauge reads
  // them.
  std::vector<std::weak_ptr<const Graph>> superseded_ CFL_GUARDED_BY(mu_);
  // counters_.epoch is the epoch counter: the current snapshot's epoch.
  obs::DynCounters counters_ CFL_GUARDED_BY(mu_);
};

}  // namespace cfl::dyn

#endif  // CFL_DYN_DYNAMIC_GRAPH_H_
