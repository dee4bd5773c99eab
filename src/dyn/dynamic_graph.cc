#include "dyn/dynamic_graph.h"

#include <string>
#include <utility>

#include "check/check.h"
#include "dyn/fold.h"
#include "graph/graph_builder.h"

namespace cfl::dyn {

DynamicGraph::DynamicGraph(Graph base, DynOptions options)
    : options_(options),
      current_(std::make_shared<const Graph>(std::move(base))) {
  CFL_CHECK(!current_->HasMultiplicities())
      << " DynamicGraph requires a plain (uncompressed) base graph";
  if (options_.background_compaction) {
    compactor_ = std::make_unique<TaskPool>(1);
  }
}

Snapshot DynamicGraph::Acquire() {
  MutexLock lock(mu_);
  return Snapshot(current_, counters_.epoch);
}

Epoch DynamicGraph::CurrentEpoch() {
  MutexLock lock(mu_);
  return counters_.epoch;
}

std::optional<std::string> DynamicGraph::Apply(
    GraphDelta&& delta, ApplyResult* result,
    const std::function<void(const DirtyLabels&, Epoch)>& on_commit) {
  static constexpr char kStale[] =
      "stale delta: the base snapshot is no longer current "
      "(re-acquire and rebuild the batch)";
  delta.Seal();
  {
    // Cheap early outs: a delta that is already stale is not worth
    // folding, and an empty one commits nothing.
    MutexLock lock(mu_);
    if (&delta.base() != current_.get()) return kStale;
    if (delta.empty()) {
      if (result != nullptr) {
        *result = {};
        result->epoch = counters_.epoch;
      }
      return std::nullopt;
    }
  }

  // The fold, off the lock: the base graph is immutable, and the caller's
  // snapshot keeps it alive until Apply returns. Readers and other writers
  // proceed meanwhile.
  DirtyLabels dirty;
  auto next =
      std::make_shared<const Graph>(FoldDelta(delta.base(), delta, &dirty));
  if (after_fold_for_test_) after_fold_for_test_();

  bool schedule = false;
  {
    MutexLock lock(mu_);
    // A commit that landed during the fold makes this one stale: it has
    // folded in vain, and the caller replays.
    if (&delta.base() != current_.get()) return kStale;
    if (on_commit != nullptr) on_commit(dirty, counters_.epoch + 1);
    InstallLocked(std::move(next));

    counters_.folds++;
    counters_.vertices_added += delta.AddedVertices();
    counters_.vertices_removed += delta.RemovedVertices();
    counters_.edges_added += delta.AddedEdges();
    counters_.edges_removed += delta.RemovedEdges();
    touched_since_rebuild_ += delta.Touched().size();

    if (compactor_ != nullptr && options_.compact_touched_fraction > 0 &&
        !compaction_scheduled_ &&
        static_cast<double>(touched_since_rebuild_) >
            options_.compact_touched_fraction * current_->NumVertices()) {
      compaction_scheduled_ = true;
      schedule = true;
    }
    if (result != nullptr) {
      result->epoch = counters_.epoch;
      result->dirty = std::move(dirty);
      result->added_vertices = delta.AddedVertices();
      result->removed_vertices = delta.RemovedVertices();
      result->added_edges = delta.AddedEdges();
      result->removed_edges = delta.RemovedEdges();
    }
  }
  if (schedule) {
    compactor_->Submit([this] {
      CompactNow();
      MutexLock lock(mu_);
      compaction_scheduled_ = false;
    });
  }
  return std::nullopt;
}

std::optional<std::string> DynamicGraph::Commit(
    const std::function<bool(GraphDelta&)>& record, ApplyResult* result,
    const std::function<void(const DirtyLabels&, Epoch)>& on_commit) {
  MutexLock writer(writer_mu_);
  for (int attempt = 0; attempt < kCommitAttempts; ++attempt) {
    if (result != nullptr) result->replays = attempt;
    Snapshot snapshot = Acquire();
    GraphDelta delta = NewDelta(snapshot);
    if (!record(delta)) return "update rejected: " + delta.error();
    ApplyResult applied;
    if (!Apply(std::move(delta), &applied, on_commit).has_value()) {
      if (result != nullptr) {
        applied.replays = attempt;
        *result = std::move(applied);
      }
      return std::nullopt;
    }
  }
  if (result != nullptr) result->replays = kCommitAttempts;
  return "update failed: lost the commit race " +
         std::to_string(kCommitAttempts) + " times";
}

obs::DynCounters DynamicGraph::Stats() {
  MutexLock lock(mu_);
  PruneSupersededLocked();
  obs::DynCounters out = counters_;
  out.live_epochs = 1 + superseded_.size();
  return out;
}

bool DynamicGraph::CompactNow() {
  Epoch target;
  std::shared_ptr<const Graph> snapshot;
  {
    MutexLock lock(mu_);
    target = counters_.epoch;
    snapshot = current_;
  }
  // Off-lock: the expensive part.
  auto rebuilt = std::make_shared<const Graph>(Rebuild(*snapshot));

  MutexLock lock(mu_);
  if (counters_.epoch != target) {
    // A writer committed while we rebuilt; the rebuild describes a stale
    // epoch. Abandon — the next trigger will try again.
    counters_.compactions_abandoned++;
    return false;
  }
  InstallLocked(std::move(rebuilt));
  counters_.compactions++;
  touched_since_rebuild_ = 0;
  return true;
}

void DynamicGraph::InstallLocked(std::shared_ptr<const Graph> next) {
  superseded_.push_back(current_);
  current_ = std::move(next);
  counters_.epoch++;
  PruneSupersededLocked();
}

void DynamicGraph::PruneSupersededLocked() {
  const size_t before = superseded_.size();
  std::erase_if(superseded_, [](const std::weak_ptr<const Graph>& g) {
    return g.expired();
  });
  counters_.epochs_retired += before - superseded_.size();
}

Graph DynamicGraph::Rebuild(const Graph& g) {
  const uint32_t n = g.NumVertices();
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) {
    b.SetLabel(v, g.label(v));
    for (VertexId w : g.Neighbors(v)) {
      if (w > v) b.AddEdge(v, w);  // each undirected edge once; no loops
    }
  }
  return std::move(b).Build();
}

}  // namespace cfl::dyn
