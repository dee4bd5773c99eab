#include "dyn/dynamic_graph.h"

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

DynamicGraph::~DynamicGraph() {
  // A compactor parked in WaitUntilDrained would deadlock the pool join;
  // fail its wait first. Tasks already rebuilding finish and install (or
  // abandon) against still-live members — the pool joins before any member
  // destructor runs.
  epochs_.Cancel();
  compactor_.reset();
}

Snapshot DynamicGraph::Acquire() {
  MutexLock lock(mu_);
  return Snapshot(current_, epochs_.Pin());
}

Epoch DynamicGraph::CurrentEpoch() { return epochs_.current(); }

std::optional<std::string> DynamicGraph::Apply(
    GraphDelta&& delta, ApplyResult* result,
    const std::function<void(const DirtyLabels&, Epoch)>& on_commit) {
  delta.Seal();
  bool schedule = false;
  {
    MutexLock lock(mu_);
    if (&delta.base() != current_.get()) {
      return "stale delta: the base snapshot is no longer current "
             "(re-acquire and rebuild the batch)";
    }
    if (delta.empty()) {
      if (result != nullptr) {
        *result = {};
        result->epoch = epochs_.current();
      }
      return std::nullopt;
    }
    DirtyLabels dirty;
    Graph folded = FoldDelta(*current_, delta, &dirty);
    retained_.push_back({epochs_.current(), current_});
    current_ = std::make_shared<const Graph>(std::move(folded));
    const Epoch committed = epochs_.Advance();

    counters_.folds++;
    counters_.epochs_created++;
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
    RetireDrainedLocked();

    if (on_commit != nullptr) on_commit(dirty, committed);
    if (result != nullptr) {
      result->epoch = committed;
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

obs::DynCounters DynamicGraph::Stats() {
  MutexLock lock(mu_);
  RetireDrainedLocked();
  obs::DynCounters out = counters_;
  out.live_epochs = 1 + retained_.size();
  out.pinned_refs = epochs_.PinnedAtOrBelow(epochs_.current());
  return out;
}

bool DynamicGraph::CompactNow() {
  Epoch target;
  std::shared_ptr<const Graph> snapshot;
  {
    MutexLock lock(mu_);
    target = epochs_.current();
    snapshot = current_;
  }
  // The drain barrier: no rebuild is installed while any older epoch is
  // still pinned. Cancelled on shutdown.
  if (target > 0 && !epochs_.WaitUntilDrained(target - 1)) return false;

  Graph rebuilt = Rebuild(*snapshot);  // off-lock: the expensive part

  MutexLock lock(mu_);
  if (epochs_.current() != target) {
    // A writer committed while we rebuilt; the rebuild describes a stale
    // epoch. Abandon — the next trigger will try again.
    counters_.compactions_abandoned++;
    return false;
  }
  retained_.push_back({target, current_});
  current_ = std::make_shared<const Graph>(std::move(rebuilt));
  epochs_.Advance();
  counters_.compactions++;
  counters_.epochs_created++;
  touched_since_rebuild_ = 0;
  RetireDrainedLocked();
  return true;
}

void DynamicGraph::RetireDrainedLocked() {
  auto it = retained_.begin();
  while (it != retained_.end()) {
    if (epochs_.PinCount(it->epoch) == 0) {
      counters_.epochs_retired++;
      it = retained_.erase(it);
    } else {
      ++it;
    }
  }
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
