#include "dyn/dynamic_graph.h"

#include <string>
#include <utility>

#include "check/check.h"
#include "dyn/fold.h"

namespace cfl::dyn {

DynamicGraph::DynamicGraph(Graph base, DynOptions /*unused*/)
    : current_(std::make_shared<const Graph>(std::move(base))) {
  CFL_CHECK(!current_->HasMultiplicities())
      << " DynamicGraph requires a plain (uncompressed) base graph";
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
  MutexLock writer(writer_mu_);
  return ApplyLocked(std::move(delta), result, on_commit);
}

std::optional<std::string> DynamicGraph::Commit(
    const std::function<bool(GraphDelta&)>& record, ApplyResult* result,
    const std::function<void(const DirtyLabels&, Epoch)>& on_commit) {
  MutexLock writer(writer_mu_);
  Snapshot snapshot = Acquire();
  GraphDelta delta = NewDelta(snapshot);
  if (!record(delta)) return "update rejected: " + delta.error();
  return ApplyLocked(std::move(delta), result, on_commit);
}

std::optional<std::string> DynamicGraph::ApplyLocked(
    GraphDelta&& delta, ApplyResult* result,
    const std::function<void(const DirtyLabels&, Epoch)>& on_commit) {
  delta.Seal();
  {
    // A delta built on a superseded snapshot is stale, and an empty one
    // commits nothing.
    MutexLock lock(mu_);
    if (&delta.base() != current_.get()) {
      return "stale delta: the base snapshot is no longer current "
             "(re-acquire and rebuild the batch)";
    }
    if (delta.empty()) {
      if (result != nullptr) {
        *result = {};
        result->epoch = counters_.epoch;
      }
      return std::nullopt;
    }
  }

  // The fold, off the graph mutex: the base graph is immutable, and the
  // caller's snapshot keeps it alive until Apply returns. Readers proceed
  // meanwhile; the writer mutex keeps the base current.
  DirtyLabels dirty;
  auto next =
      std::make_shared<const Graph>(FoldDelta(delta.base(), delta, &dirty));
  if (after_fold_for_test_) after_fold_for_test_();

  MutexLock lock(mu_);
  CFL_CHECK(&delta.base() == current_.get())
      << " an epoch was installed without the writer mutex";
  if (on_commit != nullptr) on_commit(dirty, counters_.epoch + 1);
  InstallLocked(std::move(next));

  counters_.folds++;
  counters_.vertices_added += delta.AddedVertices();
  counters_.vertices_removed += delta.RemovedVertices();
  counters_.edges_added += delta.AddedEdges();
  counters_.edges_removed += delta.RemovedEdges();
  if (result != nullptr) {
    result->epoch = counters_.epoch;
    result->dirty = std::move(dirty);
    result->added_vertices = delta.AddedVertices();
    result->removed_vertices = delta.RemovedVertices();
    result->added_edges = delta.AddedEdges();
    result->removed_edges = delta.RemovedEdges();
  }
  return std::nullopt;
}

obs::DynCounters DynamicGraph::Stats() {
  MutexLock lock(mu_);
  PruneSupersededLocked();
  obs::DynCounters out = counters_;
  out.live_epochs = 1 + superseded_.size();
  return out;
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

}  // namespace cfl::dyn
