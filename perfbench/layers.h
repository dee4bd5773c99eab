// Per-layer measurement for the traced run, and the update path shared by
// the library workloads.

#ifndef CFLBENCH_LAYERS_H_
#define CFLBENCH_LAYERS_H_

#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "dyn/dynamic_graph.h"
#include "match/cfl_match.h"
#include "serve/client.h"

namespace cflbench {

// What the traced run pushes through each layer: the workload's own graph,
// queries, limits and update batches.
struct LayerInputs {
  const Graph& data;
  const std::vector<Graph>& queries;
  cfl::MatchLimits limits;
  UpdatePlan plan;
};

// Times SelectRoot + DecomposeCfl + BuildBfsTree, CpiBuilder::Build,
// ComputeMatchingOrder, CflMatcher::Prepare / Match, ParallelCflMatcher,
// the intersection kernels, CanonicalQueryHash, PlanCache::Find and
// GraphDelta + Seal + FoldDelta on the workload's inputs, one call at a time.
void ProbeLibraryLayers(const LayerInputs& in, Tracer& tracer, Report& rep);

// Library workloads only: an in-process QueryServer on the workload graph
// answers a sample of the workload's queries (cold, then relabeled) and a
// few update batches, for the serve.* and dyn.* per-update figures.
void ProbeServeLayers(const LayerInputs& in, const Options& o, Report& rep);

// trace.overhead_frac: the workload's query path over a fixed sample, with
// span recording off and on.
void ProbeTraceOverhead(const LayerInputs& in, cfl::CflMatcher& matcher,
                        Report& rep);

// One served QUERY as the client saw it.
struct ServedQuery {
  double rtt_ms = 0.0;
  cfl::serve::QueryOutcome outcome;
};

// serve.* figures from served queries.
void SetServeMetrics(const std::vector<ServedQuery>& served, Report& rep);

struct UpdateStreamResult {
  std::vector<double> latency_ms;  // from each batch's due time
  std::vector<double> late_ms;     // how late the generator sent it
  uint64_t attempted = 0;
  std::vector<std::string> failures;
  uint64_t retries = 0;
};

// The library workloads' update stream: open-loop batches through
// DynamicGraph::Apply, the library's update path.
class LibraryUpdater {
 public:
  // Background compaction is off here: a rebuild racing the stream kept
  // being abandoned and retried, and where those bursts landed set
  // update_p95_ms. serve_churn is the workload that runs the compactor.
  LibraryUpdater(const Graph& data, UpdatePlan plan)
      : dg_(data, {.background_compaction = false}), plan_(std::move(plan)) {}

  // Sends `batches` batches, `rate` per second, each timed from its due
  // time.
  void Run(uint64_t batches, double rate, Tracer& tracer);

  const UpdateStreamResult& result() const { return out_; }
  uint64_t compactions() { return dg_.Stats().compactions; }

 private:
  cfl::dyn::DynamicGraph dg_;
  UpdatePlan plan_;
  UpdateStreamResult out_;
};

// Records `ops` in `delta`; false (with delta.error()) on the first
// rejected op.
bool AddOps(cfl::dyn::GraphDelta& delta,
            const std::vector<cfl::serve::UpdateOp>& ops);

// Applies one batch the way the server's UPDATE does (retrying a commit
// that lost the race to a compaction). nullopt on success.
std::optional<std::string> ApplyOps(
    cfl::dyn::DynamicGraph& dg, const std::vector<cfl::serve::UpdateOp>& ops,
    uint64_t* retries);

// Connects `client` to the server at `path` once it answers PING; false
// when it does not within about five seconds.
bool WaitForServer(const std::string& path, cfl::serve::ServeClient& client);

}  // namespace cflbench

#endif  // CFLBENCH_LAYERS_H_
