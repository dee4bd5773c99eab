#include "match/cfl_match.h"

#include <stdexcept>
#include <unordered_map>

#include "check/check.h"
#include "check/validate.h"
#include "cpi/root_select.h"
#include "decomp/cfl_decomposition.h"
#include "decomp/two_core.h"
#include "match/count_roots.h"
#include "match/enumerator.h"
#include "match/leaf_match.h"
#include "obs/clock.h"
#include "order/cardinality.h"

namespace cfl {

using obs::WallTimer;

CflMatcher::CflMatcher(const Graph& data) : data_(data) {
  if (check::DebugValidationEnabled()) {
    ValidationResult r = ValidateGraph(data);
    CFL_CHECK(r.ok) << " — data graph invalid: " << r.error;
  }
}

VertexId CflMatcher::ChooseRoot(const Graph& q) const {
  if (q.NumVertices() == 0) {
    throw std::invalid_argument("query graph has no vertices");
  }
  std::vector<VertexId> choices = TwoCoreVertices(q);
  if (choices.empty()) {
    // Tree query: the core degenerates to the root, chosen among all.
    choices.resize(q.NumVertices());
    for (VertexId v = 0; v < q.NumVertices(); ++v) choices[v] = v;
  }
  return SelectRoot(q, data_, LabelDegreeIndex(data_), choices);
}

double CflMatcher::EstimateEmbeddings(const Graph& q) const {
  VertexId root = ChooseRoot(q);
  BfsTree tree = BuildBfsTree(q, root);
  Cpi cpi = CpiBuilder(data_).Build(q, tree, CpiStrategy::kRefined);
  if (cpi.HasEmptyCandidateSet()) return 0.0;
  std::vector<bool> all(q.NumVertices(), true);
  return TreeCardinality(cpi, root, all);
}

PreparedQuery CflMatcher::Prepare(const Graph& q,
                                  const MatchOptions& options) const {
  PreparedQuery prepared;
  WallTimer phase_timer;
  // Stats phase laps come from their own timer so they can exclude the
  // bookkeeping between phases (validation, stats copying); every lap is
  // still a disjoint interval of the same wall clock, so the phase-sum
  // <= total identity holds by construction.
  CFL_STATS_ONLY(WallTimer stats_timer; prepared.stats.recorded = true;)

  // --- Decomposition, root selection, BFS tree --------------------------
  VertexId root = ChooseRoot(q);
  prepared.decomposition = DecomposeCfl(q, root);
  prepared.tree = BuildBfsTree(q, root);
  CFL_STATS_ONLY(prepared.stats.decompose_seconds = stats_timer.Lap();)

  // --- CPI ----------------------------------------------------------------
  CpiBuildStats* cpi_stats = nullptr;
  CFL_STATS_ONLY(cpi_stats = &prepared.stats.cpi;)
  prepared.cpi = CpiBuilder(data_).Build(q, prepared.tree,
                                         options.cpi_strategy, cpi_stats);
  prepared.build_seconds = phase_timer.Lap();
  CFL_STATS_ONLY({
    MatchStats& s = prepared.stats;
    s.cpi_top_down_seconds = s.cpi.top_down_seconds;
    s.cpi_bottom_up_seconds = s.cpi.bottom_up_seconds;
    s.cpi_adjacency_seconds = s.cpi.adjacency_seconds;
    s.cpi_candidate_entries = prepared.cpi.NumCandidateEntries();
    s.cpi_adjacency_entries = prepared.cpi.NumAdjacencyEntries();
    s.cpi_candidates_per_vertex.resize(q.NumVertices());
    for (VertexId u = 0; u < q.NumVertices(); ++u) {
      s.cpi_candidates_per_vertex[u] = prepared.cpi.NumCandidates(u);
    }
  })

  // Debug validation (CFL_VALIDATE=1 / CFL_FORCE_VALIDATE): re-check the
  // structures enumeration will trust blindly; see check/validate.h.
  if (check::DebugValidationEnabled()) {
    ValidationResult r = ValidateDecomposition(q, prepared.decomposition);
    CFL_CHECK(r.ok) << " — decomposition invalid: " << r.error;
    r = ValidateCpi(q, data_, prepared.cpi);
    CFL_CHECK(r.ok) << " — CPI invalid: " << r.error;
  }

  if (prepared.cpi.HasEmptyCandidateSet()) {
    prepared.no_results = true;
    return prepared;
  }

  // --- Matching order ----------------------------------------------------
  CFL_STATS_ONLY(stats_timer.Lap();)  // exclude validation/stats bookkeeping
  prepared.order =
      ComputeMatchingOrder(q, prepared.cpi, prepared.decomposition,
                           options.decomposition, options.ordering);
  prepared.order_seconds = phase_timer.Lap();
  CFL_STATS_ONLY(prepared.stats.order_seconds = stats_timer.Lap();)
  return prepared;
}

MatchResult CflMatcher::Match(const Graph& q,
                              const MatchOptions& options) const {
  MatchResult result;
  WallTimer total_timer;

  PreparedQuery prepared = Prepare(q, options);
  const Cpi& cpi = prepared.cpi;
  const MatchingOrder& order = prepared.order;
  result.build_seconds = prepared.build_seconds;
  result.order_seconds = prepared.order_seconds;
  result.index_entries = cpi.SizeInEntries();
  CFL_STATS_ONLY(result.stats = prepared.stats;)

  if (prepared.no_results) {
    result.total_seconds = total_timer.Lap();
    return result;
  }

  if (!options.on_embedding) {
    // Counting mode: one inline shard of the root-claiming count loop; leaf
    // completions are counted as Cartesian products, never materialized.
    CountRun run(data_, prepared, options.limits, 1);
    run.CountRoots(0);
    run.Finish(result);
    result.total_seconds = total_timer.Lap();
    return result;
  }

  // Enumeration mode: the core/forest pass pauses at each embedding and
  // the leaf pass expands its leaf assignments over the same bindings.
  WallTimer phase_timer;
  Deadline deadline(options.limits.time_limit_seconds);
  EnumeratorState state(q.NumVertices(), data_.NumVertices());
  const LeafMatcher leaf_matcher(data_, cpi, order.leaves);
  Enumerator core(data_, cpi, order.steps, state, deadline);
  Enumerator leaves(data_, cpi, leaf_matcher.steps(), state, deadline);
  const uint64_t cap = options.limits.max_embeddings;
  const bool validate_embeddings = check::DebugValidationEnabled();

  core.Arm();
  EnumerateStatus status = core.Run([&]() {
    CFL_STATS_ONLY(if (leaf_matcher.HasLeaves()) ++core.stats.leaf_calls;)
    leaves.Arm();
    EnumerateStatus leaf_status = leaves.Run([&]() {
      ++result.embeddings;
      if (validate_embeddings) {
        ValidationResult r = ValidateEmbedding(q, data_, state.mapping);
        CFL_CHECK(r.ok) << " — emitted embedding invalid: " << r.error;
      }
      bool keep = options.on_embedding(state.mapping);
      return keep && result.embeddings < cap;
    });
    if (leaf_status == EnumerateStatus::kTimedOut) result.timed_out = true;
    return leaf_status == EnumerateStatus::kDone;
  });
  if (status == EnumerateStatus::kTimedOut) result.timed_out = true;
  // The two stop flags are independent: reached_limit reports the cap was
  // hit, timed_out reports the deadline expired, and a run that does both in
  // the same instant reports both — every engine (serial, parallel, the
  // baselines) classifies identically, which cfl_difftest asserts.
  result.reached_limit = result.embeddings >= cap;

  result.candidates_tried = core.candidates_tried;
  result.candidates_bound = core.candidates_bound;
  result.enumerate_seconds = phase_timer.Lap();
  CFL_STATS_ONLY({
    MatchStats& s = result.stats;
    s.enumerate_seconds = result.enumerate_seconds;
    s.enumeration.Merge(core.stats);
    s.candidates_tried = result.candidates_tried;
    s.candidates_bound = result.candidates_bound;
    s.embeddings_found = result.embeddings;
    s.threads = 1;
    s.root_candidates = cpi.NumCandidates(order.steps.front().u);
    // The one pass claims every root it exhausted. Report the full count
    // only for complete runs; a stop/timeout leaves it unknown, and
    // claiming fewer than root_candidates is always sound.
    s.worker_roots_claimed.assign(
        1, status == EnumerateStatus::kDone ? s.root_candidates : 0);
  })
  result.total_seconds = total_timer.Lap();
  return result;
}

}  // namespace cfl
