// CFL-Match: the paper's algorithm (Algorithm 1) and its ablation variants.
//
// Pipeline per query:
//   1. CFL-Decompose: 2-core peeling -> (V_C, V_T, V_I); root selection from
//      the core-set (A.6); BFS tree construction.
//   2. CPI-Construct: top-down construction + bottom-up refinement
//      (Algorithms 3-4), or the Naive / TD-only strategies for the
//      CFL-Match-Naive / CFL-Match-TD variants.
//   3. Matching order: greedy path ordering from the CPI cost model
//      (Algorithm 2), macro order (V_C, V_T, V_I).
//   4. Core-match + forest-match by CPI-based backtracking (Algorithm 5);
//      leaf-match by label-class/NEC counting (Section 4.4).
//
// `CflMatcher` is nothing but a reference to the data graph: the per-label
// degree lists of root selection are part of the Graph, and the CPI
// builder's scratch is thread-local (cpi/cpi_builder.h). Constructing one
// costs nothing beyond the data-graph check of debug validation, and every
// method is const and re-entrant, so one matcher can prepare and match from
// any number of threads at once. It accepts
// compressed data graphs (vertex multiplicities, the [14] boost): counting
// mode is exact on them; enumeration mode emits compressed embeddings (each
// distinct expansion is counted, not emitted).

#ifndef CFL_MATCH_CFL_MATCH_H_
#define CFL_MATCH_CFL_MATCH_H_

#include <memory>

#include "check/thread_annotations.h"
#include "cpi/candidate_filter.h"
#include "cpi/cpi_builder.h"
#include "decomp/cfl_decomposition.h"
#include "graph/graph.h"
#include "match/embedding.h"
#include "order/matching_order.h"

namespace cfl {

struct MatchOptions {
  MatchLimits limits;

  // Ablations (paper Section 6): kCfl = CFL-Match, kCoreForest = CF-Match,
  // kNone = Match.
  DecompositionMode decomposition = DecompositionMode::kCfl;

  // kRefined = CFL-Match, kTopDown = CFL-Match-TD, kNaive = CFL-Match-Naive.
  CpiStrategy cpi_strategy = CpiStrategy::kRefined;

  // Ordering ablation: Algorithm 2 (default) vs plain BFS path order.
  PathOrderingStrategy ordering = PathOrderingStrategy::kGreedyCost;

  // Optional: invoked per embedding. Forces full enumeration of leaf
  // assignments (instead of the on-the-fly Cartesian-product counting), so
  // it is slower when leaves dominate; leave unset for counting workloads.
  EmbeddingCallback on_embedding;
};

// Everything `Match` computes before enumeration starts: decomposition,
// BFS tree, CPI, and matching order (steps 1-3 of the pipeline above).
// Once built, a PreparedQuery is immutable and reads only const state of
// the data graph, so one instance can be shared by reference across any
// number of concurrent enumeration workers (see parallel/parallel_match.h).
// The marker makes tools/cfl_lint reject mutations sneaking in as methods,
// mutable members, or const_cast (rule `immutable-class`); workers must
// treat the public fields as read-only after Prepare returns.
struct PreparedQuery {
  CFL_IMMUTABLE_AFTER_BUILD(PreparedQuery);

  CflDecomposition decomposition;
  BfsTree tree;
  Cpi cpi;
  MatchingOrder order;  // empty when `no_results` is set

  // Some candidate set is empty: the query has no embeddings and the
  // ordering/enumeration stages were skipped.
  bool no_results = false;

  double build_seconds = 0.0;  // CPI construction time
  double order_seconds = 0.0;  // matching-order computation time

  // Prepare-side half of the execution stats (obs/stats.h): decomposition /
  // CPI / ordering phase timers and per-vertex candidate accounting. Match
  // copies this into MatchResult::stats and adds the enumeration half.
  MatchStats stats;
};

class CflMatcher {
 public:
  explicit CflMatcher(const Graph& data);

  CflMatcher(const CflMatcher&) = delete;
  CflMatcher& operator=(const CflMatcher&) = delete;

  const Graph& data() const { return data_; }

  // Extracts (counts, or enumerates via options.on_embedding) all subgraph
  // isomorphic embeddings of `q` in the data graph, subject to limits.
  MatchResult Match(const Graph& q, const MatchOptions& options = {}) const;

  // Runs the pre-enumeration pipeline only (decomposition, root selection,
  // CPI construction, matching order). `Match` is exactly Prepare followed
  // by enumeration; the parallel matcher calls Prepare once and enumerates
  // the shared result from several workers. A pure function of the data
  // graph and the query: concurrent calls on one matcher are safe and
  // return identical plans. Throws std::invalid_argument for a query it
  // cannot match: one with no vertices, or a disconnected one
  // (BuildBfsTree).
  PreparedQuery Prepare(const Graph& q,
                        const MatchOptions& options = {}) const;

  // Cheap cardinality estimate: the number of embeddings of q's BFS *tree*
  // in the refined CPI (the same quantity Algorithm 2's cost model ranks
  // paths by), computed without any enumeration. Ignores non-tree edges and
  // injectivity, so it upper-approximates sparse queries and is exact for
  // tree queries whose labels are pairwise distinct. Useful as a join-size
  // estimate before committing to a full Match.
  double EstimateEmbeddings(const Graph& q) const;

 private:
  // Root selection (A.6) among q's 2-core, or among all vertices for a
  // tree query. Throws std::invalid_argument for a query with no vertices.
  VertexId ChooseRoot(const Graph& q) const;

  const Graph& data_;
};

}  // namespace cfl

#endif  // CFL_MATCH_CFL_MATCH_H_
