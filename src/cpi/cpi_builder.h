// CPI construction (paper Section 5).
//
// Building a *minimum* sound CPI is NP-hard (Lemma 4.1), so the paper builds
// a small sound CPI heuristically in two phases, both O(|E(G)| x |E(q)|):
//
//   * Top-down construction (Algorithm 3): per BFS level, forward candidate
//     generation (intersecting neighbor sets of already-visited query
//     neighbors via the counting trick of Lemma 5.1, then CandVerify),
//     followed by backward pruning within the level using same-level
//     non-tree edges (S-NTEs) in the reverse direction.
//   * Bottom-up refinement (Algorithm 4): prune each u.C against the final
//     candidate sets of u's lower-level neighbors (tree children and
//     cross-level non-tree edges pointing down).
//
// Together the two phases exploit both directions of every query edge
// (paper Table 2).
//
// Deviation (documented in DESIGN.md): the paper interleaves adjacency-list
// construction with Algorithm 3 and prunes the lists in Algorithm 4; we
// build the lists once from the final candidate sets, producing an
// identical CPI with the same complexity.
//
// Strategies (paper Section 6 variants):
//   kNaive   — u.C = all data vertices with u's label (CFL-Match-Naive)
//   kTopDown — Algorithm 3 only (CFL-Match-TD)
//   kRefined — Algorithms 3 + 4 (CFL-Match; the default)

#ifndef CFL_CPI_CPI_BUILDER_H_
#define CFL_CPI_CPI_BUILDER_H_

#include <cstdint>
#include <vector>

#include "cpi/cpi.h"
#include "decomp/bfs_tree.h"
#include "graph/graph.h"
#include "obs/stats.h"

namespace cfl {

enum class CpiStrategy {
  kNaive,
  kTopDown,
  kRefined,
};

// A builder is the data graph plus a handle on the calling thread's
// scratch (below), so constructing one allocates nothing once that scratch
// has grown to the graph, and Build is re-entrant across threads: any
// number of threads may build against one graph at once, each through its
// own builder. A builder must be used on the thread that constructed it.
class CpiBuilder {
 public:
  explicit CpiBuilder(const Graph& data);

  CpiBuilder(const CpiBuilder&) = delete;
  CpiBuilder& operator=(const CpiBuilder&) = delete;

  // Builds the CPI of `q` over the data graph regarding BFS tree `tree`.
  // When `stats` is non-null (and CFL_STATS is on), records per-vertex
  // candidate generation/pruning counts and per-phase build times into it;
  // the accounting identity generated[u] - pruned[u] == |C(u)| holds for
  // every strategy.
  Cpi Build(const Graph& q, const BfsTree& tree,
            CpiStrategy strategy = CpiStrategy::kRefined,
            CpiBuildStats* stats = nullptr);

 private:
  // Candidate-set generation passes; all operate on s_.cand (per query vertex).
  void TopDownConstruct(const Graph& q, const BfsTree& tree);
  void BottomUpRefine(const Graph& q, const BfsTree& tree);

  // Counting primitive (Lemma 5.1): filters the data vertices that have a
  // neighbor in s_.cand[u'] for every u' in `against`, optionally seeding from
  // scratch (generate) or filtering an existing set (refine).
  void GenerateCandidates(const Graph& q, VertexId u,
                          const std::vector<VertexId>& against);
  void RefineCandidates(VertexId u, const std::vector<VertexId>& against);

  // Shared round loop of the two passes above: filters the sorted survivor
  // list s_.surv against s_.cand[against[first..]] one counting pass per round.
  // Every survivor starts at mark 1 in s_.cnt; round k scans the label run of
  // each vprime and promotes v from mark k to k+1, so after the round exactly
  // the vertices at k+1 survive. A run more than kernels::kGallopRatio times
  // longer than s_.surv is galloped through the kernel layer instead of
  // scanned (same marks). Returns s_.cnt to all-zero.
  void RefineRounds(Label label, const std::vector<VertexId>& against,
                    size_t first);

  // Position lists of §A.2 by counting: s_.cnt holds position+1 for each child
  // candidate while each parent candidate's label run is scanned.
  void BuildAdjacency(const BfsTree& tree, Cpi* cpi);

  friend struct CpiBuilderTestAccess;  // check/test_access.h

  // Per-thread scratch, reused by every Build on the thread whatever the
  // data graph. cnt and seen are the counting scratch, sized to |V(G)| of
  // the graph in hand: cnt carries the per-vertex round marks of
  // RefineRounds and the position+1 labels of BuildAdjacency; seen is the
  // |V(G)|-bit seed-set bitset of GenerateCandidates, emitted in ascending
  // id order. Both are all-zero between Builds (each pass clears exactly
  // what it set, and a Build that throws zeroes them), which is what lets
  // FitScratch move them from one graph to another by resizing alone. The
  // rest are per-query buffers, cleared before use.
  struct Scratch {
    std::vector<std::vector<VertexId>> cand;  // candidate set per query vertex
    std::vector<uint32_t> cnt;
    std::vector<uint64_t> seen;
    std::vector<VertexId> vis;    // TopDownConstruct: visited query neighbors
    std::vector<VertexId> lower;  // BottomUpRefine: lower-level neighbors
    std::vector<VertexId> surv;   // RefineRounds: sorted survivor list
    std::vector<VertexId> isect;  // RefineRounds: galloped hub-run matches
  };
  static Scratch& ThreadScratch();

  // Sizes s_.cnt and s_.seen to data_ (still all-zero: resizing drops or
  // appends zeros). Another builder on this thread may have resized them
  // for another graph since this one was made, so every Build calls it.
  void FitScratch();

  const Graph& data_;
  Scratch& s_;  // ThreadScratch() of the constructing thread

  // Stats sink for the Build in flight; null when the caller passed none.
  CpiBuildStats* stats_ = nullptr;
};

// One-shot convenience wrapper.
Cpi BuildCpi(const Graph& q, const Graph& data, const BfsTree& tree,
             CpiStrategy strategy = CpiStrategy::kRefined);

}  // namespace cfl

#endif  // CFL_CPI_CPI_BUILDER_H_
