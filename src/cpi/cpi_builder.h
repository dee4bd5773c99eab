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

// Reusable builder: scratch arrays are sized to the data graph once and
// reused across queries (CFL-Match processes query sets of 100).
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
  // Candidate-set generation passes; all operate on cand_ (per query vertex).
  void TopDownConstruct(const Graph& q, const BfsTree& tree);
  void BottomUpRefine(const Graph& q, const BfsTree& tree);

  // Counting primitive (Lemma 5.1): filters the data vertices that have a
  // neighbor in cand_[u'] for every u' in `against`, optionally seeding from
  // scratch (generate) or filtering an existing set (refine).
  void GenerateCandidates(const Graph& q, VertexId u,
                          const std::vector<VertexId>& against);
  void RefineCandidates(VertexId u, const std::vector<VertexId>& against);

  // Shared round loop of the two passes above: filters the sorted survivor
  // list surv_ against cand_[against[first..]] one counting pass per round.
  // Every survivor starts at mark 1 in cnt_; round k scans the label run of
  // each vprime and promotes v from mark k to k+1, so after the round exactly
  // the vertices at k+1 survive. A run more than kernels::kGallopRatio times
  // longer than surv_ is galloped through the kernel layer instead of
  // scanned (same marks). Returns cnt_ to all-zero.
  void RefineRounds(Label label, const std::vector<VertexId>& against,
                    size_t first);

  // Position lists of §A.2 by counting: cnt_ holds position+1 for each child
  // candidate while each parent candidate's label run is scanned.
  void BuildAdjacency(const BfsTree& tree, Cpi* cpi);

  friend struct CpiBuilderTestAccess;  // check/test_access.h

  const Graph& data_;
  std::vector<std::vector<VertexId>> cand_;

  // Stats sink for the Build in flight; null when the caller passed none.
  CpiBuildStats* stats_ = nullptr;

  // Counting scratch, |V(G)|-sized, allocated once and all-zero between
  // passes (each pass clears exactly what it set): cnt_ carries the
  // per-vertex round marks of RefineRounds and the position+1 labels of
  // BuildAdjacency; seen_ is the |V(G)|-bit seed-set bitset of
  // GenerateCandidates, emitted in ascending id order.
  std::vector<uint32_t> cnt_;
  std::vector<uint64_t> seen_;

  // Small reused buffers (cleared per query vertex, allocated once).
  std::vector<VertexId> vis_;    // TopDownConstruct: visited query neighbors
  std::vector<VertexId> lower_;  // BottomUpRefine: lower-level neighbors
  std::vector<VertexId> surv_;   // RefineRounds: sorted survivor list
  std::vector<VertexId> isect_;  // RefineRounds: galloped hub-run matches
};

// One-shot convenience wrapper.
Cpi BuildCpi(const Graph& q, const Graph& data, const BfsTree& tree,
             CpiStrategy strategy = CpiStrategy::kRefined);

}  // namespace cfl

#endif  // CFL_CPI_CPI_BUILDER_H_
