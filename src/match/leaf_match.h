// Leaf-Match (paper Section 4.4).
//
// Given an embedding of V_C (core) and V_T (forest), the remaining leaf
// vertices V_I are degree-one, so each leaf u's candidates are simply
// C(u) = N_u^{u.p}(M(u.p)) minus already-used data vertices. Leaves with
// different labels can never conflict (Lemma 4.3), so V_I splits into label
// classes whose embedding sets combine by Cartesian product — which
// CFL-Match never materializes: class counts are multiplied ("compress the
// mappings of leaf vertices on the fly").
//
// Within a label class, leaves sharing a parent form NEC groups with
// identical candidate sets; a group of size k maps to a *combination* of k
// candidates, contributing ordered assignments by a multinomial/falling-
// factorial expansion (exactly the paper's combination-then-permute
// counting, generalized to capacity > 1 for compressed data graphs).
//
// Two modes:
//   * CountEmbeddings: exact number of leaf completions (saturating).
//   * steps(): the leaves as enumeration steps (parent set, no backward
//     edges), for expanding individual leaf assignments on the one
//     backtracking core (match/enumerator.h).

#ifndef CFL_MATCH_LEAF_MATCH_H_
#define CFL_MATCH_LEAF_MATCH_H_

#include <cstdint>
#include <vector>

#include "cpi/cpi.h"
#include "graph/graph.h"
#include "match/embedding.h"
#include "match/enumerator.h"

namespace cfl {

class LeafMatcher {
 public:
  // `leaves` = V_I of the query. Grouping (label classes, NEC groups) is
  // precomputed once per query; per-embedding calls only read the CPI.
  // A leaf's label is read off its CPI candidates (every candidate of u
  // carries u's label), so a prepared plan suffices — the streaming
  // iterator has no query graph. Every leaf's candidate set must be
  // non-empty, i.e. the plan is not `no_results`.
  LeafMatcher(const Graph& data, const Cpi& cpi,
              const std::vector<VertexId>& leaves);

  bool HasLeaves() const { return !steps_.empty(); }

  // The leaves as class-major enumeration steps (each leaf's parent is
  // bound by the core/forest embedding; leaves have no backward edges), so
  // conflicts cluster early when an Enumerator expands them.
  const std::vector<MatchStep>& steps() const { return steps_; }

  // Exact number of ways to extend the partial embedding in `state` (which
  // must cover every leaf parent) to all of V_I. Saturates at kNoLimit.
  // Accounts for remaining capacity on compressed data graphs.
  uint64_t CountEmbeddings(const Graph& data, const EnumeratorState& state) const;

 private:
  // NEC group: leaves with identical (label, parent) — identical candidates.
  struct NecGroup {
    std::vector<VertexId> members;
    VertexId parent = kInvalidVertex;
  };
  // A label class: all NEC groups of one label; classes are independent.
  struct LabelClass {
    Label label = 0;
    std::vector<NecGroup> groups;
  };

  // Collects the available candidates of `group` under `state` into `out`
  // (data vertices with remaining capacity, paired with that capacity).
  void AvailableCandidates(const Graph& data, const EnumeratorState& state,
                           const NecGroup& group,
                           std::vector<std::pair<VertexId, uint32_t>>* out) const;

  uint64_t CountClass(const Graph& data, const EnumeratorState& state,
                      const LabelClass& cls) const;

  const Cpi* cpi_;
  std::vector<LabelClass> classes_;
  std::vector<MatchStep> steps_;  // class-major, see steps()

  // Reused per-call scratch. CountEmbeddings runs once per partial core+
  // forest embedding — the hot loop of the whole matcher — so it must not
  // allocate. LeafMatcher is consequently not thread-safe; every counting
  // shard (match/count_roots.h) copies its own (copying is cheap: the
  // grouping vectors plus this scratch), all pointing at the one shared
  // immutable CPI.
  // cfl-lint: allow(mutable-member) per-call scratch; never shared — each counting shard owns a private LeafMatcher copy (DESIGN.md §7)
  mutable std::vector<std::vector<std::pair<VertexId, uint32_t>>> avail_;
};

}  // namespace cfl

#endif  // CFL_MATCH_LEAF_MATCH_H_
