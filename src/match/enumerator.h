// CPI-based backtracking enumeration (paper Algorithm 5, Core-Match, in the
// non-recursive form the authors also use).
//
// Walks a step list, drawing the candidates of each query vertex u from the
// CPI adjacency list N_u^{u.p}(M(u.p)) of its BFS-tree parent's current
// mapping; the data graph is probed only to validate backward non-tree
// edges (Theorem 4.1). Forest steps simply have no backward edges, so the
// same loop serves core-match and forest-match — and leaf-match expansion
// too: a leaf is a step whose parent is set and whose backward list is
// empty (LeafMatcher::steps()).
//
// The search is resumable (paper Algorithm 1's remark: each call "returns
// the next embedding"): a visitor returning false pauses the search with
// the embedding's bindings intact, and the next Run resumes right after
// it. Counting, callback expansion and EmbeddingIterator streaming are all
// this one loop with different visitors.
//
// Injectivity is capacity-based: `used[v] < data.multiplicity(v)` — on plain
// graphs this is the ordinary visited check, on compressed data graphs
// (the [14] boost) it lets several query vertices share a hypervertex.

#ifndef CFL_MATCH_ENUMERATOR_H_
#define CFL_MATCH_ENUMERATOR_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "check/check.h"
#include "check/narrow.h"
#include "cpi/cpi.h"
#include "graph/graph.h"
#include "kernels/kernels.h"
#include "match/embedding.h"
#include "order/matching_order.h"

namespace cfl {

// Candidate/adjacency cursors are uint32_t; a size that does not fit would
// silently truncate and skip candidates, so fail loudly instead (a >4B-entry
// candidate set is far beyond anything the CPI can hold today, but the
// enumerator must not be the place that quietly caps it).
inline uint32_t CheckedCandidateCount(size_t size) {
  return CheckedU32(size);
}

enum class EnumerateStatus {
  kDone,      // search space exhausted
  kStopped,   // visitor returned false: paused at that embedding
  kTimedOut,  // deadline expired
};

// The bindings, shared by every enumerator over one query (the core/forest
// pass and the leaf pass extend the same mapping). `mapping[u]` /
// `position[u]` are the data vertex / candidate position assigned to query
// vertex u (valid for all bound vertices when a visitor runs); `used[v]`
// counts how many query vertices currently occupy data vertex v.
struct EnumeratorState {
  Embedding mapping;
  std::vector<uint32_t> position;
  std::vector<uint32_t> used;

  EnumeratorState(uint32_t query_vertices, uint32_t data_vertices)
      : mapping(query_vertices, kInvalidVertex),
        position(query_vertices, 0),
        used(data_vertices, 0) {}
};

// Resumable backtracking over `steps`. Steps must be connected (each step's
// parent bound by an earlier step or by the state it runs over). The
// scratch — per-depth cursors, backward-edge plans, stats prefix tables —
// is sized once here and re-armed by Arm, so a shard that enumerates many
// root ranges allocates nothing per range.
class Enumerator {
 public:
  // All referees must outlive the enumerator. The enumerator starts
  // exhausted; Arm it before the first Run.
  Enumerator(const Graph& data, const Cpi& cpi,
             const std::vector<MatchStep>& steps, EnumeratorState& state,
             Deadline& deadline);

  Enumerator(const Enumerator&) = delete;
  Enumerator& operator=(const Enumerator&) = delete;

  // Restarts the search. When the first step is the root, it ranges over
  // the candidate positions [root_begin, min(root_end, |C(root)|)). The
  // search spaces of disjoint root ranges are disjoint and their union
  // (over a partition of the full range) is exactly the full search space
  // — the partitioning axis of CountRoots (match/count_roots.h). Must not
  // be called while paused (Abort first).
  void Arm(uint32_t root_begin = 0,
           uint32_t root_end = std::numeric_limits<uint32_t>::max());

  // Searches onward, calling visit() once per embedding of the steps (the
  // state holds its bindings). Returns
  //   kDone      exhausted; no bindings held;
  //   kTimedOut  the deadline expired; bindings unwound;
  //   kStopped   visit returned false; paused with that embedding's
  //              bindings intact — Run again resumes right after it,
  //              Abort releases them.
  // An empty step list has exactly one (empty) embedding.
  template <typename Visitor>
  EnumerateStatus Run(Visitor&& visit);

  // Releases the bindings of a paused search and leaves the enumerator
  // exhausted until the next Arm.
  void Abort();

  // Effort counters over every Run since construction (candidates examined
  // / successfully bound) and the detailed stats shard (obs/stats.h).
  // Enumerator-private like the cursors: a pass over shared bindings never
  // disturbs another pass's counters, and parallel shards merge theirs
  // only after the join.
  uint64_t candidates_tried = 0;
  uint64_t candidates_bound = 0;
  EnumStats stats;

 private:
  void Unbind(size_t depth) {
    const VertexId u = steps_[depth].u;
    --state_.used[state_.mapping[u]];
    state_.mapping[u] = kInvalidVertex;
  }

  // Re-resolves the backward-edge plan (kernels/kernels.h) of `depth`
  // against the current mapping: the shallower bindings are fixed for a
  // depth's whole candidate sweep, so the mapped endpoints and their hub
  // bitmap rows are resolved once per descent; per candidate the
  // verification is then a batched bit-test pass with no hub-index or
  // mapping loads. Stays valid across a pause: the shallower bindings are
  // only changed by descending through this depth again.
  void RebuildPlan(size_t depth);

  // Stats builds classify each backward probe as hub-answered or not
  // (HasEdge is O(1) when either endpoint is a hub). Doing that inside the
  // probe loop costs two hub-index reads per probe — measurable against an
  // O(1) bit-test HasEdge — so instead `hub_prefix_[d][i]` holds how many of
  // the first i backward endpoints of steps[d] are currently mapped to
  // hubs, rebuilt exactly where the plan is, and the per-candidate count
  // reduces to a table lookup plus at most one IsHub(v).
  void RebuildHubPrefix(size_t depth);

  const Graph& data_;
  const Cpi& cpi_;
  const std::vector<MatchStep>& steps_;
  EnumeratorState& state_;
  Deadline& deadline_;
  const bool prefetch_;

  std::vector<uint32_t> cursor_;  // per-depth cursor into the source
  std::vector<kernels::BackwardPlan> plans_;
  CFL_STATS_ONLY(std::vector<std::vector<uint32_t>> hub_prefix_;)
  uint32_t root_end_ = 0;
  size_t depth_ = 0;       // deepest bound step while paused
  bool paused_ = false;    // holds the bindings of steps [0, depth_]
  bool exhausted_ = true;  // Run returns kDone until re-armed
};

// ---- inline implementation ---------------------------------------------

inline void Enumerator::RebuildPlan(size_t depth) {
  kernels::BackwardPlan& plan = plans_[depth];
  plan.Reset();
  for (VertexId w : steps_[depth].backward) plan.Add(data_, state_.mapping[w]);
}

inline void Enumerator::RebuildHubPrefix([[maybe_unused]] size_t depth) {
  CFL_STATS_ONLY({
    const std::vector<VertexId>& backward = steps_[depth].backward;
    uint32_t* pre = hub_prefix_[depth].data();
    for (size_t i = 0; i < backward.size(); ++i) {
      pre[i + 1] = pre[i] + (data_.IsHub(state_.mapping[backward[i]]) ? 1 : 0);
    }
  })
}

template <typename Visitor>
EnumerateStatus Enumerator::Run(Visitor&& visit) {
  if (exhausted_) return EnumerateStatus::kDone;
  const size_t depth_count = steps_.size();
  if (depth_count == 0) {
    exhausted_ = true;
    return visit() ? EnumerateStatus::kDone : EnumerateStatus::kStopped;
  }
  // Locals for the hot loop: the visitor may call out of line, after which
  // member loads could not be assumed unchanged.
  const Graph& data = data_;
  const Cpi& cpi = cpi_;
  const MatchStep* const steps = steps_.data();
  EnumeratorState& state = state_;
  Deadline& deadline = deadline_;
  uint32_t* const cursor = cursor_.data();
  const kernels::BackwardPlan* const plans = plans_.data();
  const bool prefetch = prefetch_;

  size_t depth = depth_;
  if (paused_) {
    // Resume: release the visited embedding's deepest binding and retry
    // the next candidate at that depth.
    paused_ = false;
    Unbind(depth);
  }
  while (true) {
    if (deadline.ExpiredCoarse()) {
      CFL_STATS_ONLY(stats.max_depth =
                         std::max<uint64_t>(stats.max_depth, depth);)
      // Unwind bindings so `state.used` is clean for the caller.
      for (size_t d = 0; d < depth; ++d) Unbind(d);
      exhausted_ = true;
      return EnumerateStatus::kTimedOut;
    }

    const MatchStep& step = steps[depth];
    // Candidate source: root iterates its whole candidate set; everyone
    // else follows the CPI adjacency list under the parent's mapping.
    std::span<const uint32_t> adjacent;
    uint32_t root_count = 0;
    const bool is_root = (depth == 0 && step.parent == kInvalidVertex);
    if (is_root) {
      root_count = std::min(
          CheckedCandidateCount(cpi.Candidates(step.u).size()), root_end_);
    } else {
      adjacent = cpi.AdjacentPositions(step.u, state.position[step.parent]);
    }
    const uint32_t limit =
        is_root ? root_count : CheckedCandidateCount(adjacent.size());
    const kernels::BackwardPlan& plan = plans[depth];

    bool bound = false;
    while (cursor[depth] < limit) {
      uint32_t pos = is_root ? cursor[depth] : adjacent[cursor[depth]];
      ++cursor[depth];
      ++candidates_tried;
      // Touch the next candidate-arena entry while this one is verified;
      // the lookahead hides the dependent load the next iteration starts
      // with. Bounded to one position — deeper lookahead would prefetch
      // past rejects.
      if (prefetch && cursor[depth] < limit) {
        cpi.PrefetchCandidate(
            step.u, is_root ? cursor[depth] : adjacent[cursor[depth]]);
      }
      VertexId v = cpi.CandidateAt(step.u, pos);
      if (state.used[v] >= data.multiplicity(v)) {
        CFL_STATS_ONLY(++stats.conflict_rejects;)
        continue;
      }
      // Backward non-tree edges (Theorem 4.1), batched against the plan.
      // The first-fail index reproduces the scalar loop's probe count
      // exactly: fail index + 1 probes on a reject, all of them on a pass.
      const uint32_t nback = CheckedU32(plan.edges.size());
      const uint32_t fail = kernels::VerifyBackwardEdges(data, plan, v);
      const bool ok = fail == nback;
      CFL_STATS_ONLY(const uint32_t probed = ok ? nback : fail + 1;)
      // Probe accounting once per candidate: the prefix table counts the
      // probed endpoints mapped to hubs; a hub v makes the rest of the
      // probes hub-answered too. IsHub(v) is consulted only when the prefix
      // alone doesn't already prove every probe hub-answered.
      CFL_STATS_ONLY(if (probed != 0) {
        stats.backward_probes += probed;
        uint32_t hubbed = hub_prefix_[depth][probed];
        if (hubbed != probed && data.IsHub(v)) hubbed = probed;
        stats.hub_probes += hubbed;
      })
      if (!ok) {
        CFL_STATS_ONLY(++stats.backward_rejects;)
        continue;
      }
      state.mapping[step.u] = v;
      state.position[step.u] = pos;
      ++state.used[v];
      ++candidates_bound;
      bound = true;
      break;
    }

    if (!bound) {
      if (depth == 0) {
        exhausted_ = true;
        return EnumerateStatus::kDone;
      }
      // The deepest bound prefix is maintained here (and at the visit /
      // timeout sites) instead of on every successful bind: every descent
      // that reached depth d stops by discarding at d, visiting, or timing
      // out, so recording at the stops sees the same maximum for a fraction
      // of the bind path's cost.
      CFL_STATS_ONLY(++stats.partials_discarded;
                     stats.max_depth =
                         std::max<uint64_t>(stats.max_depth, depth);)
      --depth;
      Unbind(depth);
      continue;
    }

    if (depth + 1 == depth_count) {
      CFL_STATS_ONLY(++stats.core_visits; stats.max_depth = depth_count;)
      if (!visit()) {
        depth_ = depth;
        paused_ = true;
        return EnumerateStatus::kStopped;
      }
      Unbind(depth);  // retry next candidate at this depth
      continue;
    }

    ++depth;
    cursor[depth] = 0;
    RebuildPlan(depth);
    CFL_STATS_ONLY(RebuildHubPrefix(depth);)
    // Touch the adjacency-offset pair the next iteration dereferences for
    // the freshly entered step while the plan/prefix rebuilds retire.
    if (prefetch && steps[depth].parent != kInvalidVertex) {
      cpi.PrefetchAdjacency(steps[depth].u, state.position[steps[depth].parent]);
    }
  }
}

}  // namespace cfl

#endif  // CFL_MATCH_ENUMERATOR_H_
