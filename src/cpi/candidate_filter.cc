#include "cpi/candidate_filter.h"

#include <algorithm>
#include <span>

namespace cfl {

bool CandVerify(const Graph& q, VertexId u, const Graph& data, VertexId v) {
  // Constant-time MND filter first (Algorithm 6 line 1).
  if (data.MaxNeighborDegree(v) < q.MaxNeighborDegree(u)) return false;
  // NLF filter (lines 2-4): every neighbor-label requirement of u must be
  // met by v. One word test rejects v if it lacks any label u needs, and
  // decides every count-1 need on a label below 63 exactly; only the other
  // needs take an O(log) count lookup.
  const uint64_t need_mask = q.NeighborLabelMask(u);
  if ((data.NeighborLabelMask(v) & need_mask) != need_mask) return false;
  for (const Graph::LabelCount& need : q.NeighborLabelCounts(u)) {
    if (need.count == 1 && need.label < Graph::kMaskOverflowLabel) continue;
    if (data.NeighborLabelCount(v, need.label) < need.count) return false;
  }
  return true;
}

uint64_t CountVerifiedCandidates(const Graph& q, VertexId u,
                                 const Graph& data) {
  const uint32_t min_degree = q.StructuralDegree(u);
  uint64_t count = 0;
  for (VertexId v : data.VerticesWithLabel(q.label(u))) {
    if (data.degree(v) >= min_degree && CandVerify(q, u, data, v)) ++count;
  }
  return count;
}

uint64_t LabelDegreeIndex::CountAtLeast(Label l, uint32_t min_degree) const {
  const std::span<const uint32_t> ds = data_.LabelDegrees(l);
  return static_cast<uint64_t>(
      ds.end() - std::lower_bound(ds.begin(), ds.end(), min_degree));
}

}  // namespace cfl
