#include "graph/graph.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace cfl {

uint32_t LabelCountCovering(Label l) {
  const uint64_t count = uint64_t{l} + 1;
  if (count > uint64_t{kMaxLabel} + 1) {
    throw std::invalid_argument("label " + std::to_string(l) +
                                " is out of range (the largest label is " +
                                std::to_string(kMaxLabel) + ")");
  }
  return static_cast<uint32_t>(count);
}

uint32_t Graph::NeighborLabelCount(VertexId v, Label l) const {
  std::span<const LabelCount> runs = NeighborLabelCounts(v);
  auto it = std::lower_bound(
      runs.begin(), runs.end(), l,
      [](const LabelCount& run, Label want) { return run.label < want; });
  if (it == runs.end() || it->label != l) return 0;
  return it->count;
}

void Graph::BuildLabelIndex() {
  const uint32_t n = NumVertices();

  // Vertices grouped by label, then id: a counting pass over the labels.
  label_offsets_.assign(num_labels_ + 1, 0);
  label_frequency_.assign(num_labels_, 0);
  for (uint32_t v = 0; v < n; ++v) {
    label_offsets_[labels_[v] + 1]++;
    label_frequency_[labels_[v]] += multiplicity(v);
  }
  for (uint32_t l = 0; l < num_labels_; ++l) {
    label_offsets_[l + 1] += label_offsets_[l];
  }
  label_vertices_.resize(n);
  std::vector<uint64_t> cursor(label_offsets_.begin(),
                               label_offsets_.end() - 1);
  for (uint32_t v = 0; v < n; ++v) label_vertices_[cursor[labels_[v]]++] = v;

  // Per-label degree lists: bucket the vertices by degree, then scatter
  // them by label over the same offsets; the scatter is stable, so each
  // label's run ascends by degree. The buckets are digits of at most
  // bit_width(n) bits (an LSD radix sort), so no count array exceeds 2n
  // entries: a plain graph (degrees < n) takes one pass, and only a
  // compressed graph, whose effective degrees can pass n, takes more.
  uint32_t max_degree = 0;
  for (uint32_t d : effective_degree_) max_degree = std::max(max_degree, d);
  const int degree_bits = std::bit_width(max_degree);
  const int digit_bits =
      std::max(1, std::min(static_cast<int>(std::bit_width(n)), degree_bits));
  const uint64_t mask = (uint64_t{1} << digit_bits) - 1;
  std::vector<VertexId> order(n);
  std::vector<VertexId> next(n);
  std::vector<uint64_t> bucket;
  std::iota(order.begin(), order.end(), VertexId{0});
  for (int shift = 0; shift < degree_bits; shift += digit_bits) {
    const auto digit = [&](VertexId v) {
      return (effective_degree_[v] >> shift) & mask;
    };
    bucket.assign(mask + 2, 0);
    for (VertexId v : order) bucket[digit(v) + 1]++;
    for (uint64_t d = 0; d <= mask; ++d) bucket[d + 1] += bucket[d];
    for (VertexId v : order) next[bucket[digit(v)]++] = v;
    order.swap(next);
  }
  std::copy(label_offsets_.begin(), label_offsets_.end() - 1, cursor.begin());
  label_degrees_.resize(n);
  for (VertexId v : order) {
    label_degrees_[cursor[labels_[v]]++] = effective_degree_[v];
  }
}

uint64_t Graph::MemoryBytes() const {
  uint64_t bytes = 0;
  bytes += offsets_.capacity() * sizeof(uint64_t);
  bytes += neighbors_.capacity() * sizeof(VertexId);
  bytes += labels_.capacity() * sizeof(Label);
  bytes += multiplicity_.capacity() * sizeof(uint32_t);
  bytes += effective_degree_.capacity() * sizeof(uint32_t);
  bytes += label_offsets_.capacity() * sizeof(uint64_t);
  bytes += label_vertices_.capacity() * sizeof(VertexId);
  bytes += label_frequency_.capacity() * sizeof(uint64_t);
  bytes += label_degrees_.capacity() * sizeof(uint32_t);
  bytes += run_offsets_.capacity() * sizeof(uint64_t);
  bytes += runs_.capacity() * sizeof(LabelRun);
  bytes += hub_index_.capacity() * sizeof(uint32_t);
  bytes += hub_bits_.capacity() * sizeof(uint64_t);
  bytes += nlf_offsets_.capacity() * sizeof(uint64_t);
  bytes += nlf_.capacity() * sizeof(LabelCount);
  bytes += nlm_.capacity() * sizeof(uint64_t);
  bytes += mnd_.capacity() * sizeof(uint32_t);
  return bytes;
}

}  // namespace cfl
