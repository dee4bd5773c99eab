// Core graph representation for the CFL-Match library.
//
// The paper (Bi et al., SIGMOD 2016) operates on vertex-labeled undirected
// graphs. `Graph` is an immutable CSR (compressed sparse row) structure
// whose layout is tuned for the access patterns of subgraph matching:
//   * label-partitioned adjacency: each vertex's neighbor list is sorted by
//     (label, id), and a per-vertex label-run index makes
//     `NeighborsWithLabel(v, l)` a contiguous span — the CPI builder's
//     counting-intersection loops scan only the one label that can survive
//     instead of the whole neighborhood,
//   * O(1) edge-existence probes against hub vertices (per-hub bitsets,
//     see below), falling back to an O(log d) binary search inside the
//     matching label run otherwise,
//   * O(1) label lookup and candidate seeding via a label index,
//   * O(log) "how many l-labeled vertices have degree >= d" counts for root
//     selection (paper A.6) via per-label degree lists,
//   * a one-word neighbor-label mask per vertex (bit min(l, 63) for each
//     neighbor label l), so CandVerify (paper Algorithm 6) settles a missing
//     label, and every count-1 need on a label below 63, with one AND,
//   * O(log L) neighbor-label-frequency (NLF) lookups for the needs the
//     mask cannot decide,
//   * O(1) max-neighbor-degree lookups (paper Lemma A.1).
//
// Hub probes: vertices whose structural degree reaches the builder's hub
// threshold carry a direct-indexed bitset row over all vertex ids, so the
// enumerator's backward-edge checks against high-degree vertices — the worst
// case for binary search — are a single word load. Rows live in one shared
// arena; the builder only materializes them when the total fits a fixed
// space budget (raising the threshold until it does), so the index is
// bounded regardless of the degree distribution.
//
// `Graph` doubles as the representation of *compressed* data graphs produced
// by the structural-equivalence merging of Ren & Wang [14] (the "-Boost"
// variants): each vertex may carry a multiplicity >= 1 counting how many
// original vertices it stands for, and a vertex whose members form a clique
// carries a self-loop. All degree-like accessors report *effective* values
// (as if the graph were expanded), which is exactly what candidate filters
// must compare against; `StructuralDegree` reports the raw CSR degree.
//
// Instances are created through `GraphBuilder` (graph_builder.h). Once
// built, a Graph is immutable: every accessor is const and writes nothing
// (no mutable members, no lazy caches), so a single instance is safe to
// share by reference across concurrent enumeration workers — the parallel
// matcher (parallel/parallel_match.h) depends on this contract. The
// CFL_IMMUTABLE_AFTER_BUILD marker below makes the contract machine-checked:
// tools/cfl_lint rejects non-const public methods, mutable members, and
// const_cast in marked classes (see check/thread_annotations.h).

#ifndef CFL_GRAPH_GRAPH_H_
#define CFL_GRAPH_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "check/thread_annotations.h"

namespace cfl {

using VertexId = uint32_t;
using Label = uint32_t;

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

// The largest valid label. UINT32_MAX is not a label: a graph's label count
// is max(label) + 1, which must fit its uint32_t.
inline constexpr Label kMaxLabel = static_cast<Label>(-1) - 1;

// The label count covering label `l`, i.e. l + 1, computed in 64 bits so it
// cannot wrap to 0 (which would size every label-indexed array to zero).
// Throws std::invalid_argument for a label above kMaxLabel.
uint32_t LabelCountCovering(Label l);

class GraphBuilder;

namespace dyn {
class GraphFolder;  // dyn/fold.h: folds a GraphDelta into a fresh epoch CSR
}  // namespace dyn

class Graph {
 public:
  CFL_IMMUTABLE_AFTER_BUILD(Graph);

  Graph() = default;

  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  // --- Basic shape ------------------------------------------------------

  uint32_t NumVertices() const { return static_cast<uint32_t>(labels_.size()); }

  // Number of undirected edges (a self-loop counts as one edge).
  uint64_t NumEdges() const { return num_edges_; }

  // Labels are dense in [0, NumLabels()).
  uint32_t NumLabels() const { return num_labels_; }

  Label label(VertexId v) const { return labels_[v]; }

  // --- Adjacency --------------------------------------------------------

  // Neighbors of v, sorted by (label, id): one contiguous ascending-id run
  // per neighbor label, runs ordered by label. If the graph has a self-loop
  // at v (compressed clique class), v itself appears in its label's run.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  // Neighbors of v with label l: a contiguous span of the (label, id)-sorted
  // adjacency, ascending by id. Empty if v has no l-labeled neighbor.
  // O(log |L_N(v)|) via the per-vertex label-run index.
  std::span<const VertexId> NeighborsWithLabel(VertexId v, Label l) const {
    const LabelRun* first = runs_.data() + run_offsets_[v];
    const LabelRun* last = runs_.data() + run_offsets_[v + 1];
    const LabelRun* it = std::lower_bound(
        first, last, l,
        [](const LabelRun& run, Label want) { return run.label < want; });
    if (it == last || it->label != l) return {};
    const uint64_t begin = offsets_[v] + it->begin;
    const uint64_t end =
        (it + 1 != last) ? offsets_[v] + (it + 1)->begin : offsets_[v + 1];
    return {neighbors_.data() + begin, neighbors_.data() + end};
  }

  // Number of entries in v's adjacency list.
  uint32_t StructuralDegree(VertexId v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  // Degree of v in the (conceptually expanded) graph: the number of distinct
  // vertices adjacent to any member of v. Equal to StructuralDegree for
  // plain graphs.
  uint32_t degree(VertexId v) const { return effective_degree_[v]; }

  // True iff (u, v) is an edge. u == v tests for a self-loop. O(1) when
  // either endpoint is a hub; otherwise a binary search inside the matching
  // label run of the lower-degree endpoint.
  bool HasEdge(VertexId u, VertexId v) const {
    if (!hub_bits_.empty()) {
      const uint32_t hu = hub_index_[u];
      if (hu != kNoHub) return HubBit(hu, v);
      const uint32_t hv = hub_index_[v];
      if (hv != kNoHub) return HubBit(hv, u);
    }
    if (StructuralDegree(u) > StructuralDegree(v)) std::swap(u, v);
    std::span<const VertexId> run = NeighborsWithLabel(u, labels_[v]);
    return std::binary_search(run.begin(), run.end(), v);
  }

  // --- Multiplicities (compressed graphs) --------------------------------

  bool HasMultiplicities() const { return !multiplicity_.empty(); }

  // How many original vertices this vertex stands for (1 in plain graphs).
  uint32_t multiplicity(VertexId v) const {
    return multiplicity_.empty() ? 1u : multiplicity_[v];
  }

  // Total vertex count of the conceptually expanded graph.
  uint64_t EffectiveNumVertices() const { return effective_num_vertices_; }

  // --- Label index -------------------------------------------------------

  // All vertices with label l, sorted ascending.
  std::span<const VertexId> VerticesWithLabel(Label l) const {
    if (l >= num_labels_) return {};
    return {label_vertices_.data() + label_offsets_[l],
            label_vertices_.data() + label_offsets_[l + 1]};
  }

  // Number of (expanded) vertices with label l; the paper's label frequency.
  uint64_t LabelFrequency(Label l) const {
    return l < num_labels_ ? label_frequency_[l] : 0;
  }

  // Effective degrees of the vertices with label l, ascending: the same
  // slice as VerticesWithLabel(l), ordered by degree instead of id. Root
  // selection counts "label l, degree >= d" candidates with one binary
  // search here (LabelDegreeIndex, cpi/candidate_filter.h).
  std::span<const uint32_t> LabelDegrees(Label l) const {
    if (l >= num_labels_) return {};
    return {label_degrees_.data() + label_offsets_[l],
            label_degrees_.data() + label_offsets_[l + 1]};
  }

  // --- Filters' support structures ---------------------------------------

  // Number of (expanded) neighbors of v with label l; the paper's d(v, l)
  // used by the NLF filter (Algorithm 6 lines 2-4).
  uint32_t NeighborLabelCount(VertexId v, Label l) const;

  // Labels at or above this share the mask's top bit; a label below it owns
  // its own bit.
  static constexpr Label kMaskOverflowLabel = 63;

  // The bit label l sets in a neighbor-label mask: bit min(l, 63).
  static constexpr uint64_t LabelBit(Label l) {
    return uint64_t{1} << std::min(l, kMaskOverflowLabel);
  }

  // OR of LabelBit(l) over the labels of v's NLF runs (labels with an
  // expanded neighbor count >= 1). A clear bit below 63 proves
  // NeighborLabelCount(v, l) == 0; a set one proves it is >= 1.
  uint64_t NeighborLabelMask(VertexId v) const { return nlm_[v]; }

  // Number of distinct labels among v's neighbors; |L_N(v)|.
  uint32_t NeighborLabelKinds(VertexId v) const {
    return static_cast<uint32_t>(nlf_offsets_[v + 1] - nlf_offsets_[v]);
  }

  // Runs of (label, count) over v's neighbors, sorted by label.
  struct LabelCount {
    Label label;
    uint32_t count;
  };
  std::span<const LabelCount> NeighborLabelCounts(VertexId v) const {
    return {nlf_.data() + nlf_offsets_[v], nlf_.data() + nlf_offsets_[v + 1]};
  }

  // The paper's mnd(v) (Definition A.1): max effective degree over N(v).
  // Zero for isolated vertices.
  uint32_t MaxNeighborDegree(VertexId v) const { return mnd_[v]; }

  // --- Label-run / hub introspection (validators and tests) ---------------

  // One run of same-labeled neighbors; `begin` is the offset of the run's
  // first entry relative to the start of v's adjacency list.
  struct LabelRun {
    Label label;
    uint32_t begin;
  };
  std::span<const LabelRun> AdjacencyLabelRuns(VertexId v) const {
    return {runs_.data() + run_offsets_[v],
            runs_.data() + run_offsets_[v + 1]};
  }

  // True iff the hub-probe index was materialized at build time.
  bool HasHubIndex() const { return !hub_bits_.empty(); }

  // The effective degree threshold the builder settled on (after any budget
  // doubling); 0 if hub probes were disabled.
  uint32_t HubDegreeThreshold() const { return hub_degree_threshold_; }

  bool IsHub(VertexId v) const {
    return !hub_bits_.empty() && hub_index_[v] != kNoHub;
  }

  // Raw bitset row lookup for hub v (IsHub(v) must hold): true iff the row
  // marks w as a neighbor. Validators compare this against the adjacency.
  bool HubRowBit(VertexId v, VertexId w) const {
    return HubBit(hub_index_[v], w);
  }

  // Base of hub v's bitset row — NumVertices() bits in 64-bit words indexed
  // by neighbor id — or nullptr when v is not a hub (or the index is
  // absent). The kernel layer (kernels/kernels.h) resolves rows once per
  // enumeration descent so backward-edge probes skip the hub_index_ lookup.
  const uint64_t* HubRowWords(VertexId v) const {
    if (hub_bits_.empty()) return nullptr;
    const uint32_t row = hub_index_[v];
    if (row == kNoHub) return nullptr;
    return hub_bits_.data() + row * hub_words_per_row_;
  }

  // Approximate heap footprint in bytes; used by the index-size experiment.
  uint64_t MemoryBytes() const;

 private:
  friend class GraphBuilder;
  friend class dyn::GraphFolder;  // writes the same fields as GraphBuilder
  friend struct GraphTestAccess;  // check/test_access.h

  static constexpr uint32_t kNoHub = static_cast<uint32_t>(-1);

  // OR of LabelBit over v's NLF runs, which must be final: how the builder
  // and the fold fill nlm_[v].
  uint64_t NlfLabelMask(VertexId v) const {
    uint64_t mask = 0;
    for (const LabelCount& run : NeighborLabelCounts(v)) {
      mask |= LabelBit(run.label);
    }
    return mask;
  }

  // Fills the label index (label_offsets_, label_vertices_,
  // label_frequency_, label_degrees_) from labels_, num_labels_,
  // multiplicity_ and effective_degree_, which must be final. Linear: no
  // comparison sort. Shared by GraphBuilder::Build and the dyn fold.
  void BuildLabelIndex();

  bool HubBit(uint32_t row, VertexId w) const {
    return (hub_bits_[row * hub_words_per_row_ + (w >> 6)] >>
            (w & 63)) & 1u;
  }

  std::vector<uint64_t> offsets_;   // size n+1
  std::vector<VertexId> neighbors_; // size 2m, sorted by (label, id) per vertex
  std::vector<Label> labels_;       // size n
  uint64_t num_edges_ = 0;
  uint32_t num_labels_ = 0;

  std::vector<uint32_t> multiplicity_;      // empty => all ones
  uint64_t effective_num_vertices_ = 0;

  std::vector<uint32_t> effective_degree_;  // size n

  // Label index.
  std::vector<uint64_t> label_offsets_;   // size num_labels+1
  std::vector<VertexId> label_vertices_;  // size n
  std::vector<uint64_t> label_frequency_; // size num_labels (multiplicities)
  std::vector<uint32_t> label_degrees_;   // size n, sliced by label_offsets_

  // Per-vertex label-run index over `neighbors_`.
  std::vector<uint64_t> run_offsets_;  // size n+1
  std::vector<LabelRun> runs_;

  // Hub-probe index: hub_index_[v] is the bitset row of hub v (kNoHub for
  // non-hubs); rows are hub_words_per_row_ words each, packed in hub_bits_.
  // All empty when no vertex met the threshold within the space budget.
  std::vector<uint32_t> hub_index_;
  std::vector<uint64_t> hub_bits_;
  uint64_t hub_words_per_row_ = 0;
  uint32_t hub_degree_threshold_ = 0;

  // NLF index: per-vertex (label, count) runs.
  std::vector<uint64_t> nlf_offsets_;  // size n+1
  std::vector<LabelCount> nlf_;
  std::vector<uint64_t> nlm_;  // size n, neighbor-label masks

  std::vector<uint32_t> mnd_;  // size n
};

}  // namespace cfl

#endif  // CFL_GRAPH_GRAPH_H_
