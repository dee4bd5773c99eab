#include "dyn/fold.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "check/check.h"
#include "graph/graph_builder.h"

namespace cfl::dyn {

// Friend of Graph: writes the same private fields as GraphBuilder::Build,
// so the two stay reviewable side by side.
class GraphFolder {
 public:
  GraphFolder(const Graph& base, const GraphDelta& delta)
      : base_(base), delta_(delta) {}

  Graph Fold(DirtyLabels* dirty) {
    CFL_CHECK(delta_.sealed()) << " FoldDelta requires a sealed delta";
    CFL_CHECK(&delta_.base() == &base_)
        << " FoldDelta: delta is bound to a different base graph";

    Graph g;
    const uint32_t old_n = base_.NumVertices();
    const uint32_t n = delta_.NewVertices();

    // Labels: base labels plus the batch's appended vertices.
    g.labels_.reserve(n);
    g.labels_.assign(base_.labels_.begin(), base_.labels_.end());
    for (uint32_t i = 0; i < delta_.AddedVertices(); ++i) {
      g.labels_.push_back(delta_.AddedVertexLabel(i));
    }

    // One walk over the sorted touched list (it includes every added
    // vertex): each maximal run of untouched base vertices is block-copied
    // into neighbors_, runs_ and nlf_, its offsets shifted by a constant;
    // each touched vertex takes its merged slices. Every output array is
    // reserved to its final size first, so nothing over-allocates.
    const std::span<const VertexId> touched = delta_.Touched();
    MergeTouched(g.labels_);
    g.offsets_.assign(n + 1, 0);
    g.run_offsets_.assign(n + 1, 0);
    g.nlf_offsets_.assign(n + 1, 0);
    ReserveExact(&g);
    VertexId next = 0;  // the first vertex not yet emitted
    for (size_t i = 0; i < touched.size(); ++i) {
      CopyUntouched(&g, next, std::min(touched[i], old_n));
      EmitTouched(&g, i, touched[i]);
      next = touched[i] + 1;
    }
    CopyUntouched(&g, next, old_n);

    // Plain graphs only (no loops, no multiplicities — delta.cc rejects
    // both), so the edge count is pure arithmetic and effective quantities
    // equal structural ones.
    g.num_edges_ =
        base_.NumEdges() + delta_.AddedEdges() - delta_.RemovedEdges();
    CFL_DCHECK_EQ(g.neighbors_.size(), 2 * g.num_edges_);
    g.num_labels_ = base_.NumLabels();
    for (uint32_t i = 0; i < delta_.AddedVertices(); ++i) {
      g.num_labels_ = std::max(g.num_labels_,
                               LabelCountCovering(delta_.AddedVertexLabel(i)));
    }
    g.effective_num_vertices_ = n;
    g.effective_degree_.resize(n);
    for (uint32_t v = 0; v < n; ++v) {
      g.effective_degree_[v] = g.StructuralDegree(v);
    }

    // Label index and label-degree lists: the builder's linear counting
    // passes (not worth diffing). Tombstoned vertices keep their entry
    // (degree zero), matching a rebuild over the same vertex set.
    g.BuildLabelIndex();

    // Max neighbor degree. Degrees changed only at touched vertices, so
    // mnd can move only for touched vertices and their neighbors; a far
    // endpoint that *lost* its edge is itself touched, so the new
    // neighborhoods of the touched set cover every affected vertex.
    g.mnd_.resize(n);
    if (old_n > 0) {
      std::memcpy(g.mnd_.data(), base_.mnd_.data(), old_n * sizeof(uint32_t));
    }
    std::vector<uint8_t> affected(n, 0);
    for (VertexId t : touched) {
      for (VertexId w : g.Neighbors(t)) affected[w] = kTouchedNeighbor;
    }
    for (VertexId t : touched) affected[t] = kTouched;
    for (uint32_t v = 0; v < n; ++v) {
      if (!affected[v] && v < old_n) continue;
      uint32_t best = 0;
      for (VertexId w : g.Neighbors(v)) {
        best = std::max(best, g.effective_degree_[w]);
      }
      g.mnd_[v] = best;
    }

    if (dirty != nullptr) {
      ComputeDirty(g, affected, dirty);
    }

    FoldHubs(&g, old_n, n);
    return g;
  }

 private:
  // Marks in Fold's `affected` array.
  static constexpr uint8_t kTouchedNeighbor = 1;  // untouched, next to one
  static constexpr uint8_t kTouched = 2;

  // Merges every touched vertex's post-delta adjacency once, and derives
  // its label runs (`labels` are the post-delta labels).
  void MergeTouched(const std::vector<Label>& labels) {
    std::vector<VertexId> merged;
    for (VertexId t : delta_.Touched()) {
      delta_.MergedNeighbors(t, &merged);
      for (uint32_t i = 0; i < merged.size(); ++i) {
        if (i == 0 || labels[merged[i]] != labels[merged[i - 1]]) {
          touched_runs_.push_back({labels[merged[i]], i});
        }
      }
      touched_adj_.insert(touched_adj_.end(), merged.begin(), merged.end());
      touched_adj_offsets_.push_back(touched_adj_.size());
      touched_run_offsets_.push_back(touched_runs_.size());
    }
  }

  // Reserves neighbors_, runs_ and nlf_ to their final sizes: the base
  // arrays less the touched base vertices' slices, plus the merged ones.
  // A plain graph has one NLF entry per label run.
  void ReserveExact(Graph* g) const {
    uint64_t neighbors = base_.neighbors_.size() + touched_adj_.size();
    uint64_t runs = base_.runs_.size() + touched_runs_.size();
    for (VertexId t : delta_.Touched()) {
      if (t >= base_.NumVertices()) break;
      neighbors -= base_.StructuralDegree(t);
      runs -= base_.AdjacencyLabelRuns(t).size();
    }
    g->neighbors_.reserve(neighbors);
    g->runs_.reserve(runs);
    g->nlf_.reserve(runs);
  }

  // Appends the slices of base vertices [begin, end) of one CSR array to
  // `values` and writes their shifted offsets. The shift is unsigned: when
  // earlier touched vertices shrank the output it wraps, and the sums
  // still come out exact.
  template <typename T>
  static void CopySlices(const std::vector<uint64_t>& base_offsets,
                         const std::vector<T>& base_values, VertexId begin,
                         VertexId end, std::vector<uint64_t>* offsets,
                         std::vector<T>* values) {
    const uint64_t shift = values->size() - base_offsets[begin];
    values->insert(values->end(), base_values.begin() + base_offsets[begin],
                   base_values.begin() + base_offsets[end]);
    std::transform(base_offsets.begin() + begin + 1,
                   base_offsets.begin() + end + 1,
                   offsets->begin() + begin + 1,
                   [shift](uint64_t o) { return o + shift; });
  }

  // Block-copies the untouched base vertices [begin, end). Run begins are
  // relative to the list start, so label runs copy verbatim.
  void CopyUntouched(Graph* g, VertexId begin, VertexId end) const {
    if (begin >= end) return;
    CopySlices(base_.offsets_, base_.neighbors_, begin, end, &g->offsets_,
               &g->neighbors_);
    CopySlices(base_.run_offsets_, base_.runs_, begin, end, &g->run_offsets_,
               &g->runs_);
    CopySlices(base_.nlf_offsets_, base_.nlf_, begin, end, &g->nlf_offsets_,
               &g->nlf_);
  }

  // Appends touched vertex `t` (the i-th of Touched()): its merged
  // adjacency and label runs, and NLF entries that are those runs with
  // their lengths (unit counts in a plain graph).
  void EmitTouched(Graph* g, size_t i, VertexId t) const {
    const uint64_t adj_begin = touched_adj_offsets_[i];
    const uint64_t adj_end = touched_adj_offsets_[i + 1];
    g->neighbors_.insert(g->neighbors_.end(), touched_adj_.begin() + adj_begin,
                         touched_adj_.begin() + adj_end);
    const uint64_t runs_end = touched_run_offsets_[i + 1];
    for (uint64_t r = touched_run_offsets_[i]; r < runs_end; ++r) {
      const Graph::LabelRun run = touched_runs_[r];
      const uint32_t next = r + 1 < runs_end
                                ? touched_runs_[r + 1].begin
                                : static_cast<uint32_t>(adj_end - adj_begin);
      g->runs_.push_back(run);
      g->nlf_.push_back({run.label, next - run.begin});
    }
    g->offsets_[t + 1] = g->neighbors_.size();
    g->run_offsets_[t + 1] = g->runs_.size();
    g->nlf_offsets_[t + 1] = g->nlf_.size();
  }

  // Dirty labels: labels of touched vertices, plus labels of untouched
  // vertices whose mnd moved (their candidate memberships can flip under
  // the paper's mnd pruning even though their own adjacency is unchanged).
  void ComputeDirty(const Graph& g, const std::vector<uint8_t>& affected,
                    DirtyLabels* dirty) {
    dirty->labels.clear();
    for (VertexId t : delta_.Touched()) dirty->labels.push_back(g.label(t));
    const uint32_t old_n = base_.NumVertices();
    for (uint32_t v = 0; v < old_n; ++v) {
      if (affected[v] != kTouchedNeighbor) continue;
      if (g.MaxNeighborDegree(v) != base_.MaxNeighborDegree(v)) {
        dirty->labels.push_back(g.label(v));
      }
    }
    std::sort(dirty->labels.begin(), dirty->labels.end());
    dirty->labels.erase(
        std::unique(dirty->labels.begin(), dirty->labels.end()),
        dirty->labels.end());
  }

  // Hub rows: settle the threshold exactly as a from-scratch build would
  // (restart the doubling from the builder default — the degree
  // distribution moved, so the base's settlement is not authoritative),
  // then copy-and-patch base rows where possible.
  void FoldHubs(Graph* g, uint32_t old_n, uint32_t n) {
    if (n == 0) return;
    const uint64_t words_per_row = (static_cast<uint64_t>(n) + 63) / 64;
    uint64_t threshold = GraphBuilder::kDefaultHubDegreeThreshold;
    uint64_t num_hubs = 0;
    for (;;) {
      num_hubs = 0;
      for (uint32_t v = 0; v < n; ++v) {
        if (g->StructuralDegree(v) >= threshold) ++num_hubs;
      }
      if (num_hubs * words_per_row * sizeof(uint64_t) <=
          GraphBuilder::kHubSpaceBudgetBytes) {
        break;
      }
      threshold *= 2;
    }
    g->hub_degree_threshold_ = static_cast<uint32_t>(
        std::min<uint64_t>(threshold, static_cast<uint32_t>(-1)));
    if (num_hubs == 0) return;

    const uint64_t base_words = base_.hub_words_per_row_;
    g->hub_words_per_row_ = words_per_row;
    g->hub_index_.assign(n, Graph::kNoHub);
    g->hub_bits_.assign(num_hubs * words_per_row, 0);
    uint32_t row = 0;
    for (uint32_t v = 0; v < n; ++v) {
      if (g->StructuralDegree(v) < threshold) continue;
      g->hub_index_[v] = row;
      uint64_t* bits = g->hub_bits_.data() + row * words_per_row;
      ++row;
      const uint64_t* base_row = v < old_n ? base_.HubRowWords(v) : nullptr;
      if (base_row == nullptr) {
        // Crossed the threshold this epoch (or the base had no rows):
        // build from the already-folded adjacency.
        for (VertexId w : g->Neighbors(v)) bits[w >> 6] |= 1ull << (w & 63);
        continue;
      }
      // Copy-and-patch: the base row covers ids < old_n; batch-added ids
      // land in the zeroed tail and are covered by the Added() patches.
      std::memcpy(bits, base_row, base_words * sizeof(uint64_t));
      for (VertexId w : delta_.Removed(v)) bits[w >> 6] &= ~(1ull << (w & 63));
      for (VertexId w : delta_.Added(v)) bits[w >> 6] |= 1ull << (w & 63);
    }
  }

  const Graph& base_;
  const GraphDelta& delta_;

  // MergeTouched's output, concatenated in Touched() order: the i-th
  // touched vertex's adjacency is [touched_adj_offsets_[i],
  // touched_adj_offsets_[i + 1]) of touched_adj_, its runs likewise.
  std::vector<VertexId> touched_adj_;
  std::vector<uint64_t> touched_adj_offsets_{0};
  std::vector<Graph::LabelRun> touched_runs_;
  std::vector<uint64_t> touched_run_offsets_{0};
};

Graph FoldDelta(const Graph& base, const GraphDelta& delta,
                DirtyLabels* dirty) {
  return GraphFolder(base, delta).Fold(dirty);
}

}  // namespace cfl::dyn
