#include "dyn/fold.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "check/check.h"
#include "graph/graph_builder.h"

namespace cfl::dyn {

// Friend of Graph: writes the same private fields as GraphBuilder::Build,
// in the same order, so the two stay reviewable side by side.
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

    // CSR + label-run index in one appending pass: untouched vertices
    // block-copy their base slices (run begins are relative to the list
    // start, so runs copy verbatim); touched vertices take the delta merge
    // and re-derive runs from the merged list.
    g.offsets_.assign(n + 1, 0);
    g.run_offsets_.assign(n + 1, 0);
    g.neighbors_.reserve(base_.neighbors_.size() + delta_.AddedEdges() * 2);
    g.runs_.reserve(base_.runs_.size());
    std::vector<VertexId> merged;
    for (uint32_t v = 0; v < n; ++v) {
      if (v < old_n && !delta_.IsTouched(v)) {
        std::span<const VertexId> adj = base_.Neighbors(v);
        g.neighbors_.insert(g.neighbors_.end(), adj.begin(), adj.end());
        std::span<const Graph::LabelRun> runs = base_.AdjacencyLabelRuns(v);
        g.runs_.insert(g.runs_.end(), runs.begin(), runs.end());
      } else {
        delta_.MergedNeighbors(v, &merged);
        for (uint32_t i = 0; i < merged.size(); ++i) {
          if (i == 0 || g.labels_[merged[i]] != g.labels_[merged[i - 1]]) {
            g.runs_.push_back({g.labels_[merged[i]], i});
          }
        }
        g.neighbors_.insert(g.neighbors_.end(), merged.begin(), merged.end());
      }
      g.offsets_[v + 1] = g.neighbors_.size();
      g.run_offsets_[v + 1] = g.runs_.size();
    }

    // Plain graphs only (no loops, no multiplicities — delta.cc rejects
    // both), so the edge count is pure arithmetic and effective quantities
    // equal structural ones.
    g.num_edges_ =
        base_.NumEdges() + delta_.AddedEdges() - delta_.RemovedEdges();
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

    // NLF runs: with unit counts these are the adjacency label runs with
    // run lengths, already computed above. Untouched vertices block-copy
    // the base slice; touched ones derive from the new runs.
    g.nlf_offsets_.assign(n + 1, 0);
    for (uint32_t v = 0; v < n; ++v) {
      if (v < old_n && !delta_.IsTouched(v)) {
        std::span<const Graph::LabelCount> nlf = base_.NeighborLabelCounts(v);
        g.nlf_.insert(g.nlf_.end(), nlf.begin(), nlf.end());
      } else {
        std::span<const Graph::LabelRun> runs = g.AdjacencyLabelRuns(v);
        const uint32_t deg = g.StructuralDegree(v);
        for (uint32_t i = 0; i < runs.size(); ++i) {
          const uint32_t end =
              (i + 1 < runs.size()) ? runs[i + 1].begin : deg;
          g.nlf_.push_back({runs[i].label, end - runs[i].begin});
        }
      }
      g.nlf_offsets_[v + 1] = g.nlf_.size();
    }

    // Max neighbor degree. Degrees changed only at touched vertices, so
    // mnd can move only for touched vertices and their neighbors; a far
    // endpoint that *lost* its edge is itself touched, so the new
    // neighborhoods of the touched set cover every affected vertex.
    g.mnd_.resize(n);
    if (old_n > 0) {
      std::memcpy(g.mnd_.data(), base_.mnd_.data(), old_n * sizeof(uint32_t));
    }
    std::vector<uint8_t> affected(n, 0);
    for (VertexId t : delta_.Touched()) {
      affected[t] = 1;
      for (VertexId w : g.Neighbors(t)) affected[w] = 1;
    }
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
  // Dirty labels: labels of touched vertices, plus labels of untouched
  // vertices whose mnd moved (their candidate memberships can flip under
  // the paper's mnd pruning even though their own adjacency is unchanged).
  void ComputeDirty(const Graph& g, const std::vector<uint8_t>& affected,
                    DirtyLabels* dirty) {
    dirty->labels.clear();
    for (VertexId t : delta_.Touched()) dirty->labels.push_back(g.label(t));
    const uint32_t old_n = base_.NumVertices();
    for (uint32_t v = 0; v < old_n; ++v) {
      if (!affected[v] || delta_.IsTouched(v)) continue;
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
};

Graph FoldDelta(const Graph& base, const GraphDelta& delta,
                DirtyLabels* dirty) {
  return GraphFolder(base, delta).Fold(dirty);
}

}  // namespace cfl::dyn
