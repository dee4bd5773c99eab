#include "graph/graph_builder.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "check/check.h"

namespace cfl {

GraphBuilder::GraphBuilder(uint32_t num_vertices)
    : num_vertices_(num_vertices), labels_(num_vertices, 0) {}

void GraphBuilder::SetLabel(VertexId v, Label l) {
  CFL_DCHECK_LT(v, num_vertices_) << " SetLabel on out-of-range vertex";
  labels_[v] = l;
}

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  if (u >= num_vertices_ || v >= num_vertices_) {
    throw std::out_of_range("GraphBuilder::AddEdge: vertex id out of range");
  }
  if (u == v) {
    if (!allow_self_loops_) {
      throw std::invalid_argument(
          "GraphBuilder::AddEdge: self-loop without AllowSelfLoops()");
    }
    edges_.emplace_back(u, u);
    return;
  }
  edges_.emplace_back(u, v);
  edges_.emplace_back(v, u);
}

void GraphBuilder::SetMultiplicities(std::vector<uint32_t> multiplicity) {
  if (multiplicity.size() != num_vertices_) {
    throw std::invalid_argument(
        "GraphBuilder::SetMultiplicities: size mismatch");
  }
  for (uint32_t m : multiplicity) {
    if (m == 0) {
      throw std::invalid_argument(
          "GraphBuilder::SetMultiplicities: multiplicity must be >= 1");
    }
  }
  multiplicity_ = std::move(multiplicity);
}

Graph GraphBuilder::Build() && {
  Graph g;
  const uint32_t n = num_vertices_;
  g.labels_ = std::move(labels_);
  g.multiplicity_ = std::move(multiplicity_);

  // Deduplicate and sort directed arcs by (source, target label, target id):
  // the counting sort below then lands each vertex's neighbors already in
  // the label-partitioned order `Graph` promises.
  std::sort(edges_.begin(), edges_.end(),
            [&](const std::pair<VertexId, VertexId>& a,
                const std::pair<VertexId, VertexId>& b) {
              if (a.first != b.first) return a.first < b.first;
              if (g.labels_[a.second] != g.labels_[b.second]) {
                return g.labels_[a.second] < g.labels_[b.second];
              }
              return a.second < b.second;
            });
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  g.offsets_.assign(n + 1, 0);
  for (const auto& [u, v] : edges_) g.offsets_[u + 1]++;
  for (uint32_t v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
  g.neighbors_.resize(edges_.size());
  {
    std::vector<uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (const auto& [u, v] : edges_) g.neighbors_[cursor[u]++] = v;
  }

  // Label-run index: one LabelRun per maximal same-label stretch of each
  // adjacency list, offsets relative to the list start.
  g.run_offsets_.assign(n + 1, 0);
  for (uint32_t v = 0; v < n; ++v) {
    std::span<const VertexId> adj = g.Neighbors(v);
    uint64_t count = 0;
    for (uint32_t i = 0; i < adj.size(); ++i) {
      if (i == 0 || g.labels_[adj[i]] != g.labels_[adj[i - 1]]) ++count;
    }
    g.run_offsets_[v + 1] = g.run_offsets_[v] + count;
  }
  g.runs_.reserve(g.run_offsets_[n]);
  for (uint32_t v = 0; v < n; ++v) {
    std::span<const VertexId> adj = g.Neighbors(v);
    for (uint32_t i = 0; i < adj.size(); ++i) {
      if (i == 0 || g.labels_[adj[i]] != g.labels_[adj[i - 1]]) {
        g.runs_.push_back({g.labels_[adj[i]], i});
      }
    }
  }

  // Undirected edge count: non-loop arcs appear twice, loops once.
  uint64_t loops = 0;
  for (const auto& [u, v] : edges_) {
    if (u == v) ++loops;
  }
  g.num_edges_ = (edges_.size() - loops) / 2 + loops;

  g.num_labels_ = 0;
  for (Label l : g.labels_) {
    g.num_labels_ = std::max(g.num_labels_, LabelCountCovering(l));
  }

  auto mult = [&g](VertexId v) {
    return g.multiplicity_.empty() ? 1u : g.multiplicity_[v];
  };

  g.effective_num_vertices_ = 0;
  for (uint32_t v = 0; v < n; ++v) g.effective_num_vertices_ += mult(v);

  // Effective degrees: a neighbor hypervertex w contributes mult(w) distinct
  // expanded neighbors; a self-loop contributes the other mult(v)-1 members.
  // Each NLF count below is part of one of these sums, so bounding the
  // degree bounds them too.
  g.effective_degree_.assign(n, 0);
  for (uint32_t v = 0; v < n; ++v) {
    uint64_t d = 0;
    for (VertexId w : g.Neighbors(v)) d += (w == v) ? mult(v) - 1 : mult(w);
    if (d > std::numeric_limits<uint32_t>::max()) {
      throw std::invalid_argument(
          "vertex " + std::to_string(v) + " has effective degree " +
          std::to_string(d) + " (the largest is " +
          std::to_string(std::numeric_limits<uint32_t>::max()) + ")");
    }
    g.effective_degree_[v] = static_cast<uint32_t>(d);
  }

  g.BuildLabelIndex();

  // NLF runs: per vertex, (label, effective count) sorted by label.
  g.nlf_offsets_.assign(n + 1, 0);
  std::vector<Graph::LabelCount> scratch;
  std::vector<std::vector<Graph::LabelCount>> runs(n);
  for (uint32_t v = 0; v < n; ++v) {
    scratch.clear();
    for (VertexId w : g.Neighbors(v)) {
      uint32_t c = (w == v) ? mult(v) - 1 : mult(w);
      if (c == 0) continue;  // singleton self-loop adds no expanded neighbor
      scratch.push_back({g.labels_[w], c});
    }
    std::sort(scratch.begin(), scratch.end(),
              [](const Graph::LabelCount& a, const Graph::LabelCount& b) {
                return a.label < b.label;
              });
    std::vector<Graph::LabelCount>& out = runs[v];
    for (const Graph::LabelCount& lc : scratch) {
      if (!out.empty() && out.back().label == lc.label) {
        out.back().count += lc.count;
      } else {
        out.push_back(lc);
      }
    }
    g.nlf_offsets_[v + 1] = g.nlf_offsets_[v] + out.size();
  }
  g.nlf_.reserve(g.nlf_offsets_[n]);
  for (uint32_t v = 0; v < n; ++v) {
    g.nlf_.insert(g.nlf_.end(), runs[v].begin(), runs[v].end());
  }

  // Max neighbor degree over effective degrees.
  g.mnd_.assign(n, 0);
  for (uint32_t v = 0; v < n; ++v) {
    uint32_t best = 0;
    for (VertexId w : g.Neighbors(v)) {
      best = std::max(best, g.effective_degree_[w]);
    }
    g.mnd_[v] = best;
  }

  // Hub-probe rows: direct-indexed bitsets for high-degree vertices. Double
  // the threshold until the rows fit the space budget; a threshold that
  // exceeds every degree simply yields no rows.
  if (hub_degree_threshold_ > 0 && n > 0) {
    const uint64_t words_per_row = (static_cast<uint64_t>(n) + 63) / 64;
    uint64_t threshold = hub_degree_threshold_;
    uint64_t num_hubs = 0;
    for (;;) {
      num_hubs = 0;
      for (uint32_t v = 0; v < n; ++v) {
        if (g.StructuralDegree(v) >= threshold) ++num_hubs;
      }
      if (num_hubs * words_per_row * sizeof(uint64_t) <= kHubSpaceBudgetBytes) {
        break;
      }
      threshold *= 2;
    }
    g.hub_degree_threshold_ = static_cast<uint32_t>(
        std::min<uint64_t>(threshold, static_cast<uint32_t>(-1)));
    if (num_hubs > 0) {
      g.hub_words_per_row_ = words_per_row;
      g.hub_index_.assign(n, Graph::kNoHub);
      g.hub_bits_.assign(num_hubs * words_per_row, 0);
      uint32_t row = 0;
      for (uint32_t v = 0; v < n; ++v) {
        if (g.StructuralDegree(v) < threshold) continue;
        g.hub_index_[v] = row;
        uint64_t* bits = g.hub_bits_.data() + row * words_per_row;
        for (VertexId w : g.Neighbors(v)) bits[w >> 6] |= 1ull << (w & 63);
        ++row;
      }
    }
  }

  return g;
}

Graph MakeGraph(const std::vector<Label>& labels,
                const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder b(static_cast<uint32_t>(labels.size()));
  for (uint32_t v = 0; v < labels.size(); ++v) b.SetLabel(v, labels[v]);
  for (const auto& [u, v] : edges) b.AddEdge(u, v);
  return std::move(b).Build();
}

Graph InducedSubgraph(const Graph& g, const std::vector<VertexId>& vertices,
                      std::vector<VertexId>* to_original) {
  std::unordered_map<VertexId, uint32_t> local;
  local.reserve(vertices.size() * 2);
  for (uint32_t i = 0; i < vertices.size(); ++i) local.emplace(vertices[i], i);

  GraphBuilder b(static_cast<uint32_t>(vertices.size()));
  if (g.HasMultiplicities()) b.AllowSelfLoops();
  std::vector<uint32_t> mult;
  for (uint32_t i = 0; i < vertices.size(); ++i) {
    b.SetLabel(i, g.label(vertices[i]));
    if (g.HasMultiplicities()) mult.push_back(g.multiplicity(vertices[i]));
    for (VertexId w : g.Neighbors(vertices[i])) {
      auto it = local.find(w);
      if (it == local.end()) continue;
      if (it->second >= i) b.AddEdge(i, it->second);  // each edge once
    }
  }
  if (g.HasMultiplicities()) b.SetMultiplicities(std::move(mult));
  if (to_original != nullptr) *to_original = vertices;
  return std::move(b).Build();
}

}  // namespace cfl
