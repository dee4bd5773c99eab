// Tests for the dynamic-graph epoch layer: the GraphDelta overlay's merged
// adjacency against a std::set model, FoldDelta content equality with a
// from-scratch rebuild (random batches, the block copy's boundary batches,
// and byte-exact sizing over chains of folds, one of them through hub
// rows), snapshot isolation across commits, snapshot lifetime (a held
// snapshot outlives later commits and the DynamicGraph itself), the
// live-epoch gauges, a reader racing a fold that runs off the graph lock,
// and concurrent writers serialized by the writer lock (the tsan lane's
// main prey).

#include "dyn/dynamic_graph.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/validate.h"
#include "dyn/delta.h"
#include "dyn/fold.h"
#include "gen/rng.h"
#include "gen/synthetic.h"
#include "graph/graph_builder.h"

namespace cfl {

// The DynamicGraph seam these tests use (a friend of DynamicGraph).
struct DynamicGraphTestAccess {
  // Runs `hook` in every later Apply, on the writer's thread, after the
  // fold and before the install. Set it before any Apply.
  static void SetAfterFoldHook(dyn::DynamicGraph& dg,
                               std::function<void()> hook) {
    dg.after_fold_for_test_ = std::move(hook);
  }
  // True iff no thread holds the graph mutex now. The probe runs on a
  // thread of its own, so the caller may hold the mutex.
  static bool MutexFree(dyn::DynamicGraph& dg) {
    bool free = false;
    std::thread probe([&] {
      free = dg.mu_.TryLock();
      if (free) dg.mu_.Unlock();
    });
    probe.join();
    return free;
  }
  // True iff some thread holds the writer mutex now. Probed like
  // MutexFree, so the caller may be the holder.
  static bool WriterMutexHeld(dyn::DynamicGraph& dg) {
    bool free = false;
    std::thread probe([&] {
      free = dg.writer_mu_.TryLock();
      if (free) dg.writer_mu_.Unlock();
    });
    probe.join();
    return !free;
  }
};

namespace {

using dyn::DirtyLabels;
using dyn::DynamicGraph;
using dyn::FoldDelta;
using dyn::GraphDelta;

Graph SmallBase(uint64_t seed, uint32_t n = 60) {
  SyntheticOptions options;
  options.num_vertices = n;
  options.average_degree = 4.0;
  options.num_labels = 4;
  options.seed = seed;
  return MakeSynthetic(options);
}

// Obviously-correct mirror of base graph + mutations. Tombstoned vertices
// keep their label (matching the fold's semantics) but lose all edges.
struct Model {
  std::vector<Label> labels;
  std::vector<bool> alive;
  std::vector<std::set<VertexId>> adj;
  std::vector<std::pair<VertexId, VertexId>> edge_list;  // u < v, sampling

  explicit Model(const Graph& g) {
    const uint32_t n = g.NumVertices();
    labels.resize(n);
    alive.assign(n, true);
    adj.resize(n);
    for (VertexId v = 0; v < n; ++v) {
      labels[v] = g.label(v);
      for (VertexId w : g.Neighbors(v)) {
        adj[v].insert(w);
        if (w > v) edge_list.emplace_back(v, w);
      }
    }
  }

  VertexId AddVertex(Label l) {
    labels.push_back(l);
    alive.push_back(true);
    adj.emplace_back();
    return static_cast<VertexId>(labels.size() - 1);
  }

  void RemoveVertex(VertexId v) {
    for (VertexId w : adj[v]) adj[w].erase(v);
    adj[v].clear();
    alive[v] = false;
    std::erase_if(edge_list, [v](const std::pair<VertexId, VertexId>& e) {
      return e.first == v || e.second == v;
    });
  }

  void AddEdge(VertexId u, VertexId v) {
    adj[u].insert(v);
    adj[v].insert(u);
    edge_list.emplace_back(std::min(u, v), std::max(u, v));
  }

  void RemoveEdge(VertexId u, VertexId v) {
    adj[u].erase(v);
    adj[v].erase(u);
    std::pair<VertexId, VertexId> key{std::min(u, v), std::max(u, v)};
    std::erase(edge_list, key);
  }

  bool HasEdge(VertexId u, VertexId v) const { return adj[u].count(v) > 0; }

  Graph Rebuild() const {
    std::vector<std::pair<VertexId, VertexId>> edges(edge_list);
    std::sort(edges.begin(), edges.end());
    return MakeGraph(labels, edges);
  }

  // v's post-delta adjacency in the graph's (label, id) order.
  std::vector<VertexId> SortedNeighbors(VertexId v) const {
    std::vector<VertexId> out(adj[v].begin(), adj[v].end());
    std::sort(out.begin(), out.end(), [&](VertexId a, VertexId b) {
      if (labels[a] != labels[b]) return labels[a] < labels[b];
      return a < b;
    });
    return out;
  }
};

// Applies ~`ops` random mutations to both the delta and the model. Every
// op the model accepts the delta must accept too.
void Mutate(Rng& rng, uint32_t ops, GraphDelta* delta, Model* model) {
  for (uint32_t i = 0; i < ops; ++i) {
    const uint32_t n = static_cast<uint32_t>(model->labels.size());
    switch (rng.Below(8)) {
      case 0: {  // add vertex
        Label l = static_cast<Label>(rng.Below(5));
        VertexId id = kInvalidVertex;
        ASSERT_TRUE(delta->AddVertex(l, &id)) << delta->error();
        ASSERT_EQ(id, model->AddVertex(l));
        break;
      }
      case 1: {  // remove a random alive base vertex (not batch-added)
        VertexId v = rng.Below(n);
        if (v >= delta->BaseVertices() || !model->alive[v]) break;
        ASSERT_TRUE(delta->RemoveVertex(v)) << delta->error();
        model->RemoveVertex(v);
        break;
      }
      case 2:
      case 3: {  // remove a random existing edge
        if (model->edge_list.empty()) break;
        auto [u, v] =
            model->edge_list[rng.Below(model->edge_list.size())];
        ASSERT_TRUE(delta->RemoveEdge(u, v)) << delta->error();
        model->RemoveEdge(u, v);
        break;
      }
      default: {  // add a random missing edge between alive vertices
        VertexId u = rng.Below(n);
        VertexId v = rng.Below(n);
        if (u == v || !model->alive[u] || !model->alive[v]) break;
        if (model->HasEdge(u, v)) break;
        ASSERT_TRUE(delta->AddEdge(u, v)) << delta->error();
        model->AddEdge(u, v);
        break;
      }
    }
  }
}

// ---- overlay adjacency vs the set model ---------------------------------

TEST(GraphDeltaTest, MergedNeighborsMatchSetModel) {
  for (uint64_t trial = 0; trial < 10; ++trial) {
    Graph base = SmallBase(100 + trial);
    Model model(base);
    GraphDelta delta(base);
    Rng rng(900 + trial);
    Mutate(rng, 30, &delta, &model);
    delta.Seal();

    const uint32_t n = static_cast<uint32_t>(model.labels.size());
    ASSERT_EQ(delta.NewVertices(), n);
    std::vector<VertexId> merged;
    for (VertexId v = 0; v < n; ++v) {
      delta.MergedNeighbors(v, &merged);
      std::vector<VertexId> expected =
          model.alive[v] ? model.SortedNeighbors(v) : std::vector<VertexId>{};
      ASSERT_EQ(merged, expected) << "vertex " << v << " trial " << trial;

      // Per-label slices agree too (including labels v has no edges to).
      for (Label l = 0; l < 6; ++l) {
        std::vector<VertexId> by_label;
        if (model.alive[v]) {
          for (VertexId w : model.adj[v]) {
            if (model.labels[w] == l) by_label.push_back(w);
          }
          std::sort(by_label.begin(), by_label.end());
        }
        std::vector<VertexId> got;
        delta.MergedNeighborsWithLabel(v, l, &got);
        ASSERT_EQ(got, by_label) << "vertex " << v << " label " << l;
      }
    }
  }
}

TEST(GraphDeltaTest, RejectsInvalidOps) {
  Graph base = MakeGraph({0, 1, 0}, {{0, 1}, {1, 2}});
  GraphDelta delta(base);

  EXPECT_FALSE(delta.AddEdge(0, 0));  // self-loop
  EXPECT_FALSE(delta.AddEdge(0, 1));  // already present
  EXPECT_FALSE(delta.RemoveEdge(0, 2));  // not present
  EXPECT_FALSE(delta.AddEdge(0, 99));  // out of range

  ASSERT_TRUE(delta.RemoveVertex(1));
  EXPECT_FALSE(delta.AddEdge(0, 1));     // dead endpoint
  EXPECT_FALSE(delta.RemoveVertex(1));   // already tombstoned
  EXPECT_FALSE(delta.RemoveEdge(1, 2));  // vanished with the vertex

  // UINT32_MAX is not a label (it would wrap the fold's label count to 0),
  // and a rejected add consumes no id.
  EXPECT_FALSE(delta.AddVertex(static_cast<Label>(-1)));
  EXPECT_NE(delta.error().find("label"), std::string::npos) << delta.error();

  VertexId id = kInvalidVertex;
  ASSERT_TRUE(delta.AddVertex(7, &id));
  EXPECT_EQ(id, 3u);  // new ids start at base n
  EXPECT_FALSE(delta.RemoveVertex(id));  // same-batch removal rejected
  EXPECT_NE(delta.error(), "");
}

// ---- fold vs from-scratch rebuild ---------------------------------------

// Full content comparison through the public Graph API: adjacency, label
// index, label-degree lists, NLF, mnd, degrees, and the hub index word by
// word.
void ExpectGraphsEqual(const Graph& folded, const Graph& rebuilt) {
  ASSERT_EQ(folded.NumVertices(), rebuilt.NumVertices());
  ASSERT_EQ(folded.NumEdges(), rebuilt.NumEdges());
  ASSERT_EQ(folded.NumLabels(), rebuilt.NumLabels());
  ASSERT_EQ(folded.HasHubIndex(), rebuilt.HasHubIndex());
  ASSERT_EQ(folded.HubDegreeThreshold(), rebuilt.HubDegreeThreshold());
  for (VertexId v = 0; v < folded.NumVertices(); ++v) {
    ASSERT_EQ(folded.label(v), rebuilt.label(v)) << v;
    ASSERT_EQ(folded.degree(v), rebuilt.degree(v)) << v;
    ASSERT_EQ(folded.MaxNeighborDegree(v), rebuilt.MaxNeighborDegree(v)) << v;
    ASSERT_EQ(folded.IsHub(v), rebuilt.IsHub(v)) << v;
    if (folded.IsHub(v)) {
      const uint64_t* fw = folded.HubRowWords(v);
      const uint64_t* rw = rebuilt.HubRowWords(v);
      for (uint32_t i = 0; i < (folded.NumVertices() + 63) / 64; ++i) {
        ASSERT_EQ(fw[i], rw[i]) << "hub " << v << " word " << i;
      }
    }
    std::span<const VertexId> fn = folded.Neighbors(v);
    std::span<const VertexId> rn = rebuilt.Neighbors(v);
    ASSERT_TRUE(std::equal(fn.begin(), fn.end(), rn.begin(), rn.end())) << v;
    std::span<const Graph::LabelCount> fc = folded.NeighborLabelCounts(v);
    std::span<const Graph::LabelCount> rc = rebuilt.NeighborLabelCounts(v);
    ASSERT_EQ(fc.size(), rc.size()) << v;
    for (size_t i = 0; i < fc.size(); ++i) {
      ASSERT_EQ(fc[i].label, rc[i].label) << v;
      ASSERT_EQ(fc[i].count, rc[i].count) << v;
    }
  }
  for (Label l = 0; l < folded.NumLabels(); ++l) {
    std::span<const VertexId> fv = folded.VerticesWithLabel(l);
    std::span<const VertexId> rv = rebuilt.VerticesWithLabel(l);
    ASSERT_TRUE(std::equal(fv.begin(), fv.end(), rv.begin(), rv.end())) << l;
    ASSERT_EQ(folded.LabelFrequency(l), rebuilt.LabelFrequency(l)) << l;
    std::span<const uint32_t> fd = folded.LabelDegrees(l);
    std::span<const uint32_t> rd = rebuilt.LabelDegrees(l);
    ASSERT_TRUE(std::equal(fd.begin(), fd.end(), rd.begin(), rd.end())) << l;
  }
}

TEST(FoldDeltaTest, FoldedGraphMatchesFromScratchRebuild) {
  for (uint64_t trial = 0; trial < 10; ++trial) {
    Graph base = SmallBase(200 + trial);
    Model model(base);
    GraphDelta delta(base);
    Rng rng(1700 + trial);
    Mutate(rng, 25, &delta, &model);
    delta.Seal();

    DirtyLabels dirty;
    Graph folded = FoldDelta(base, delta, &dirty);
    ValidationResult valid = ValidateGraph(folded);
    ASSERT_TRUE(valid.ok) << valid.error;
    ExpectGraphsEqual(folded, model.Rebuild());

    // Dirty-label oracle: any base vertex whose NLF or mnd moved must have
    // its label in the dirty set — that is exactly the soundness condition
    // the serve layer's plan invalidation relies on.
    for (VertexId v = 0; v < base.NumVertices(); ++v) {
      std::span<const Graph::LabelCount> before = base.NeighborLabelCounts(v);
      std::span<const Graph::LabelCount> after = folded.NeighborLabelCounts(v);
      bool nlf_moved =
          !std::equal(before.begin(), before.end(), after.begin(),
                      after.end(), [](const Graph::LabelCount& a, const Graph::LabelCount& b) {
                        return a.label == b.label && a.count == b.count;
                      });
      if (nlf_moved ||
          base.MaxNeighborDegree(v) != folded.MaxNeighborDegree(v)) {
        EXPECT_TRUE(dirty.Contains(base.label(v)))
            << "vertex " << v << " changed but label " << base.label(v)
            << " is not dirty (trial " << trial << ")";
      }
    }
    for (VertexId v : delta.Touched()) {
      EXPECT_TRUE(dirty.Contains(delta.LabelOf(v)));
    }
  }
}

TEST(FoldDeltaTest, TombstonesKeepLabelAndLoseEdges) {
  Graph base = MakeGraph({0, 1, 0, 1}, {{0, 1}, {1, 2}, {2, 3}});
  GraphDelta delta(base);
  ASSERT_TRUE(delta.RemoveVertex(1));
  delta.Seal();
  Graph folded = FoldDelta(base, delta);
  ASSERT_TRUE(ValidateGraph(folded).ok);
  EXPECT_EQ(folded.NumVertices(), 4u);
  EXPECT_EQ(folded.label(1), 1u);
  EXPECT_EQ(folded.StructuralDegree(1), 0u);
  EXPECT_EQ(folded.NumEdges(), 1u);  // only (2,3) survives
  // The label index still lists the tombstone (content-equal with a
  // rebuild over the same vertex set).
  std::span<const VertexId> l1 = folded.VerticesWithLabel(1);
  EXPECT_TRUE(std::find(l1.begin(), l1.end(), 1u) != l1.end());
}

// ---- the block copy's boundaries ----------------------------------------
//
// The fold block-copies each maximal run of untouched base vertices and
// merges the touched ones. Each batch below puts a touched vertex where a
// run is empty or ends: first, last, adjacent, everywhere, or nowhere in
// the base.

// Folds the batch `ops` records (on both the delta and the model) over
// `base`. The fold must validate, equal the model's from-scratch rebuild
// in content and in allocated bytes, and have touched `touched`.
template <typename Ops>
void ExpectFoldMatchesRebuild(const Graph& base, Ops ops,
                              const std::vector<VertexId>& touched) {
  Model model(base);
  GraphDelta delta(base);
  ops(&delta, &model);
  delta.Seal();
  EXPECT_EQ(std::vector<VertexId>(delta.Touched().begin(),
                                  delta.Touched().end()),
            touched);
  Graph folded = FoldDelta(base, delta);
  ValidationResult valid = ValidateGraph(folded);
  ASSERT_TRUE(valid.ok) << valid.error;
  Graph rebuilt = model.Rebuild();
  ExpectGraphsEqual(folded, rebuilt);
  EXPECT_EQ(folded.MemoryBytes(), rebuilt.MemoryBytes());
}

void AddEdge(GraphDelta* delta, Model* model, VertexId u, VertexId v) {
  ASSERT_TRUE(delta->AddEdge(u, v)) << delta->error();
  model->AddEdge(u, v);
}

void RemoveEdge(GraphDelta* delta, Model* model, VertexId u, VertexId v) {
  ASSERT_TRUE(delta->RemoveEdge(u, v)) << delta->error();
  model->RemoveEdge(u, v);
}

// Labels and edges of a path 0 - 1 - ... - (n-1) with an isolated vertex
// at `isolated`, so a tombstone there touches exactly that vertex.
Graph PathWithIsolatedVertex(uint32_t n, VertexId isolated) {
  std::vector<Label> labels(n);
  std::vector<std::pair<VertexId, VertexId>> edges;
  VertexId prev = kInvalidVertex;
  for (VertexId v = 0; v < n; ++v) {
    labels[v] = v % 3;
    if (v == isolated) continue;
    if (prev != kInvalidVertex) edges.emplace_back(prev, v);
    prev = v;
  }
  return MakeGraph(labels, edges);
}

TEST(FoldDeltaTest, BatchTouchingOnlyTheFirstVertex) {
  Graph base = PathWithIsolatedVertex(12, 0);
  ExpectFoldMatchesRebuild(
      base,
      [](GraphDelta* delta, Model* model) {
        ASSERT_TRUE(delta->RemoveVertex(0));
        model->RemoveVertex(0);
      },
      {0});
  // With an adjacency change: vertex 0 gains its first edge.
  ExpectFoldMatchesRebuild(
      base,
      [](GraphDelta* delta, Model* model) { AddEdge(delta, model, 0, 1); },
      {0, 1});
}

TEST(FoldDeltaTest, BatchTouchingOnlyTheLastVertex) {
  Graph base = PathWithIsolatedVertex(12, 11);
  ExpectFoldMatchesRebuild(
      base,
      [](GraphDelta* delta, Model* model) {
        ASSERT_TRUE(delta->RemoveVertex(11));
        model->RemoveVertex(11);
      },
      {11});
  ExpectFoldMatchesRebuild(
      base,
      [](GraphDelta* delta, Model* model) { AddEdge(delta, model, 10, 11); },
      {10, 11});
}

TEST(FoldDeltaTest, BatchTouchingAdjacentIds) {
  Graph base = SmallBase(300);
  ExpectFoldMatchesRebuild(
      base,
      [](GraphDelta* delta, Model* model) {
        // Toggle the edges of the chain 20 - 21 - 22 - 23 and of 40 - 41.
        for (auto [u, v] : {std::pair<VertexId, VertexId>{20, 21},
                            {21, 22}, {22, 23}, {40, 41}}) {
          if (model->HasEdge(u, v)) {
            RemoveEdge(delta, model, u, v);
          } else {
            AddEdge(delta, model, u, v);
          }
        }
      },
      {20, 21, 22, 23, 40, 41});
}

TEST(FoldDeltaTest, BatchTouchingEveryVertex) {
  Graph base = SmallBase(301);
  const uint32_t n = base.NumVertices();
  std::vector<VertexId> all(n + 1);
  for (VertexId v = 0; v <= n; ++v) all[v] = v;
  ExpectFoldMatchesRebuild(
      base,
      [n](GraphDelta* delta, Model* model) {
        // A new vertex adjacent to every base vertex.
        VertexId hub = kInvalidVertex;
        ASSERT_TRUE(delta->AddVertex(1, &hub));
        ASSERT_EQ(hub, model->AddVertex(1));
        for (VertexId v = 0; v < n; ++v) AddEdge(delta, model, hub, v);
      },
      all);
}

TEST(FoldDeltaTest, BatchThatOnlyAddsVertices) {
  Graph base = SmallBase(302);
  const uint32_t n = base.NumVertices();
  ExpectFoldMatchesRebuild(
      base,
      [](GraphDelta* delta, Model* model) {
        // Label 9 extends the label space.
        for (Label l : {Label{2}, Label{9}, Label{0}}) {
          ASSERT_TRUE(delta->AddVertex(l));
          model->AddVertex(l);
        }
      },
      {n, n + 1, n + 2});
}

TEST(FoldDeltaTest, TombstoneAtVertexZero) {
  Graph base = SmallBase(303);
  ASSERT_GT(base.StructuralDegree(0), 0u);
  std::vector<VertexId> touched{0};
  for (VertexId w : base.Neighbors(0)) touched.push_back(w);
  std::sort(touched.begin(), touched.end());
  ExpectFoldMatchesRebuild(
      base,
      [](GraphDelta* delta, Model* model) {
        ASSERT_TRUE(delta->RemoveVertex(0));
        model->RemoveVertex(0);
      },
      touched);
}

using Batch = std::function<void(GraphDelta*, Model*)>;

// Folds each batch of `chain` over the previous fold, starting from `g`.
// After every fold the graph must validate and equal a from-scratch build
// of the same edge set, in content and in allocated bytes. When `hubs` is
// given, hubs[step] lists the hubs the fold must have after that step.
void ExpectFoldChainMatchesRebuilds(
    Graph g, const std::vector<Batch>& chain,
    const std::vector<std::vector<VertexId>>& hubs = {}) {
  Model model(g);
  for (size_t step = 0; step < chain.size(); ++step) {
    GraphDelta delta(g);
    chain[step](&delta, &model);
    delta.Seal();
    Graph folded = FoldDelta(g, delta);
    g = std::move(folded);
    ValidationResult valid = ValidateGraph(g);
    ASSERT_TRUE(valid.ok) << valid.error << " (step " << step << ")";
    Graph rebuilt = model.Rebuild();
    ExpectGraphsEqual(g, rebuilt);
    ASSERT_EQ(g.MemoryBytes(), rebuilt.MemoryBytes()) << "step " << step;
    if (hubs.empty()) continue;
    std::vector<VertexId> got;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      if (g.IsHub(v)) got.push_back(v);
    }
    ASSERT_EQ(got, hubs[step]) << "step " << step;
  }
}

// Connects `v` to vertices it lacks, lowest id first, until its degree is
// `degree`.
void RaiseDegree(GraphDelta* delta, Model* model, VertexId v,
                 size_t degree) {
  for (VertexId w = 0; model->adj[v].size() < degree; ++w) {
    ASSERT_LT(w, model->labels.size());
    if (w != v && model->alive[w] && !model->HasEdge(v, w)) {
      AddEdge(delta, model, v, w);
    }
  }
}

// Drops `v`'s edges, highest neighbour first, until its degree is `degree`.
void LowerDegree(GraphDelta* delta, Model* model, VertexId v,
                 size_t degree) {
  while (model->adj[v].size() > degree) {
    RemoveEdge(delta, model, v, *model->adj[v].rbegin());
  }
}

void AddVertices(GraphDelta* delta, Model* model, uint32_t count) {
  for (uint32_t i = 0; i < count; ++i) {
    const Label l = static_cast<Label>(i % 4);
    VertexId id = kInvalidVertex;
    ASSERT_TRUE(delta->AddVertex(l, &id)) << delta->error();
    ASSERT_EQ(id, model->AddVertex(l));
  }
}

// The fold reserves every array to its final size, so a chain of folds
// allocates exactly what a from-scratch build of the same graph does.
TEST(FoldDeltaTest, FoldChainAllocatesLikeAFreshBuild) {
  // Random churn: 20 batches of about 25 ops.
  Rng rng(305);
  std::vector<Batch> churn(20, [&rng](GraphDelta* delta, Model* model) {
    Mutate(rng, 25, delta, model);
  });
  ExpectFoldChainMatchesRebuilds(SmallBase(304, 200), churn);

  // Through the hub rows (the default threshold is degree 64): each batch
  // changes which vertices are hubs or how wide their rows are.
  constexpr uint32_t kHub = GraphBuilder::kDefaultHubDegreeThreshold;
  const Graph base = SmallBase(306, 100);
  ASSERT_FALSE(base.HasHubIndex());
  ExpectFoldChainMatchesRebuilds(
      base,
      {
          // Vertex 5 becomes a hub; its row is 2 words (n = 100).
          [](GraphDelta* d, Model* m) { RaiseDegree(d, m, 5, kHub + 2); },
          // n grows past 128, so rows widen to 3 words; hub 5's row is
          // patched by a removed edge and an edge to a new vertex, and
          // vertex 10 becomes a second hub.
          [](GraphDelta* d, Model* m) {
            AddVertices(d, m, 30);
            LowerDegree(d, m, 5, kHub + 1);
            AddEdge(d, m, 5, 129);
            RaiseDegree(d, m, 10, kHub + 10);
          },
          // Hub 5 falls below the threshold.
          [](GraphDelta* d, Model* m) { LowerDegree(d, m, 5, kHub - 4); },
          // Hub 10 is tombstoned: no hub is left.
          [](GraphDelta* d, Model* m) {
            ASSERT_TRUE(d->RemoveVertex(10));
            m->RemoveVertex(10);
          },
          // 70 vertices are appended (n = 200, 4 words a row) and vertex 5
          // is a hub again, through edges to new and old vertices.
          [](GraphDelta* d, Model* m) {
            AddVertices(d, m, 70);
            for (VertexId w = 190; w < 200; ++w) AddEdge(d, m, 5, w);
            RaiseDegree(d, m, 5, kHub + 8);
          },
      },
      {{5}, {5, 10}, {10}, {}, {5}});
}

// ---- snapshots and epochs -----------------------------------------------

TEST(DynamicGraphTest, SnapshotIsolationAcrossCommits) {
  DynamicGraph dg(MakeGraph({0, 1, 0}, {{0, 1}}));
  dyn::Snapshot before = dg.Acquire();
  EXPECT_EQ(before.epoch(), 0u);
  EXPECT_FALSE(before.graph().HasEdge(1, 2));

  GraphDelta delta = dg.NewDelta(before);
  ASSERT_TRUE(delta.AddEdge(1, 2));
  dyn::ApplyResult result;
  ASSERT_FALSE(dg.Apply(std::move(delta), &result).has_value());
  EXPECT_EQ(result.epoch, 1u);
  EXPECT_EQ(result.added_edges, 1u);

  // The pinned snapshot still answers as of epoch 0.
  EXPECT_FALSE(before.graph().HasEdge(1, 2));
  dyn::Snapshot after = dg.Acquire();
  EXPECT_EQ(after.epoch(), 1u);
  EXPECT_TRUE(after.graph().HasEdge(1, 2));
}

TEST(DynamicGraphTest, StaleDeltaIsRejectedWholesale) {
  DynamicGraph dg(MakeGraph({0, 1, 0}, {{0, 1}}));
  dyn::Snapshot snap = dg.Acquire();
  GraphDelta first = dg.NewDelta(snap);
  GraphDelta second = dg.NewDelta(snap);
  ASSERT_TRUE(first.AddEdge(1, 2));
  ASSERT_TRUE(second.AddEdge(0, 2));
  ASSERT_FALSE(dg.Apply(std::move(first)).has_value());

  std::optional<std::string> error = dg.Apply(std::move(second));
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("stale"), std::string::npos) << *error;
  // Nothing of the stale batch landed.
  dyn::Snapshot now = dg.Acquire();
  EXPECT_FALSE(now.graph().HasEdge(0, 2));
  EXPECT_EQ(now.epoch(), 1u);
}

TEST(DynamicGraphTest, EmptyDeltaCommitsNothing) {
  DynamicGraph dg(MakeGraph({0, 1}, {{0, 1}}));
  dyn::Snapshot snap = dg.Acquire();
  dyn::ApplyResult result;
  ASSERT_FALSE(dg.Apply(dg.NewDelta(snap), &result).has_value());
  EXPECT_EQ(result.epoch, 0u);
  EXPECT_EQ(dg.CurrentEpoch(), 0u);
}

// The fold runs off the graph mutex, under the writer mutex only: a reader
// that arrives while a commit has folded but not yet installed gets the old
// epoch at once.
TEST(DynamicGraphTest, AcquireDoesNotWaitForAFold) {
  DynamicGraph dg(MakeGraph({0, 1, 0}, {{0, 1}}));
  bool writer_held = false;
  bool mutex_free = false;
  dyn::Epoch seen = 99;
  bool saw_edge = true;
  DynamicGraphTestAccess::SetAfterFoldHook(dg, [&] {
    writer_held = DynamicGraphTestAccess::WriterMutexHeld(dg);
    std::thread reader([&] {
      mutex_free = DynamicGraphTestAccess::MutexFree(dg);
      if (!mutex_free) return;  // Acquire would wait for the install
      dyn::Snapshot snap = dg.Acquire();
      seen = snap.epoch();
      saw_edge = snap.graph().HasEdge(1, 2);
    });
    reader.join();
  });

  dyn::Snapshot s0 = dg.Acquire();
  GraphDelta delta = dg.NewDelta(s0);
  ASSERT_TRUE(delta.AddEdge(1, 2));
  ASSERT_FALSE(dg.Apply(std::move(delta)).has_value());
  EXPECT_TRUE(writer_held);
  EXPECT_TRUE(mutex_free);
  EXPECT_EQ(seen, 0u);
  EXPECT_FALSE(saw_edge);
  dyn::Snapshot s1 = dg.Acquire();
  EXPECT_EQ(s1.epoch(), 1u);
  EXPECT_TRUE(s1.graph().HasEdge(1, 2));
}

// One op of a writer's batch.
struct WriterOp {
  enum class Kind { kAddVertex, kAddEdge, kRemoveEdge } kind;
  VertexId u = 0;  // the label, for kAddVertex
  VertexId v = 0;
};

// Stages `ops` on `delta`; false on the first op it rejects.
bool Record(const std::vector<WriterOp>& ops, GraphDelta& delta) {
  for (const WriterOp& op : ops) {
    bool ok = false;
    switch (op.kind) {
      case WriterOp::Kind::kAddVertex:
        ok = delta.AddVertex(static_cast<Label>(op.u));
        break;
      case WriterOp::Kind::kAddEdge:
        ok = delta.AddEdge(op.u, op.v);
        break;
      case WriterOp::Kind::kRemoveEdge:
        ok = delta.RemoveEdge(op.u, op.v);
        break;
    }
    if (!ok) return false;
  }
  return true;
}

// Four writers commit 25 batches each while a reader acquires snapshots
// throughout. Writers 0 and 1 use Commit, the server's UPDATE path; writers
// 2 and 3 use a bare Acquire/NewDelta/Apply and rebuild the delta when it
// comes back stale. Each writer toggles edges among its own vertices, so
// its ops stay valid whoever commits first, and now and then adds a
// vertex, whose id depends on the commit order. Every Commit must succeed
// at once, and the final graph must be the batches replayed serially in
// epoch order.
TEST(DynamicGraphTest, ConcurrentWritersCommitInEpochOrder) {
  constexpr int kWriters = 4;
  constexpr int kBatches = 25;
  const Graph base = SmallBase(46, 120);
  DynamicGraph dg(base);

  std::mutex committed_mu;
  std::vector<std::pair<dyn::Epoch, std::vector<WriterOp>>> committed;
  std::atomic<int> failed{0};
  std::atomic<bool> writing{true};
  auto writer = [&](int w) {
    Rng rng(4600 + w);
    std::vector<VertexId> own;
    for (VertexId v = w; v < base.NumVertices(); v += kWriters) {
      own.push_back(v);
    }
    std::set<std::pair<VertexId, VertexId>> present;
    for (VertexId u : own) {
      for (VertexId v : base.Neighbors(u)) {
        if (u < v && v % kWriters == static_cast<VertexId>(w)) {
          present.emplace(u, v);
        }
      }
    }
    for (int b = 0; b < kBatches; ++b) {
      std::vector<WriterOp> ops;
      std::set<std::pair<VertexId, VertexId>> toggled;
      while (toggled.size() < 3) {
        VertexId u = own[rng.Below(own.size())];
        VertexId v = own[rng.Below(own.size())];
        if (u == v) continue;
        std::pair<VertexId, VertexId> e{std::min(u, v), std::max(u, v)};
        if (!toggled.insert(e).second) continue;
        ops.push_back({present.count(e) != 0 ? WriterOp::Kind::kRemoveEdge
                                             : WriterOp::Kind::kAddEdge,
                       e.first, e.second});
      }
      if (b % 5 == 0) {
        ops.push_back({WriterOp::Kind::kAddVertex, static_cast<VertexId>(w)});
      }

      dyn::ApplyResult result;
      std::optional<std::string> error;
      if (w < kWriters / 2) {
        error = dg.Commit(
            [&](GraphDelta& delta) { return Record(ops, delta); }, &result);
      } else {
        do {
          dyn::Snapshot snap = dg.Acquire();
          GraphDelta delta = dg.NewDelta(snap);
          if (!Record(ops, delta)) {
            error = delta.error();
            break;
          }
          error = dg.Apply(std::move(delta), &result);
        } while (error.has_value() &&
                 error->find("stale") != std::string::npos);
      }
      if (error.has_value()) {
        failed.fetch_add(1);
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(committed_mu);
        committed.emplace_back(result.epoch, ops);
      }
      for (const WriterOp& op : ops) {
        if (op.kind == WriterOp::Kind::kAddEdge) present.emplace(op.u, op.v);
        if (op.kind == WriterOp::Kind::kRemoveEdge) present.erase({op.u, op.v});
      }
    }
  };
  // Epochs and vertex counts only grow under a reader's eyes.
  std::atomic<int> reader_errors{0};
  std::thread reader([&] {
    dyn::Epoch last_epoch = 0;
    uint32_t last_n = 0;
    while (writing.load()) {
      dyn::Snapshot snap = dg.Acquire();
      if (snap.epoch() < last_epoch || snap.graph().NumVertices() < last_n) {
        reader_errors.fetch_add(1);
      }
      last_epoch = snap.epoch();
      last_n = snap.graph().NumVertices();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) writers.emplace_back(writer, w);
  for (std::thread& t : writers) t.join();
  writing.store(false);
  reader.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(reader_errors.load(), 0);
  ASSERT_EQ(committed.size(), static_cast<size_t>(kWriters * kBatches));
  std::sort(committed.begin(), committed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Graph serial = base;
  for (size_t i = 0; i < committed.size(); ++i) {
    ASSERT_EQ(committed[i].first, i + 1);  // every epoch exactly once
    GraphDelta delta(serial);
    ASSERT_TRUE(Record(committed[i].second, delta)) << delta.error();
    delta.Seal();
    Graph next = FoldDelta(serial, delta);
    serial = std::move(next);
  }
  ExpectGraphsEqual(dg.Acquire().graph(), serial);
  obs::DynCounters stats = dg.Stats();
  EXPECT_EQ(stats.epoch, stats.folds);
  EXPECT_EQ(stats.folds, static_cast<uint64_t>(kWriters * kBatches));
}

// Commit rejects a batch whose ops do not apply, and applies none of it.
TEST(DynamicGraphTest, CommitRejectsAnInvalidBatchWhole) {
  DynamicGraph dg(MakeGraph({0, 1, 0}, {{0, 1}}));
  dyn::ApplyResult result;
  std::optional<std::string> error = dg.Commit(
      [](GraphDelta& delta) {
        return delta.AddEdge(1, 2) && delta.AddEdge(0, 1);  // (0,1) exists
      },
      &result);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->rfind("update rejected: ", 0), 0u) << *error;
  EXPECT_EQ(dg.CurrentEpoch(), 0u);
  EXPECT_FALSE(dg.Acquire().graph().HasEdge(1, 2));
}

TEST(DynamicGraphTest, LiveEpochsCountHeldSnapshots) {
  DynamicGraph dg(MakeGraph({0, 1, 0, 1}, {{0, 1}}));
  dyn::Snapshot s0 = dg.Acquire();
  GraphDelta first = dg.NewDelta(s0);
  ASSERT_TRUE(first.AddEdge(1, 2));
  ASSERT_FALSE(dg.Apply(std::move(first)).has_value());
  {
    dyn::Snapshot s1 = dg.Acquire();
    GraphDelta second = dg.NewDelta(s1);
    ASSERT_TRUE(second.AddEdge(2, 3));
    ASSERT_FALSE(dg.Apply(std::move(second)).has_value());
  }

  // Epoch 1's graph lost its last reader with s1; s0 still holds epoch 0.
  obs::DynCounters held = dg.Stats();
  EXPECT_EQ(held.epoch, 2u);
  EXPECT_EQ(held.folds, 2u);
  EXPECT_EQ(held.live_epochs, 2u);

  s0 = dyn::Snapshot();
  obs::DynCounters dropped = dg.Stats();
  EXPECT_EQ(dropped.live_epochs, 1u);
  EXPECT_EQ(dropped.epochs_retired, held.epochs_retired + 1);
}

TEST(DynamicGraphTest, SnapshotOutlivesDynamicGraph) {
  dyn::Snapshot before;
  dyn::Snapshot after;
  {
    DynamicGraph dg(MakeGraph({0, 1, 0}, {{0, 1}}));
    before = dg.Acquire();
    GraphDelta delta = dg.NewDelta(before);
    ASSERT_TRUE(delta.AddEdge(1, 2));
    ASSERT_FALSE(dg.Apply(std::move(delta)).has_value());
    after = dg.Acquire();
  }
  // Both graphs are still readable (ASan flags a read of freed memory).
  EXPECT_EQ(before.epoch(), 0u);
  EXPECT_EQ(before.graph().NumVertices(), 3u);
  EXPECT_FALSE(before.graph().HasEdge(1, 2));
  EXPECT_EQ(after.epoch(), 1u);
  EXPECT_TRUE(after.graph().HasEdge(1, 2));
  EXPECT_TRUE(after.graph().HasEdge(0, 1));
}

}  // namespace
}  // namespace cfl
