// Unit tests for the core graph representation (graph/graph.h).

#include "graph/graph.h"

#include <algorithm>
#include <random>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cpi/candidate_filter.h"
#include "dyn/delta.h"
#include "dyn/fold.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "test_util.h"

namespace cfl {
namespace {

using testing::Figure3Data;

TEST(GraphTest, BasicShape) {
  Graph g = Figure3Data();
  EXPECT_EQ(g.NumVertices(), 7u);
  EXPECT_EQ(g.NumEdges(), 13u);
  EXPECT_EQ(g.NumLabels(), 5u);
  EXPECT_EQ(g.label(0), 0u);
  EXPECT_EQ(g.label(5), 3u);
}

TEST(GraphTest, NeighborsSortedByLabelThenIdAndDegrees) {
  Graph g = Figure3Data();
  // v0's neighbors are v1(C), v2(B), v3(C); (label, id) order puts the B
  // vertex first and the two C vertices after it ascending by id.
  std::span<const VertexId> n0 = g.Neighbors(0);
  ASSERT_EQ(n0.size(), 3u);
  EXPECT_EQ(n0[0], 2u);
  EXPECT_EQ(n0[1], 1u);
  EXPECT_EQ(n0[2], 3u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.StructuralDegree(0), 3u);
  EXPECT_EQ(g.degree(4), 2u);
}

TEST(GraphTest, NeighborsWithLabel) {
  Graph g = Figure3Data();
  // Multi-run list: v0's neighbors split into a B run {2} and a C run {1,3}.
  std::span<const VertexId> b_run = g.NeighborsWithLabel(0, 1);  // label B
  ASSERT_EQ(b_run.size(), 1u);
  EXPECT_EQ(b_run[0], 2u);
  std::span<const VertexId> c_run = g.NeighborsWithLabel(0, 2);  // label C
  ASSERT_EQ(c_run.size(), 2u);
  EXPECT_EQ(c_run[0], 1u);
  EXPECT_EQ(c_run[1], 3u);
  // Absent label: empty span.
  EXPECT_TRUE(g.NeighborsWithLabel(0, 4).empty());   // no E neighbor
  EXPECT_TRUE(g.NeighborsWithLabel(0, 99).empty());  // label not in graph
  // Single-run list: v4's neighbors v1(C) and v5(D) are two runs of one.
  std::span<const VertexId> v4_c = g.NeighborsWithLabel(4, 2);
  ASSERT_EQ(v4_c.size(), 1u);
  EXPECT_EQ(v4_c[0], 1u);
  // Every (v, l) pair agrees with a filter over the full neighbor list.
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (Label l = 0; l < g.NumLabels(); ++l) {
      std::vector<VertexId> expected;
      for (VertexId w : g.Neighbors(v)) {
        if (g.label(w) == l) expected.push_back(w);
      }
      std::span<const VertexId> run = g.NeighborsWithLabel(v, l);
      EXPECT_EQ(std::vector<VertexId>(run.begin(), run.end()), expected)
          << "v=" << v << " l=" << l;
    }
  }
}

TEST(GraphTest, NeighborsWithLabelOnSelfLoopCompressedVertex) {
  // Clique class at v1 (self-loop): v1 must appear in its own label run.
  GraphBuilder b(3);
  b.AllowSelfLoops();
  b.SetLabel(0, 0);
  b.SetLabel(1, 1);
  b.SetLabel(2, 1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 1);
  b.AddEdge(1, 2);
  b.SetMultiplicities({1, 2, 1});
  Graph g = std::move(b).Build();
  std::span<const VertexId> run = g.NeighborsWithLabel(1, 1);
  ASSERT_EQ(run.size(), 2u);
  EXPECT_EQ(run[0], 1u);  // the self-loop
  EXPECT_EQ(run[1], 2u);
  std::span<const VertexId> run0 = g.NeighborsWithLabel(1, 0);
  ASSERT_EQ(run0.size(), 1u);
  EXPECT_EQ(run0[0], 0u);
}

TEST(GraphTest, HubProbesAgreeWithBinarySearch) {
  // Randomized graphs with a skewed degree distribution; a low threshold
  // forces several hub rows. HasEdge must agree with ground truth whether
  // the probe goes through a hub bitmap or the binary-search fallback.
  std::mt19937 rng(20260805);
  for (int trial = 0; trial < 4; ++trial) {
    const uint32_t n = 80;
    GraphBuilder b(n);
    for (VertexId v = 0; v < n; ++v) b.SetLabel(v, v % 5);
    std::set<std::pair<VertexId, VertexId>> truth;
    std::uniform_int_distribution<uint32_t> pick(0, n - 1);
    // A few heavy vertices connected to most of the graph, plus random edges.
    for (VertexId hub = 0; hub < 3; ++hub) {
      for (VertexId w = 3; w < n; w += 1 + trial) {
        b.AddEdge(hub, w);
        truth.emplace(std::min<VertexId>(hub, w), std::max<VertexId>(hub, w));
      }
    }
    for (int e = 0; e < 200; ++e) {
      VertexId u = pick(rng), v = pick(rng);
      if (u == v) continue;
      b.AddEdge(u, v);
      truth.emplace(std::min(u, v), std::max(u, v));
    }
    b.SetHubDegreeThreshold(8);
    Graph g = std::move(b).Build();
    ASSERT_TRUE(g.HasHubIndex());
    EXPECT_EQ(g.HubDegreeThreshold(), 8u);
    for (VertexId v = 0; v < n; ++v) {
      EXPECT_EQ(g.IsHub(v), g.StructuralDegree(v) >= 8u) << "v=" << v;
    }
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v = 0; v < n; ++v) {
        const bool expect =
            truth.count({std::min(u, v), std::max(u, v)}) != 0 && u != v;
        EXPECT_EQ(g.HasEdge(u, v), expect) << "u=" << u << " v=" << v;
      }
    }
  }
}

TEST(GraphTest, HubIndexDisabledByZeroThreshold) {
  GraphBuilder b(4);
  for (VertexId v = 0; v < 4; ++v) {
    for (VertexId w = v + 1; w < 4; ++w) b.AddEdge(v, w);
  }
  b.SetHubDegreeThreshold(0);
  Graph g = std::move(b).Build();
  EXPECT_FALSE(g.HasHubIndex());
  EXPECT_TRUE(g.HasEdge(0, 3));  // binary-search fallback still works
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(GraphTest, HasEdge) {
  Graph g = Figure3Data();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(5, 6));
  EXPECT_FALSE(g.HasEdge(0, 4));
  EXPECT_FALSE(g.HasEdge(2, 6));
  EXPECT_FALSE(g.HasEdge(0, 0));  // no self-loop
}

TEST(GraphTest, DuplicateEdgesCoalesce) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(GraphTest, LabelIndex) {
  Graph g = Figure3Data();
  std::span<const VertexId> cs = g.VerticesWithLabel(2);  // label C
  ASSERT_EQ(cs.size(), 2u);
  EXPECT_EQ(cs[0], 1u);
  EXPECT_EQ(cs[1], 3u);
  EXPECT_EQ(g.LabelFrequency(2), 2u);
  EXPECT_EQ(g.LabelFrequency(0), 1u);
  EXPECT_TRUE(g.VerticesWithLabel(99).empty());
  EXPECT_EQ(g.LabelFrequency(99), 0u);
}

// The per-label degree lists (built by a counting pass, no sort) against a
// sort-based reference computed from labels and degrees alone, and
// LabelDegreeIndex::CountAtLeast against a scan.
void ExpectLabelDegreesMatchReference(const Graph& g) {
  std::vector<std::vector<uint32_t>> ref(g.NumLabels());
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ref[g.label(v)].push_back(g.degree(v));
    max_degree = std::max(max_degree, g.degree(v));
  }
  const LabelDegreeIndex index(g);
  for (Label l = 0; l < g.NumLabels(); ++l) {
    std::sort(ref[l].begin(), ref[l].end());
    std::span<const uint32_t> got = g.LabelDegrees(l);
    EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), ref[l])
        << "label " << l;
    for (uint32_t d : {0u, 1u, 2u, 3u, max_degree / 2, max_degree,
                       max_degree + 1}) {
      const auto at_least = static_cast<uint64_t>(
          std::count_if(ref[l].begin(), ref[l].end(),
                        [d](uint32_t x) { return x >= d; }));
      EXPECT_EQ(index.CountAtLeast(l, d), at_least)
          << "label " << l << " degree " << d;
    }
  }
  EXPECT_TRUE(g.LabelDegrees(g.NumLabels()).empty());
  EXPECT_EQ(index.CountAtLeast(g.NumLabels(), 0), 0u);
}

// A random multigraph-free graph with a few hubs, so degrees spread from 0
// to well above the rest.
Graph RandomLabeledGraph(uint32_t n, uint32_t labels, uint32_t edges,
                         uint32_t seed) {
  std::mt19937 rng(seed);
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) b.SetLabel(v, rng() % labels);
  for (uint32_t i = 0; i < edges; ++i) {
    const VertexId u = rng() % n;
    const VertexId v = rng() % n;
    if (u != v) b.AddEdge(u, v);
  }
  for (VertexId hub = 0; hub < 3; ++hub) {
    for (VertexId v = hub + 1; v < n; v += 2 + hub) b.AddEdge(hub, v);
  }
  return std::move(b).Build();
}

TEST(GraphTest, LabelDegreesMatchSortedReferenceAfterBuild) {
  ExpectLabelDegreesMatchReference(Figure3Data());
  ExpectLabelDegreesMatchReference(RandomLabeledGraph(1000, 7, 3000, 1));
  ExpectLabelDegreesMatchReference(RandomLabeledGraph(1, 1, 0, 2));
  ExpectLabelDegreesMatchReference(GraphBuilder(0).Build());

  // Compressed: effective degrees far above |V|, so the degree buckets
  // take several digit passes.
  GraphBuilder b(4);
  b.AllowSelfLoops();
  b.SetLabel(2, 1);
  b.SetLabel(3, 1);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 2);
  b.AddEdge(2, 3);
  b.SetMultiplicities({100000, 3, 70001, 5});
  const Graph compressed = std::move(b).Build();
  ASSERT_GT(compressed.degree(2), 70000u);
  ExpectLabelDegreesMatchReference(compressed);
}

TEST(GraphTest, LabelDegreesMatchSortedReferenceAfterFold) {
  const Graph base = RandomLabeledGraph(500, 5, 1500, 3);
  std::mt19937 rng(4);
  dyn::GraphDelta delta(base);
  // Added vertices, one under a label the base does not have.
  VertexId added = 0;
  ASSERT_TRUE(delta.AddVertex(2, &added));
  ASSERT_TRUE(delta.AddEdge(added, 0));
  ASSERT_TRUE(delta.AddEdge(added, 7));
  ASSERT_TRUE(delta.AddVertex(9, &added));
  ASSERT_TRUE(delta.AddEdge(added, 1));
  // Tombstones, including a hub.
  ASSERT_TRUE(delta.RemoveVertex(1));
  ASSERT_TRUE(delta.RemoveVertex(42));
  // Re-wiring: drop some present edges, add some absent ones.
  uint32_t removed = 0;
  uint32_t rewired = 0;
  for (VertexId v = 100; v < 500 && removed < 40; ++v) {
    for (VertexId w : base.Neighbors(v)) {
      if (delta.HasEdgeNow(v, w)) {
        ASSERT_TRUE(delta.RemoveEdge(v, w));
        ++removed;
        break;
      }
    }
  }
  while (rewired < 60) {
    const VertexId u = 2 + rng() % 498;
    const VertexId v = 2 + rng() % 498;
    if (u == v || u == 42 || v == 42 || delta.HasEdgeNow(u, v)) continue;
    ASSERT_TRUE(delta.AddEdge(u, v));
    ++rewired;
  }
  delta.Seal();
  const Graph folded = dyn::FoldDelta(base, delta);
  ASSERT_EQ(folded.NumLabels(), 10u);
  ASSERT_EQ(folded.degree(1), 0u);
  ExpectLabelDegreesMatchReference(folded);
}

TEST(GraphTest, NeighborLabelCounts) {
  Graph g = Figure3Data();
  // v0 (A) neighbors: v1(C), v2(B), v3(C).
  EXPECT_EQ(g.NeighborLabelCount(0, 2), 2u);  // two C neighbors
  EXPECT_EQ(g.NeighborLabelCount(0, 1), 1u);  // one B neighbor
  EXPECT_EQ(g.NeighborLabelCount(0, 4), 0u);  // no E neighbor
  EXPECT_EQ(g.NeighborLabelKinds(0), 2u);
}

TEST(GraphTest, MaxNeighborDegree) {
  Graph g = Figure3Data();
  // v4 (E) neighbors: v1 (degree 5), v5 (degree 5).
  EXPECT_EQ(g.MaxNeighborDegree(4), 5u);
  // v0 neighbors: v1 (5), v2 (4), v3 (4).
  EXPECT_EQ(g.MaxNeighborDegree(0), 5u);
}

TEST(GraphTest, SelfLoopRejectedWithoutOptIn) {
  GraphBuilder b(2);
  EXPECT_THROW(b.AddEdge(0, 0), std::invalid_argument);
}

TEST(GraphTest, OutOfRangeEdgeThrows) {
  GraphBuilder b(2);
  EXPECT_THROW(b.AddEdge(0, 5), std::out_of_range);
}

// Regression: the label count max(l + 1) wrapped to 0 for label UINT32_MAX,
// so every label-indexed array was empty and then indexed out of bounds.
TEST(GraphTest, LabelUint32MaxIsRejected) {
  EXPECT_EQ(LabelCountCovering(0), 1u);
  EXPECT_EQ(LabelCountCovering(kMaxLabel), static_cast<uint32_t>(-1));
  EXPECT_THROW(LabelCountCovering(static_cast<Label>(-1)),
               std::invalid_argument);

  GraphBuilder b(3);
  b.SetLabel(0, 1);
  b.SetLabel(2, static_cast<Label>(-1));
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  EXPECT_THROW(std::move(b).Build(), std::invalid_argument);
}

TEST(GraphMultiplicityTest, EffectiveDegreesAndSelfLoops) {
  // Hypervertex 0 stands for 3 mutually-adjacent originals (clique class,
  // self-loop); vertex 1 stands for 2 originals adjacent to all of them.
  GraphBuilder b(2);
  b.AllowSelfLoops();
  b.SetLabel(0, 0);
  b.SetLabel(1, 1);
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  b.SetMultiplicities({3, 2});
  Graph g = std::move(b).Build();

  EXPECT_TRUE(g.HasMultiplicities());
  EXPECT_EQ(g.EffectiveNumVertices(), 5u);
  EXPECT_EQ(g.multiplicity(0), 3u);
  // v0's expanded degree: 2 clique siblings + 2 members of v1.
  EXPECT_EQ(g.degree(0), 4u);
  // v1's expanded degree: 3 members of v0.
  EXPECT_EQ(g.degree(1), 3u);
  EXPECT_TRUE(g.HasEdge(0, 0));
  EXPECT_FALSE(g.HasEdge(1, 1));
  // NLF under expansion: v0 sees 2 label-0 neighbors and 2 label-1.
  EXPECT_EQ(g.NeighborLabelCount(0, 0), 2u);
  EXPECT_EQ(g.NeighborLabelCount(0, 1), 2u);
}

TEST(GraphStatsTest, ComputeStats) {
  Graph g = Figure3Data();
  GraphStats s = ComputeStats(g);
  EXPECT_EQ(s.num_vertices, 7u);
  EXPECT_EQ(s.num_edges, 13u);
  EXPECT_EQ(s.distinct_labels, 5u);
  EXPECT_NEAR(s.average_degree, 26.0 / 7.0, 1e-9);
  EXPECT_EQ(s.max_degree, 5u);
}

TEST(GraphStatsTest, LabelPairFrequency) {
  Graph g = Figure3Data();
  LabelPairFrequency f(g);
  // Edges with labels {A,C}: (v0,v1), (v0,v3) -> 2.
  EXPECT_EQ(f.Frequency(0, 2), 2u);
  EXPECT_EQ(f.Frequency(2, 0), 2u);
  // {C,E}: (v1,v4), (v1,v6), (v3,v6) -> 3.
  EXPECT_EQ(f.Frequency(2, 4), 3u);
  // {A,E}: none.
  EXPECT_EQ(f.Frequency(0, 4), 0u);
}

TEST(GraphIoTest, RoundTrip) {
  Graph g = Figure3Data();
  std::stringstream ss;
  WriteGraph(g, ss);
  Graph h = ReadGraph(ss);
  ASSERT_EQ(h.NumVertices(), g.NumVertices());
  ASSERT_EQ(h.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(h.label(v), g.label(v));
    std::span<const VertexId> a = g.Neighbors(v);
    std::span<const VertexId> b = h.Neighbors(v);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(GraphIoTest, RoundTripWithMultiplicities) {
  GraphBuilder b(2);
  b.AllowSelfLoops();
  b.AddEdge(0, 0);
  b.AddEdge(0, 1);
  b.SetMultiplicities({3, 1});
  Graph g = std::move(b).Build();
  std::stringstream ss;
  WriteGraph(g, ss);
  Graph h = ReadGraph(ss);
  EXPECT_TRUE(h.HasMultiplicities());
  EXPECT_EQ(h.multiplicity(0), 3u);
  EXPECT_TRUE(h.HasEdge(0, 0));
}

TEST(GraphIoTest, MalformedInputs) {
  {
    std::stringstream ss("v 0 1\n");
    EXPECT_THROW(ReadGraph(ss), std::runtime_error);
  }
  {
    std::stringstream ss("t 2 1\nv 0 0\nv 1 0\n");  // missing edge
    EXPECT_THROW(ReadGraph(ss), std::runtime_error);
  }
  {
    std::stringstream ss("t 2 1\nv 0 0\nv 5 0\ne 0 1\n");  // bad vertex id
    EXPECT_THROW(ReadGraph(ss), std::runtime_error);
  }
  {
    std::stringstream ss("");
    EXPECT_THROW(ReadGraph(ss), std::runtime_error);
  }
  // The header's vertex count must equal the 'v' lines listed, each id
  // once. `t 4000000000 0` used to size a 16 GB multiplicity vector (and
  // the builder's labels) before reading a second line.
  for (const char* text :
       {"t 4000000000 0\n", "t 3 1\nv 0 0\nv 1 0\ne 0 1\n",
        "t 2 1\nv 0 0\nv 1 0\nv 1 0\ne 0 1\n", "t 2 1\nv 0 0\nv 0 1\ne 0 1\n",
        "t 2 0\nv 0 0\nt 1 0\nv 0 0\n"}) {
    std::stringstream ss(text);
    EXPECT_THROW(ReadGraph(ss), std::runtime_error) << text;
  }
  try {
    std::stringstream ss("t 4000000000 0\n");
    ReadGraph(ss);
    ADD_FAILURE() << "accepted an undeclared vertex";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("4000000000 vertices but 0"),
              std::string::npos)
        << e.what();
  }
  // Records may come in any order once the header is read.
  std::stringstream shuffled("t 3 2\ne 2 0\nv 2 7\ne 0 1\nv 0 5\nv 1 5 3\n");
  Graph h = ReadGraph(shuffled);
  EXPECT_EQ(h.label(2), 7u);
  EXPECT_EQ(h.multiplicity(1), 3u);
  EXPECT_TRUE(h.HasEdge(0, 2));
  // Label UINT32_MAX, written out or as -1 (which reads as 2^64-1 and
  // narrows to it): both used to crash the reader's caller.
  for (const char* text : {"t 2 1\nv 0 4294967295\nv 1 0\ne 0 1\n",
                           "t 2 1\nv 0 0\nv 1 -1\ne 0 1\n"}) {
    std::stringstream ss(text);
    EXPECT_THROW(ReadGraph(ss), std::invalid_argument) << text;
  }
  // 64-bit fields above their 32-bit range used to be narrowed: label 2^32
  // read as label 0 (and matched as such), `t 4294967298 1` built a
  // 2-vertex graph after sizing a 2^32+2-entry multiplicity vector, and
  // multiplicity 2^32 became 0 behind the >= 1 check.
  for (const char* text : {"t 2 1\nv 0 4294967296\nv 1 0\ne 0 1\n",
                           "t 4294967298 1\nv 0 0\nv 1 0\ne 0 1\n",
                           "t 2 1\nv 0 0 4294967296\nv 1 0\ne 0 1\n"}) {
    std::stringstream ss(text);
    EXPECT_THROW(ReadGraph(ss), std::invalid_argument) << text;
  }
  // The largest multiplicity still parses.
  std::stringstream ok("t 2 1\nv 0 0\nv 1 0 4294967295\ne 0 1\n");
  Graph g = ReadGraph(ok);
  EXPECT_EQ(g.multiplicity(1), 4294967295u);
  EXPECT_EQ(g.degree(0), 4294967295u);
  // Two such neighbors put vertex 0's effective degree past 2^32-1; it used
  // to wrap to 4294967294.
  std::stringstream wide(
      "t 3 2\nv 0 0\nv 1 1 4294967295\nv 2 1 4294967295\ne 0 1\ne 0 2\n");
  EXPECT_THROW(ReadGraph(wide), std::invalid_argument);
}

TEST(InducedSubgraphTest, ExtractsVertexInducedEdges) {
  Graph g = Figure3Data();
  std::vector<VertexId> to_original;
  Graph sub = InducedSubgraph(g, {0, 1, 2, 4}, &to_original);
  EXPECT_EQ(sub.NumVertices(), 4u);
  // Induced edges: (0,1), (0,2), (1,2), (1,4) -> local (0,1),(0,2),(1,2),(1,3).
  EXPECT_EQ(sub.NumEdges(), 4u);
  EXPECT_TRUE(sub.HasEdge(0, 1));
  EXPECT_TRUE(sub.HasEdge(1, 3));
  EXPECT_FALSE(sub.HasEdge(0, 3));
  EXPECT_EQ(sub.label(3), g.label(4));
  ASSERT_EQ(to_original.size(), 4u);
  EXPECT_EQ(to_original[3], 4u);
}

}  // namespace
}  // namespace cfl
