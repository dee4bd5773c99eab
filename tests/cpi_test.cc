// Tests for candidate filters, root selection, and CPI construction —
// including the paper's full Figure 7 construction trace and the soundness
// property (Lemmas 5.2 / 5.3) on randomized inputs.

#include "cpi/cpi_builder.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <span>
#include <string>

#include <gtest/gtest.h>

#include "check/test_access.h"
#include "cpi/candidate_filter.h"
#include "cpi/root_select.h"
#include "decomp/bfs_tree.h"
#include "gen/query_gen.h"
#include "gen/synthetic.h"
#include "graph/graph_builder.h"
#include "test_util.h"

namespace cfl {
namespace {

using testing::BruteForceEmbeddings;
using testing::Figure7Data;
using testing::Figure7Query;

std::vector<VertexId> ToVec(std::span<const VertexId> s) {
  return {s.begin(), s.end()};
}

std::vector<VertexId> Sorted(std::span<const VertexId> s) {
  std::vector<VertexId> v(s.begin(), s.end());
  std::sort(v.begin(), v.end());
  return v;
}

TEST(CandidateFilterTest, LabelDegreeFilter) {
  Graph q = Figure7Query();
  Graph g = Figure7Data();
  // u1 (B, degree 3): v3 qualifies, v10 (C) has the wrong label.
  EXPECT_TRUE(LabelDegreeFilter(q, 1, g, 3));
  EXPECT_FALSE(LabelDegreeFilter(q, 1, g, 10));
  // u2 (C, degree 3): v10 has degree 3 and label C.
  EXPECT_TRUE(LabelDegreeFilter(q, 2, g, 10));
}

TEST(CandidateFilterTest, CandVerifyNlf) {
  Graph q = Figure7Query();
  Graph g = Figure7Data();
  // v10 (C) has no D neighbor, which u2 requires -> CandVerify fails
  // (exactly the paper's Example 5.1 pruning of v10).
  EXPECT_FALSE(CandVerify(q, 2, g, 10));
  EXPECT_TRUE(CandVerify(q, 2, g, 4));
  EXPECT_TRUE(CandVerify(q, 2, g, 6));
  EXPECT_TRUE(CandVerify(q, 2, g, 8));
}

TEST(CandidateFilterTest, MndFilter) {
  // Query: center 0 with a degree-3 neighbor -> mnd_q(1) = 3. Data vertex
  // whose neighbors all have degree 1 must fail.
  Graph q = MakeGraph({0, 1, 2, 2, 2}, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  Graph g = MakeGraph({1, 0, 2, 2, 2}, {{0, 1}, {1, 2}, {1, 3}, {1, 4}});
  // In q, vertex 1 (label 1) has neighbor 0 with degree 4 -> mnd_q = 4.
  // In g, vertex 0 (label 1) has neighbor 1 with degree 4 -> passes.
  EXPECT_TRUE(CandVerify(q, 1, g, 0));
  // Cross-check the accessor directly.
  EXPECT_EQ(q.MaxNeighborDegree(1), 4u);
  EXPECT_EQ(g.MaxNeighborDegree(2), 4u);
}

TEST(LabelDegreeIndexTest, Counts) {
  Graph g = Figure7Data();
  LabelDegreeIndex index(g);
  // B vertices: v3,v5,v9 have degree 3; v7 has degree 4.
  EXPECT_EQ(index.CountAtLeast(testing::kB, 3), 4u);
  EXPECT_EQ(index.CountAtLeast(testing::kB, 4), 1u);
  EXPECT_EQ(index.CountAtLeast(testing::kB, 5), 0u);
  // A vertices: v1 (degree 5), v2 (degree 3).
  EXPECT_EQ(index.CountAtLeast(testing::kA, 1), 2u);
  EXPECT_EQ(index.CountAtLeast(testing::kA, 4), 1u);
  EXPECT_EQ(index.CountAtLeast(99, 0), 0u);
}

TEST(RootSelectTest, PicksU0ForFigure7) {
  Graph q = Figure7Query();
  Graph g = Figure7Data();
  LabelDegreeIndex index(g);
  std::vector<VertexId> all = {0, 1, 2, 3};
  EXPECT_EQ(SelectRoot(q, g, index, all), 0u);
}

class CpiFigure7Test : public ::testing::Test {
 protected:
  CpiFigure7Test()
      : q_(Figure7Query()), g_(Figure7Data()), tree_(BuildBfsTree(q_, 0)) {}

  Graph q_, g_;
  BfsTree tree_;
};

TEST_F(CpiFigure7Test, NaiveCandidatesAreLabelSets) {
  Cpi cpi = BuildCpi(q_, g_, tree_, CpiStrategy::kNaive);
  EXPECT_EQ(ToVec(cpi.Candidates(0)), (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(ToVec(cpi.Candidates(1)), (std::vector<VertexId>{3, 5, 7, 9}));
  EXPECT_EQ(ToVec(cpi.Candidates(2)), (std::vector<VertexId>{4, 6, 8, 10}));
  EXPECT_EQ(ToVec(cpi.Candidates(3)), (std::vector<VertexId>{11, 12, 13, 15}));
}

TEST_F(CpiFigure7Test, TopDownMatchesFigure7d) {
  // Paper Example 5.1: forward generation gives u1 = {v3,v5,v7,v9} then the
  // backward pass prunes v9; u2 = {v4,v6,v8} (v10 killed by CandVerify);
  // u3 = {v11,v12} (v13, v15 lack a neighbor in u2.C / u1.C).
  Cpi cpi = BuildCpi(q_, g_, tree_, CpiStrategy::kTopDown);
  EXPECT_EQ(ToVec(cpi.Candidates(0)), (std::vector<VertexId>{1, 2}));
  EXPECT_EQ(ToVec(cpi.Candidates(1)), (std::vector<VertexId>{3, 5, 7}));
  EXPECT_EQ(ToVec(cpi.Candidates(2)), (std::vector<VertexId>{4, 6, 8}));
  EXPECT_EQ(ToVec(cpi.Candidates(3)), (std::vector<VertexId>{11, 12}));
}

TEST_F(CpiFigure7Test, RefinedMatchesFigure7e) {
  // Paper Example 5.2: bottom-up refinement prunes v8 (u2), v7 (u1), v2 (u0).
  Cpi cpi = BuildCpi(q_, g_, tree_, CpiStrategy::kRefined);
  EXPECT_EQ(ToVec(cpi.Candidates(0)), (std::vector<VertexId>{1}));
  EXPECT_EQ(ToVec(cpi.Candidates(1)), (std::vector<VertexId>{3, 5}));
  EXPECT_EQ(ToVec(cpi.Candidates(2)), (std::vector<VertexId>{4, 6}));
  EXPECT_EQ(ToVec(cpi.Candidates(3)), (std::vector<VertexId>{11, 12}));
}

TEST_F(CpiFigure7Test, RefinedAdjacencyLists) {
  Cpi cpi = BuildCpi(q_, g_, tree_, CpiStrategy::kRefined);
  // N_{u1}^{u0}(v1) = {v3, v5} — as positions {0, 1} in u1.C.
  std::span<const uint32_t> adj_u1 = cpi.AdjacentPositions(1, 0);
  ASSERT_EQ(adj_u1.size(), 2u);
  EXPECT_EQ(cpi.CandidateAt(1, adj_u1[0]), 3u);
  EXPECT_EQ(cpi.CandidateAt(1, adj_u1[1]), 5u);
  // N_{u3}^{u1}(v3) = {v11}; N_{u3}^{u1}(v5) = {v12}.
  std::span<const uint32_t> adj_v3 = cpi.AdjacentPositions(3, 0);
  ASSERT_EQ(adj_v3.size(), 1u);
  EXPECT_EQ(cpi.CandidateAt(3, adj_v3[0]), 11u);
  std::span<const uint32_t> adj_v5 = cpi.AdjacentPositions(3, 1);
  ASSERT_EQ(adj_v5.size(), 1u);
  EXPECT_EQ(cpi.CandidateAt(3, adj_v5[0]), 12u);
}

TEST_F(CpiFigure7Test, EmptinessDetection) {
  Cpi cpi = BuildCpi(q_, g_, tree_, CpiStrategy::kRefined);
  EXPECT_FALSE(cpi.HasEmptyCandidateSet());

  // A query with an impossible label has empty candidates everywhere.
  Graph impossible = MakeGraph({17, 17}, {{0, 1}});
  BfsTree t2 = BuildBfsTree(impossible, 0);
  Cpi cpi2 = BuildCpi(impossible, g_, t2, CpiStrategy::kRefined);
  EXPECT_TRUE(cpi2.HasEmptyCandidateSet());
}

TEST_F(CpiFigure7Test, SizeBoundHolds) {
  // |CPI| = O(|E(G)| * |V(q)|): candidates <= |V(G)| per vertex, adjacency
  // entries <= 2|E(G)| per tree edge.
  Cpi cpi = BuildCpi(q_, g_, tree_, CpiStrategy::kNaive);
  uint64_t bound = static_cast<uint64_t>(q_.NumVertices()) *
                   (g_.NumVertices() + 2 * g_.NumEdges());
  EXPECT_LE(cpi.SizeInEntries(), bound);
  EXPECT_GT(cpi.MemoryBytes(), 0u);
}

// ---- CpiBuildStats (src/obs/stats.h) ------------------------------------

// The Figure 7 trace pins down the per-vertex accounting exactly: forward
// generation sizes, the backward S-NTE prune of v9 from u1.C, and the
// bottom-up prunes of v2/v7/v8 (Examples 5.1 / 5.2).
TEST_F(CpiFigure7Test, BuildStatsMatchFigure7Trace) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  CpiBuilder builder(g_);
  CpiBuildStats stats;
  builder.Build(q_, tree_, CpiStrategy::kRefined, &stats);
  EXPECT_EQ(stats.generated,
            (std::vector<uint64_t>{2, 4, 3, 2}));  // v9 still present in u1
  EXPECT_EQ(stats.pruned_backward, (std::vector<uint64_t>{0, 1, 0, 0}));
  EXPECT_EQ(stats.pruned_bottomup, (std::vector<uint64_t>{1, 1, 1, 0}));
  EXPECT_EQ(stats.TotalGenerated(), 11u);
  EXPECT_EQ(stats.TotalPruned(), 4u);
}

// generated[u] - pruned[u] == |C(u)| for every strategy; the naive strategy
// prunes nothing; the phase timers are non-negative.
TEST_F(CpiFigure7Test, BuildStatsReconcileAcrossStrategies) {
  if (!obs::kStatsEnabled) GTEST_SKIP() << "stats compiled out";
  for (CpiStrategy strategy :
       {CpiStrategy::kNaive, CpiStrategy::kTopDown, CpiStrategy::kRefined}) {
    CpiBuilder builder(g_);
    CpiBuildStats stats;
    Cpi cpi = builder.Build(q_, tree_, strategy, &stats);
    ASSERT_EQ(stats.generated.size(), q_.NumVertices());
    for (VertexId u = 0; u < q_.NumVertices(); ++u) {
      EXPECT_EQ(stats.generated[u] - stats.pruned_backward[u] -
                    stats.pruned_bottomup[u],
                cpi.NumCandidates(u))
          << "strategy " << int(strategy) << " u " << u;
    }
    if (strategy == CpiStrategy::kNaive) {
      EXPECT_EQ(stats.TotalPruned(), 0u);
    }
    if (strategy != CpiStrategy::kRefined) {
      EXPECT_EQ(std::accumulate(stats.pruned_bottomup.begin(),
                                stats.pruned_bottomup.end(), uint64_t{0}),
                0u);
    }
    EXPECT_GE(stats.top_down_seconds, 0.0);
    EXPECT_GE(stats.bottom_up_seconds, 0.0);
    EXPECT_GE(stats.adjacency_seconds, 0.0);
  }
}

// Without a sink the builder records nothing and the build result is
// unchanged (the stats pointer must not alter construction).
TEST_F(CpiFigure7Test, BuildWithAndWithoutStatsSinkAgree) {
  CpiBuilder with(g_), without(g_);
  CpiBuildStats stats;
  Cpi a = with.Build(q_, tree_, CpiStrategy::kRefined, &stats);
  Cpi b = without.Build(q_, tree_, CpiStrategy::kRefined);
  ASSERT_EQ(a.NumQueryVertices(), b.NumQueryVertices());
  for (VertexId u = 0; u < q_.NumVertices(); ++u) {
    EXPECT_EQ(ToVec(a.Candidates(u)), ToVec(b.Candidates(u))) << "u " << u;
  }
  EXPECT_EQ(a.SizeInEntries(), b.SizeInEntries());
}

// Soundness (Lemmas 5.2/5.3): every true embedding must survive in the CPI —
// for each query vertex u, M(u) is in u.C, for every strategy.
class CpiSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CpiSoundnessTest, AllEmbeddingsSurvive) {
  const uint64_t seed = GetParam();
  SyntheticOptions data_options;
  data_options.num_vertices = 60;
  data_options.average_degree = 4.0;
  data_options.num_labels = 4;
  data_options.seed = seed;
  Graph g = MakeSynthetic(data_options);

  QueryGenOptions query_options;
  query_options.num_vertices = 6;
  query_options.sparse = (seed % 2 == 0);
  query_options.seed = seed * 7 + 1;
  Graph q = GenerateQuery(g, query_options);

  std::vector<Embedding> truth = BruteForceEmbeddings(q, g);

  for (CpiStrategy strategy :
       {CpiStrategy::kNaive, CpiStrategy::kTopDown, CpiStrategy::kRefined}) {
    for (VertexId root = 0; root < q.NumVertices(); ++root) {
      BfsTree tree = BuildBfsTree(q, root);
      Cpi cpi = BuildCpi(q, g, tree, strategy);
      for (const Embedding& m : truth) {
        for (VertexId u = 0; u < q.NumVertices(); ++u) {
          std::span<const VertexId> c = cpi.Candidates(u);
          EXPECT_TRUE(std::binary_search(c.begin(), c.end(), m[u]))
              << "seed " << seed << " root " << root << " u " << u;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CpiSoundnessTest,
                         ::testing::Range<uint64_t>(0, 12));

// Layout equivalence: the flattened arena CPI must expose, through
// Candidates / AdjacentPositions / CandidateAt, exactly the nested
// representation the pre-arena implementation stored — per query vertex, a
// candidate list, and per parent candidate the ascending positions of the
// child candidates adjacent to it in the data graph. The reference is
// rebuilt here from first principles (Graph::HasEdge), independent of the
// builder's scan order.
TEST(CpiLayoutTest, FlattenedLayoutMatchesNestedReference) {
  SyntheticOptions options;
  options.num_vertices = 120;
  options.average_degree = 6.0;
  options.num_labels = 6;
  for (uint64_t seed = 0; seed < 6; ++seed) {
    options.seed = seed + 1;
    Graph g = MakeSynthetic(options);
    QueryGenOptions query_options;
    query_options.num_vertices = 7;
    query_options.seed = seed * 13 + 5;
    Graph q = GenerateQuery(g, query_options);
    BfsTree tree = BuildBfsTree(q, 0);
    Cpi cpi = BuildCpi(q, g, tree, CpiStrategy::kRefined);

    // Reference nested representation.
    std::vector<std::vector<VertexId>> ref_cands(q.NumVertices());
    for (VertexId u = 0; u < q.NumVertices(); ++u) {
      ref_cands[u] = ToVec(cpi.Candidates(u));
      EXPECT_TRUE(std::is_sorted(ref_cands[u].begin(), ref_cands[u].end()));
      for (uint32_t i = 0; i < ref_cands[u].size(); ++i) {
        EXPECT_EQ(cpi.CandidateAt(u, i), ref_cands[u][i]);
      }
    }
    for (VertexId u = 0; u < q.NumVertices(); ++u) {
      if (u == tree.root) continue;
      const VertexId p = tree.parent[u];
      for (uint32_t pp = 0; pp < ref_cands[p].size(); ++pp) {
        std::vector<uint32_t> expected;
        for (uint32_t i = 0; i < ref_cands[u].size(); ++i) {
          if (g.HasEdge(ref_cands[p][pp], ref_cands[u][i])) {
            expected.push_back(i);
          }
        }
        std::span<const uint32_t> got = cpi.AdjacentPositions(u, pp);
        EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), expected)
            << "seed " << seed << " u " << u << " parent_pos " << pp;
      }
    }
  }
}

// Refinement can only shrink candidate sets (monotonicity).
TEST(CpiMonotonicityTest, RefinedIsSubsetOfTopDownIsSubsetOfNaive) {
  SyntheticOptions options;
  options.num_vertices = 80;
  options.average_degree = 5.0;
  options.num_labels = 5;
  options.seed = 99;
  Graph g = MakeSynthetic(options);
  QueryGenOptions query_options;
  query_options.num_vertices = 8;
  query_options.seed = 3;
  Graph q = GenerateQuery(g, query_options);
  BfsTree tree = BuildBfsTree(q, 0);

  Cpi naive = BuildCpi(q, g, tree, CpiStrategy::kNaive);
  Cpi td = BuildCpi(q, g, tree, CpiStrategy::kTopDown);
  Cpi refined = BuildCpi(q, g, tree, CpiStrategy::kRefined);
  for (VertexId u = 0; u < q.NumVertices(); ++u) {
    std::vector<VertexId> n = Sorted(naive.Candidates(u));
    std::vector<VertexId> t = Sorted(td.Candidates(u));
    std::vector<VertexId> r = Sorted(refined.Candidates(u));
    EXPECT_TRUE(std::includes(n.begin(), n.end(), t.begin(), t.end()));
    EXPECT_TRUE(std::includes(t.begin(), t.end(), r.begin(), r.end()));
  }
}


// ---- Reference CPI (Algorithms 3 and 4, §A.2 position lists) ------------
//
// A plain std::set transcription of the paper's construction, with none of
// the builder's machinery (no label runs, no counting scratch, no kernels):
// a candidate survives against u' iff one of its data neighbors (in any
// label) is in C(u').
// CpiBuilder::Build must reproduce it arena for arena, and its stats
// counters must match the per-phase set sizes.

struct ReferenceCpi {
  std::vector<std::set<VertexId>> cand;
  std::vector<uint64_t> generated, pruned_backward, pruned_bottomup;
  // The Cpi arenas this construction lays out (see cpi.h).
  std::vector<VertexId> cand_arena;
  std::vector<uint64_t> cand_offsets;
  std::vector<uint32_t> adj_off_arena;
  std::vector<uint64_t> adj_off_start;
  std::vector<uint32_t> adj_entry_arena;
  std::vector<uint64_t> adj_entry_start;
};

ReferenceCpi ReferenceBuild(const Graph& q, const Graph& g,
                            const BfsTree& tree, CpiStrategy strategy) {
  const uint32_t n = q.NumVertices();
  ReferenceCpi ref;
  ref.cand.resize(n);
  ref.generated.assign(n, 0);
  ref.pruned_backward.assign(n, 0);
  ref.pruned_bottomup.assign(n, 0);

  auto has_neighbor_in = [&](VertexId v, const std::set<VertexId>& c) {
    std::span<const VertexId> adj = g.Neighbors(v);
    return std::any_of(adj.begin(), adj.end(),
                       [&c](VertexId w) { return c.count(w) != 0; });
  };
  // Drops the candidates of u without a neighbor in every C(u'), u' in
  // `against`; returns how many it dropped.
  auto prune = [&](VertexId u, const std::vector<VertexId>& against) {
    uint64_t dropped = 0;
    for (auto it = ref.cand[u].begin(); it != ref.cand[u].end();) {
      const VertexId v = *it;
      if (std::all_of(against.begin(), against.end(), [&](VertexId up) {
            return has_neighbor_in(v, ref.cand[up]);
          })) {
        ++it;
      } else {
        it = ref.cand[u].erase(it);
        ++dropped;
      }
    }
    return dropped;
  };
  // Label, degree and CandVerify: the filters that need no other C(u').
  auto local = [&](VertexId u) {
    std::set<VertexId> c;
    for (VertexId v : g.VerticesWithLabel(q.label(u))) {
      if (g.degree(v) >= q.StructuralDegree(u) && CandVerify(q, u, g, v)) {
        c.insert(v);
      }
    }
    return c;
  };

  if (strategy == CpiStrategy::kNaive) {
    for (VertexId u = 0; u < n; ++u) {
      std::span<const VertexId> vs = g.VerticesWithLabel(q.label(u));
      ref.cand[u] = {vs.begin(), vs.end()};
      ref.generated[u] = ref.cand[u].size();
    }
  } else {
    // Algorithm 3: per level, forward generation against the visited
    // neighbors, then backward pruning (reverse order) against the
    // same-level neighbors that were unvisited when u was generated.
    std::vector<bool> visited(n, false);
    ref.cand[tree.root] = local(tree.root);
    ref.generated[tree.root] = ref.cand[tree.root].size();
    visited[tree.root] = true;
    std::vector<std::vector<VertexId>> unvisited_same_level(n);
    for (uint32_t lev = 1; lev < tree.NumLevels(); ++lev) {
      for (VertexId u : tree.levels[lev]) {
        std::vector<VertexId> vis;
        for (VertexId up : q.Neighbors(u)) {
          if (visited[up]) {
            vis.push_back(up);
          } else if (tree.level[up] == tree.level[u]) {
            unvisited_same_level[u].push_back(up);
          }
        }
        ref.cand[u] = local(u);
        prune(u, vis);
        ref.generated[u] = ref.cand[u].size();
        visited[u] = true;
      }
      for (auto it = tree.levels[lev].rbegin(); it != tree.levels[lev].rend();
           ++it) {
        ref.pruned_backward[*it] = prune(*it, unvisited_same_level[*it]);
      }
    }
    // Algorithm 4: bottom-up against the lower-level neighbors.
    if (strategy == CpiStrategy::kRefined) {
      for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
        std::vector<VertexId> lower;
        for (VertexId up : q.Neighbors(*it)) {
          if (tree.level[up] == tree.level[*it] + 1) lower.push_back(up);
        }
        ref.pruned_bottomup[*it] = prune(*it, lower);
      }
    }
  }

  // §A.2 layout: candidates ascending; per tree edge (p, u) and per parent
  // candidate, the ascending positions in u.C of its data neighbors.
  ref.cand_offsets.assign(n + 1, 0);
  ref.adj_off_start.assign(n + 1, 0);
  ref.adj_entry_start.assign(n + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    ref.cand_arena.insert(ref.cand_arena.end(), ref.cand[u].begin(),
                          ref.cand[u].end());
    ref.cand_offsets[u + 1] = ref.cand_arena.size();
    if (u != tree.root) {
      const std::vector<VertexId> child(ref.cand[u].begin(),
                                        ref.cand[u].end());
      const uint64_t base = ref.adj_entry_arena.size();
      ref.adj_off_arena.push_back(0);
      for (VertexId vp : ref.cand[tree.parent[u]]) {
        std::set<uint32_t> positions;
        for (VertexId w : g.Neighbors(vp)) {
          auto it = std::lower_bound(child.begin(), child.end(), w);
          if (it != child.end() && *it == w) {
            positions.insert(static_cast<uint32_t>(it - child.begin()));
          }
        }
        ref.adj_entry_arena.insert(ref.adj_entry_arena.end(),
                                   positions.begin(), positions.end());
        ref.adj_off_arena.push_back(
            static_cast<uint32_t>(ref.adj_entry_arena.size() - base));
      }
    }
    ref.adj_off_start[u + 1] = ref.adj_off_arena.size();
    ref.adj_entry_start[u + 1] = ref.adj_entry_arena.size();
  }
  return ref;
}

// Builds q over every root and strategy with the one `builder`, checking
// each Cpi arena for arena against the reference, the stats counters
// against the reference's phase sizes, and the builder's counting scratch
// back at all-zero after every Build.
void ExpectBuilderMatchesReference(CpiBuilder& builder, const Graph& q,
                                   const Graph& g, const std::string& what) {
  const std::vector<uint32_t>& cnt = CpiBuilderTestAccess::Counts(builder);
  const std::vector<uint64_t>& seen = CpiBuilderTestAccess::SeenBits(builder);
  ASSERT_EQ(cnt.size(), g.NumVertices());
  ASSERT_EQ(seen.size(), (g.NumVertices() + 63) / 64);
  for (VertexId root = 0; root < q.NumVertices(); ++root) {
    const BfsTree tree = BuildBfsTree(q, root);
    for (CpiStrategy strategy :
         {CpiStrategy::kNaive, CpiStrategy::kTopDown, CpiStrategy::kRefined}) {
      SCOPED_TRACE(what + " root " + std::to_string(root) + " strategy " +
                   std::to_string(static_cast<int>(strategy)));
      const ReferenceCpi ref = ReferenceBuild(q, g, tree, strategy);
      CpiBuildStats stats;
      Cpi cpi = builder.Build(q, tree, strategy, &stats);
      EXPECT_EQ(CpiTestAccess::CandArena(cpi), ref.cand_arena);
      EXPECT_EQ(CpiTestAccess::CandOffsets(cpi), ref.cand_offsets);
      EXPECT_EQ(CpiTestAccess::AdjOffArena(cpi), ref.adj_off_arena);
      EXPECT_EQ(CpiTestAccess::AdjOffStart(cpi), ref.adj_off_start);
      EXPECT_EQ(CpiTestAccess::AdjEntryArena(cpi), ref.adj_entry_arena);
      EXPECT_EQ(CpiTestAccess::AdjEntryStart(cpi), ref.adj_entry_start);
      if (obs::kStatsEnabled) {
        EXPECT_EQ(stats.generated, ref.generated);
        EXPECT_EQ(stats.pruned_backward, ref.pruned_backward);
        EXPECT_EQ(stats.pruned_bottomup, ref.pruned_bottomup);
      }
      EXPECT_TRUE(std::all_of(cnt.begin(), cnt.end(),
                              [](uint32_t c) { return c == 0; }));
      EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                              [](uint64_t w) { return w == 0; }));
    }
  }
}

// Connected query induced on the first `k` vertices of a BFS from `start`
// in g: query vertex 0 maps to `start` in the identity embedding, so by
// soundness `start` is a candidate of vertex 0 under every strategy.
Graph BallQuery(const Graph& g, VertexId start, uint32_t k) {
  std::vector<VertexId> ball = {start};
  std::vector<bool> seen(g.NumVertices(), false);
  seen[start] = true;
  for (size_t i = 0; i < ball.size() && ball.size() < k; ++i) {
    for (VertexId w : g.Neighbors(ball[i])) {
      if (!seen[w] && ball.size() < k) {
        seen[w] = true;
        ball.push_back(w);
      }
    }
  }
  return InducedSubgraph(g, ball);
}

// Seeded synthetic pairs whose |V(G)| is not a multiple of 64 (the last
// bitset word is partial) and whose last vertex |V(G)|-1 is a candidate.
TEST(CpiReferenceTest, SyntheticPairsMatchReference) {
  for (uint32_t num_vertices : {517u, 777u, 1001u}) {
    ASSERT_NE(num_vertices % 64, 0u);
    SyntheticOptions options;
    options.num_vertices = num_vertices;
    options.average_degree = 6.0;
    options.num_labels = 5;
    options.seed = num_vertices;
    const Graph g = MakeSynthetic(options);
    CpiBuilder builder(g);

    const VertexId last = num_vertices - 1;
    const Graph ball = BallQuery(g, last, 6);
    ExpectBuilderMatchesReference(builder, ball, g, "ball");
    const BfsTree tree = BuildBfsTree(ball, 0);
    for (CpiStrategy strategy :
         {CpiStrategy::kNaive, CpiStrategy::kTopDown, CpiStrategy::kRefined}) {
      const Cpi cpi = builder.Build(ball, tree, strategy);
      std::span<const VertexId> c = cpi.Candidates(0);
      EXPECT_TRUE(std::binary_search(c.begin(), c.end(), last));
    }

    for (uint64_t seed = 1; seed <= 4; ++seed) {
      QueryGenOptions query_options;
      query_options.num_vertices = 5 + static_cast<uint32_t>(seed);
      query_options.sparse = (seed % 2 == 0);
      query_options.seed = seed * 31 + num_vertices;
      ExpectBuilderMatchesReference(builder, GenerateQuery(g, query_options),
                                    g, "seed " + std::to_string(seed));
    }
  }
}

// Hubs whose label runs straddle the 32:1 cutover, so both the counting
// scan and the galloped kernel branch run in refinement, generation rounds
// and the adjacency build. Labels A=0, B=1, C=2; ids: B 0..1099, C
// 1100..1109, hubs (A) 1110..1114, so |V| = 1115 and the last hub is
// vertex |V|-1. B vertices 0..9 are "specials", each with one C neighbor,
// so the queries below keep exactly the 10 specials as B candidates. Each
// hub has a B run of `run`: its specials [first, end) padded with
// non-special B vertices; and it reaches every C vertex. Runs of 10, 200
// and 320 are scanned, runs of 321 and 1000 (more than 32 x 10) galloped;
// specials 5..9 are reached only through the galloped runs.
TEST(CpiReferenceTest, HubRunsOnBothSidesOfGallopCutover) {
  struct Hub {
    uint32_t run, first, end;
  };
  constexpr Hub kHubs[] = {
      {10, 0, 5}, {200, 0, 5}, {320, 0, 5}, {321, 5, 8}, {1000, 8, 10}};
  constexpr uint32_t kB = 1100, kC = 10;
  const uint32_t n = kB + kC + std::size(kHubs);
  GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) {
    b.SetLabel(v, v < kB ? 1 : v < kB + kC ? 2 : 0);
  }
  for (VertexId i = 0; i < kC; ++i) b.AddEdge(i, kB + i);
  VertexId hub = kB + kC;
  for (const Hub& h : kHubs) {
    for (VertexId v = h.first; v < h.end; ++v) b.AddEdge(hub, v);
    for (VertexId v = kC; v < kC + h.run - (h.end - h.first); ++v) {
      b.AddEdge(hub, v);
    }
    for (VertexId c = kB; c < kB + kC; ++c) b.AddEdge(hub, c);
    ++hub;
  }
  const Graph g = std::move(b).Build();
  CpiBuilder builder(g);

  // Path A-B-C, triangle A-B-C, and square A-B-C-B.
  const Graph path = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}});
  const Graph triangle = MakeGraph({0, 1, 2}, {{0, 1}, {1, 2}, {2, 0}});
  const Graph square =
      MakeGraph({0, 1, 2, 1}, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  ExpectBuilderMatchesReference(builder, path, g, "path");
  ExpectBuilderMatchesReference(builder, triangle, g, "triangle");
  ExpectBuilderMatchesReference(builder, square, g, "square");

  // The premise of the test: refined B candidates are the 10 specials.
  const Cpi cpi = builder.Build(path, BuildBfsTree(path, 2));
  EXPECT_EQ(ToVec(cpi.Candidates(1)),
            (std::vector<VertexId>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(ToVec(cpi.Candidates(0)).back(), n - 1);
}

}  // namespace
}  // namespace cfl
