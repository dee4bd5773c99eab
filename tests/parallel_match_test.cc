// Parallel enumeration layer: serial-vs-parallel equivalence of the root-partitioned matcher across thread counts, with
// and without embedding caps, deadlines, and compressed data graphs.

#include "parallel/parallel_match.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/compress.h"
#include "check/test_access.h"
#include "cpi/cpi_builder.h"
#include "gen/query_gen.h"
#include "gen/synthetic.h"
#include "match/cfl_match.h"
#include "test_util.h"

namespace cfl {
namespace {

const uint32_t kThreadCounts[] = {1, 2, 4, 8};

// ---- Serial vs parallel equivalence -------------------------------------

uint64_t SerialCount(const Graph& data, const Graph& q,
                     const MatchLimits& limits = {}) {
  CflMatcher matcher(data);
  MatchOptions options;
  options.limits = limits;
  return matcher.Match(q, options).embeddings;
}

TEST(ParallelMatchTest, Figure3CountsAtAllThreadCounts) {
  Graph g = testing::Figure3Data();
  Graph q = testing::Figure3Query();
  for (uint32_t threads : kThreadCounts) {
    ParallelCflMatcher matcher(g, threads);
    MatchResult r = matcher.Match(q);
    EXPECT_EQ(r.embeddings, 3u) << "threads=" << threads;
    EXPECT_FALSE(r.timed_out);
    EXPECT_FALSE(r.reached_limit);
  }
}

TEST(ParallelMatchTest, SyntheticCountsMatchSerial) {
  for (uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    SyntheticOptions data_opt;
    data_opt.num_vertices = 300;
    data_opt.average_degree = 5.0;
    data_opt.num_labels = 4;
    data_opt.seed = seed;
    Graph g = MakeSynthetic(data_opt);

    QueryGenOptions query_opt;
    query_opt.num_vertices = 8;
    query_opt.sparse = (seed % 2 == 0);
    query_opt.seed = seed;
    Graph q = GenerateQuery(g, query_opt);

    const uint64_t expected = SerialCount(g, q);
    for (uint32_t threads : kThreadCounts) {
      ParallelCflMatcher matcher(g, threads);
      MatchResult r = matcher.Match(q);
      EXPECT_EQ(r.embeddings, expected)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_FALSE(r.timed_out);
    }
  }
}

TEST(ParallelMatchTest, EmbeddingCapClampedCountsMatchSerial) {
  SyntheticOptions data_opt;
  data_opt.num_vertices = 300;
  data_opt.average_degree = 6.0;
  data_opt.num_labels = 3;
  data_opt.seed = 11;
  Graph g = MakeSynthetic(data_opt);

  QueryGenOptions query_opt;
  query_opt.num_vertices = 6;
  query_opt.seed = 11;
  Graph q = GenerateQuery(g, query_opt);

  // A cap well below the full count: both engines must stop at it. Counts
  // may overshoot by the last leaf product, so compare clamped values —
  // exactly how the difftest oracle compares engines.
  const uint64_t full = SerialCount(g, q);
  ASSERT_GT(full, 50u) << "fixture too small for a meaningful cap";
  MatchLimits limits;
  limits.max_embeddings = 50;
  const uint64_t serial = std::min(SerialCount(g, q, limits), limits.max_embeddings);

  for (uint32_t threads : kThreadCounts) {
    ParallelCflMatcher matcher(g, threads);
    MatchOptions options;
    options.limits = limits;
    MatchResult r = matcher.Match(q, options);
    EXPECT_EQ(std::min(r.embeddings, limits.max_embeddings), serial)
        << "threads=" << threads;
    EXPECT_TRUE(r.reached_limit) << "threads=" << threads;
  }
}

TEST(ParallelMatchTest, ExpiringDeadlineReportsTimeout) {
  // Clique-on-clique: far too much work for a microsecond deadline; every
  // thread count must cut off and report timed_out without corrupting
  // state or deadlocking at the barrier.
  GraphBuilder qb(8);
  for (VertexId a = 0; a < 8; ++a) {
    for (VertexId b = a + 1; b < 8; ++b) qb.AddEdge(a, b);
  }
  Graph q = std::move(qb).Build();
  GraphBuilder gb(64);
  for (VertexId a = 0; a < 64; ++a) {
    for (VertexId b = a + 1; b < 64; ++b) gb.AddEdge(a, b);
  }
  Graph g = std::move(gb).Build();

  MatchLimits limits;
  limits.time_limit_seconds = 1e-6;
  for (uint32_t threads : kThreadCounts) {
    ParallelCflMatcher matcher(g, threads);
    MatchOptions options;
    options.limits = limits;
    MatchResult r = matcher.Match(q, options);
    EXPECT_TRUE(r.timed_out) << "threads=" << threads;
    EXPECT_FALSE(r.reached_limit);
  }
}

TEST(ParallelMatchTest, CompressedGraphCountsMatchSerial) {
  // Compression introduces multiplicities, exercising the ExpansionFactor
  // path of the parallel visitor.
  Graph plain = testing::Figure7Data();
  Graph q = testing::Figure7Query();
  CompressedGraph compressed = CompressBySE(plain);
  const uint64_t expected = SerialCount(compressed.graph, q);
  EXPECT_EQ(expected, SerialCount(plain, q));  // compression is exact
  for (uint32_t threads : kThreadCounts) {
    ParallelCflMatcher matcher(compressed.graph, threads);
    EXPECT_EQ(matcher.Match(q).embeddings, expected) << "threads=" << threads;
  }
}

TEST(ParallelMatchTest, EnumerationCallbackFallsBackToSerial) {
  Graph g = testing::Figure3Data();
  Graph q = testing::Figure3Query();
  ParallelCflMatcher matcher(g, 4);
  std::vector<Embedding> seen;
  MatchOptions options;
  options.on_embedding = [&](const Embedding& m) {
    seen.push_back(m);
    return true;
  };
  MatchResult r = matcher.Match(q, options);
  EXPECT_EQ(r.embeddings, 3u);
  EXPECT_EQ(seen.size(), 3u);
}

TEST(ParallelMatchTest, EngineWrapperNameAndLimits) {
  Graph g = testing::Figure3Data();
  std::unique_ptr<SubgraphEngine> engine = MakeParallelCflMatch(g, 2);
  EXPECT_EQ(engine->name(), "CFL-Match-P2");
  MatchLimits limits;
  limits.max_embeddings = 1;
  MatchResult r = engine->Run(testing::Figure3Query(), limits);
  EXPECT_GE(r.embeddings, 1u);
  EXPECT_TRUE(r.reached_limit);
}

// ---- Concurrent prepares -------------------------------------------------

// Prepare is a pure function of (data graph, query): threads sharing one
// matcher each build through their own thread-local scratch. Every plan
// must equal the serial Prepare's arena for arena, and each thread's
// counting scratch must be all-zero once it is done.
TEST(ParallelMatchTest, ConcurrentPreparesMatchSerial) {
  SyntheticOptions data_opt;
  data_opt.num_vertices = 1500;
  data_opt.average_degree = 6.0;
  data_opt.num_labels = 5;
  data_opt.seed = 11;
  const Graph g = MakeSynthetic(data_opt);
  std::vector<Graph> queries;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    QueryGenOptions query_opt;
    query_opt.num_vertices = 6 + static_cast<uint32_t>(seed % 4);
    query_opt.sparse = (seed % 2 == 0);
    query_opt.seed = seed;
    queries.push_back(GenerateQuery(g, query_opt));
  }
  const CflMatcher matcher(g);
  std::vector<PreparedQuery> serial;
  for (const Graph& q : queries) serial.push_back(matcher.Prepare(q));

  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kRounds = 3;
  const size_t n = queries.size();
  std::vector<std::vector<PreparedQuery>> plans(kThreads);
  std::vector<uint8_t> scratch_zero(kThreads, 0);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different query, so different queries
      // build at the same time.
      for (size_t k = 0; k < kRounds * n; ++k) {
        plans[t].push_back(matcher.Prepare(queries[(k + t) % n]));
      }
      const CpiBuilder probe(g);  // binds this thread's scratch
      const std::vector<uint32_t>& cnt = CpiBuilderTestAccess::Counts(probe);
      const std::vector<uint64_t>& seen =
          CpiBuilderTestAccess::SeenBits(probe);
      scratch_zero[t] =
          cnt.size() == g.NumVertices() &&
          std::all_of(cnt.begin(), cnt.end(),
                      [](uint32_t c) { return c == 0; }) &&
          std::all_of(seen.begin(), seen.end(),
                      [](uint64_t w) { return w == 0; });
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (uint32_t t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(scratch_zero[t]) << "thread " << t;
    ASSERT_EQ(plans[t].size(), kRounds * n);
    for (size_t k = 0; k < plans[t].size(); ++k) {
      PreparedQuery& want = serial[(k + t) % n];
      PreparedQuery& got = plans[t][k];
      SCOPED_TRACE("thread " + std::to_string(t) + " query " +
                   std::to_string((k + t) % n));
      EXPECT_EQ(got.tree.root, want.tree.root);
      EXPECT_EQ(got.no_results, want.no_results);
      EXPECT_EQ(CpiTestAccess::CandArena(got.cpi),
                CpiTestAccess::CandArena(want.cpi));
      EXPECT_EQ(CpiTestAccess::CandOffsets(got.cpi),
                CpiTestAccess::CandOffsets(want.cpi));
      EXPECT_EQ(CpiTestAccess::AdjOffArena(got.cpi),
                CpiTestAccess::AdjOffArena(want.cpi));
      EXPECT_EQ(CpiTestAccess::AdjOffStart(got.cpi),
                CpiTestAccess::AdjOffStart(want.cpi));
      EXPECT_EQ(CpiTestAccess::AdjEntryArena(got.cpi),
                CpiTestAccess::AdjEntryArena(want.cpi));
      EXPECT_EQ(CpiTestAccess::AdjEntryStart(got.cpi),
                CpiTestAccess::AdjEntryStart(want.cpi));
    }
  }
}

}  // namespace
}  // namespace cfl
