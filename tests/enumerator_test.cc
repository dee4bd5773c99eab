// Direct tests of the resumable CPI-based backtracking enumerator
// (Algorithm 5): state cleanliness across outcomes, pause/resume and abort,
// backward-edge enforcement, capacity semantics, and visitor-visible
// invariants.

#include "match/enumerator.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cpi/cpi_builder.h"
#include "decomp/bfs_tree.h"
#include "decomp/cfl_decomposition.h"
#include "gen/query_gen.h"
#include "gen/synthetic.h"
#include "graph/graph_builder.h"
#include "order/matching_order.h"
#include "test_util.h"

namespace cfl {
namespace {

using testing::Figure7Data;
using testing::Figure7Query;

// One enumeration input: a query over a data graph with its CPI and a
// plain backtracking order (no decomposition, so every vertex is a step).
struct Input {
  std::string name;
  Graph q;
  Graph g;
  BfsTree tree;
  Cpi cpi;
  MatchingOrder order;

  Input(std::string input_name, Graph query, Graph data)
      : name(std::move(input_name)),
        q(std::move(query)),
        g(std::move(data)),
        tree(BuildBfsTree(q, 0)),
        cpi(BuildCpi(q, g, tree)) {
    if (!cpi.HasEmptyCandidateSet()) {
      order = ComputeMatchingOrder(q, cpi, DecomposeCfl(q, 0),
                                   DecompositionMode::kNone);
    }
  }
};

// Two same-label query vertices against one capacity-`capacity`
// hypervertex: capacity 2 lets both share it, capacity 1 forbids it.
std::unique_ptr<Input> CapacityInput(uint32_t capacity) {
  Graph q = MakeGraph({0, 1, 1}, {{0, 1}, {0, 2}, {1, 2}});
  GraphBuilder gb(2);
  gb.AllowSelfLoops();
  gb.SetLabel(0, 0);
  gb.SetLabel(1, 1);
  gb.AddEdge(0, 1);
  gb.AddEdge(1, 1);  // clique class
  gb.SetMultiplicities({1, capacity});
  return std::make_unique<Input>("capacity" + std::to_string(capacity),
                                 std::move(q), std::move(gb).Build());
}

std::unique_ptr<Input> SyntheticInput(uint64_t seed) {
  SyntheticOptions options;
  options.num_vertices = 60;
  options.average_degree = 5.0;
  options.num_labels = 3;
  options.seed = seed;
  Graph g = MakeSynthetic(options);
  QueryGenOptions qo;
  qo.num_vertices = 5;
  qo.sparse = (seed % 2 == 0);
  qo.seed = seed;
  Graph q = GenerateQuery(g, qo);
  return std::make_unique<Input>("synthetic" + std::to_string(seed),
                                 std::move(q), std::move(g));
}

// The Figure 7 fixture, the capacity-2 compressed graph, and two synthetic
// pairs with many embeddings: every pass/abort test runs on all of them.
std::vector<std::unique_ptr<Input>> AllInputs() {
  std::vector<std::unique_ptr<Input>> inputs;
  inputs.push_back(
      std::make_unique<Input>("figure7", Figure7Query(), Figure7Data()));
  inputs.push_back(CapacityInput(2));
  inputs.push_back(SyntheticInput(3));
  inputs.push_back(SyntheticInput(4));
  return inputs;
}

void ExpectClean(const EnumeratorState& state, const std::string& tag) {
  for (uint32_t used : state.used) EXPECT_EQ(used, 0u) << tag;
  for (VertexId v : state.mapping) EXPECT_EQ(v, kInvalidVertex) << tag;
}

TEST(EnumeratorTest, VisitorSeesFullyBoundValidMappings) {
  for (const auto& in : AllInputs()) {
    if (in->cpi.HasEmptyCandidateSet()) continue;
    EnumeratorState state(in->q.NumVertices(), in->g.NumVertices());
    Deadline deadline(0.0);
    Enumerator e(in->g, in->cpi, in->order.steps, state, deadline);
    e.Arm();
    uint32_t visits = 0;
    EnumerateStatus status = e.Run([&]() {
      ++visits;
      for (VertexId u = 0; u < in->q.NumVertices(); ++u) {
        EXPECT_NE(state.mapping[u], kInvalidVertex) << in->name;
        EXPECT_EQ(in->g.label(state.mapping[u]), in->q.label(u)) << in->name;
        for (VertexId w : in->q.Neighbors(u)) {
          EXPECT_TRUE(in->g.HasEdge(state.mapping[u], state.mapping[w]))
              << in->name;
        }
      }
      return true;
    });
    EXPECT_EQ(status, EnumerateStatus::kDone) << in->name;
    if (in->name == "figure7") {
      EXPECT_EQ(visits, 2u);  // Figure 7 has two embeddings
    }
    if (in->name == "capacity2") {
      EXPECT_EQ(visits, 1u);
    }
    ExpectClean(state, in->name);
  }
}

TEST(EnumeratorTest, StateCleanAfterEveryOutcome) {
  for (const auto& in : AllInputs()) {
    if (in->cpi.HasEmptyCandidateSet()) continue;
    EnumeratorState state(in->q.NumVertices(), in->g.NumVertices());

    // Outcome 1: exhausted.
    {
      Deadline deadline(0.0);
      Enumerator e(in->g, in->cpi, in->order.steps, state, deadline);
      e.Arm();
      EXPECT_EQ(e.Run([]() { return true; }), EnumerateStatus::kDone);
      ExpectClean(state, in->name + " exhausted");
    }
    // Outcome 2: stopped by the visitor, then aborted.
    {
      Deadline deadline(0.0);
      Enumerator e(in->g, in->cpi, in->order.steps, state, deadline);
      e.Arm();
      EXPECT_EQ(e.Run([]() { return false; }), EnumerateStatus::kStopped);
      e.Abort();
      ExpectClean(state, in->name + " stopped");
      // Aborted enumerators stay exhausted until re-armed.
      EXPECT_EQ(e.Run([]() { return true; }), EnumerateStatus::kDone);
    }
    // Outcome 3: timed out (pre-expired deadline still unwinds cleanly).
    {
      Deadline deadline(1e-9);
      while (!deadline.ExpiredCoarse()) {
      }
      Enumerator e(in->g, in->cpi, in->order.steps, state, deadline);
      e.Arm();
      EXPECT_EQ(e.Run([]() { return true; }), EnumerateStatus::kTimedOut);
      ExpectClean(state, in->name + " timed out");
    }
  }
}

// Pausing at every embedding and resuming must walk exactly the sequence
// one uninterrupted run visits — with the same effort counters.
TEST(EnumeratorTest, PauseAndResumeYieldsTheUninterruptedSequence) {
  for (const auto& in : AllInputs()) {
    if (in->cpi.HasEmptyCandidateSet()) continue;
    Deadline deadline(0.0);

    EnumeratorState whole_state(in->q.NumVertices(), in->g.NumVertices());
    Enumerator whole(in->g, in->cpi, in->order.steps, whole_state, deadline);
    whole.Arm();
    std::vector<Embedding> expected;
    ASSERT_EQ(whole.Run([&]() {
      expected.push_back(whole_state.mapping);
      return true;
    }),
              EnumerateStatus::kDone);

    EnumeratorState state(in->q.NumVertices(), in->g.NumVertices());
    Enumerator paused(in->g, in->cpi, in->order.steps, state, deadline);
    paused.Arm();
    std::vector<Embedding> got;
    while (paused.Run([]() { return false; }) == EnumerateStatus::kStopped) {
      got.push_back(state.mapping);
    }
    EXPECT_EQ(got, expected) << in->name;
    EXPECT_GT(got.size(), 0u) << in->name;
    ExpectClean(state, in->name);
    EXPECT_EQ(paused.candidates_tried, whole.candidates_tried) << in->name;
    EXPECT_EQ(paused.candidates_bound, whole.candidates_bound) << in->name;
  }
}

// Abort after a pause at any embedding releases exactly the held bindings,
// and the enumerator can be re-armed afterwards to start over.
TEST(EnumeratorTest, AbortAfterPauseLeavesStateClean) {
  for (const auto& in : AllInputs()) {
    if (in->cpi.HasEmptyCandidateSet()) continue;
    Deadline deadline(0.0);
    EnumeratorState state(in->q.NumVertices(), in->g.NumVertices());
    Enumerator e(in->g, in->cpi, in->order.steps, state, deadline);
    e.Arm();
    uint64_t total = 0;
    while (e.Run([]() { return false; }) == EnumerateStatus::kStopped) {
      ++total;
    }
    for (uint64_t stop_at = 1; stop_at <= total; ++stop_at) {
      const std::string tag = in->name + " abort at " + std::to_string(stop_at);
      e.Arm();
      for (uint64_t i = 0; i < stop_at; ++i) {
        ASSERT_EQ(e.Run([]() { return false; }), EnumerateStatus::kStopped)
            << tag;
      }
      e.Abort();
      ExpectClean(state, tag);
    }
  }
}

TEST(EnumeratorTest, SearchCountersAdvance) {
  for (const auto& in : AllInputs()) {
    if (in->cpi.HasEmptyCandidateSet()) continue;
    EnumeratorState state(in->q.NumVertices(), in->g.NumVertices());
    Deadline deadline(0.0);
    Enumerator e(in->g, in->cpi, in->order.steps, state, deadline);
    e.Arm();
    e.Run([]() { return true; });
    EXPECT_GT(e.candidates_tried, 0u) << in->name;
    EXPECT_GT(e.candidates_bound, 0u) << in->name;
    EXPECT_LE(e.candidates_bound, e.candidates_tried) << in->name;
  }
}

TEST(EnumeratorTest, CapacitySemantics) {
  for (uint32_t capacity : {1u, 2u}) {
    std::unique_ptr<Input> in = CapacityInput(capacity);
    if (in->cpi.HasEmptyCandidateSet()) {
      EXPECT_EQ(capacity, 1u);  // degree filter alone kills capacity 1
      continue;
    }
    EnumeratorState state(in->q.NumVertices(), in->g.NumVertices());
    Deadline deadline(0.0);
    Enumerator e(in->g, in->cpi, in->order.steps, state, deadline);
    e.Arm();
    uint32_t matches = 0;
    e.Run([&]() {
      ++matches;
      return true;
    });
    EXPECT_EQ(matches, capacity == 2 ? 1u : 0u) << "capacity " << capacity;
  }
}

}  // namespace
}  // namespace cfl
