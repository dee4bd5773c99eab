// Randomized update-vs-rebuild differential oracle (ISSUE 10).
//
// Drives DynamicGraph with random insert/delete batches and, after every
// commit, checks that each engine's answer on the incrementally folded
// epoch snapshot is identical to its answer on a from-scratch rebuild of
// the same logical graph — counts for every engine, full sorted embedding
// lists for CFL-Match. On a mismatch a greedy delete-one shrinker reduces
// the batch to a minimal reproducer and prints it with the seed, in the
// spirit of cfl_difftest.
//
// The main sweep commits 200 seeded batches (50 trials x 4 batches); a
// second suite re-runs a smaller sweep through Commit while the first
// epoch's snapshot is held, locking in engine-level snapshot isolation.

#include <algorithm>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/quicksi.h"
#include "baseline/vf2.h"
#include "check/validate.h"
#include "dyn/delta.h"
#include "dyn/dynamic_graph.h"
#include "dyn/fold.h"
#include "gen/query_gen.h"
#include "gen/rng.h"
#include "gen/synthetic.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "match/cfl_match.h"
#include "match/engine.h"
#include "parallel/parallel_match.h"

namespace cfl {
namespace {

using dyn::DynamicGraph;
using dyn::FoldDelta;
using dyn::GraphDelta;

// One recorded mutation; `a` is the label for kAddVertex, a vertex id for
// kRemoveVertex, an endpoint otherwise.
struct Op {
  enum Kind { kAddVertex, kRemoveVertex, kAddEdge, kRemoveEdge } kind;
  uint32_t a = 0;
  uint32_t b = 0;
};

std::string FormatOps(const std::vector<Op>& ops) {
  std::ostringstream out;
  for (const Op& op : ops) {
    switch (op.kind) {
      case Op::kAddVertex: out << "av " << op.a; break;
      case Op::kRemoveVertex: out << "rv " << op.a; break;
      case Op::kAddEdge: out << "ae " << op.a << ' ' << op.b; break;
      case Op::kRemoveEdge: out << "re " << op.a << ' ' << op.b; break;
    }
    out << "; ";
  }
  return out.str();
}

// Obviously-correct mirror of the evolving graph; tombstones keep their
// label and lose all edges, matching the fold's semantics.
struct Model {
  std::vector<Label> labels;
  std::vector<bool> alive;
  std::vector<std::set<VertexId>> adj;
  std::vector<std::pair<VertexId, VertexId>> edge_list;  // u < v

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

  void Apply(const Op& op) {
    switch (op.kind) {
      case Op::kAddVertex:
        labels.push_back(op.a);
        alive.push_back(true);
        adj.emplace_back();
        break;
      case Op::kRemoveVertex:
        for (VertexId w : adj[op.a]) adj[w].erase(op.a);
        adj[op.a].clear();
        alive[op.a] = false;
        std::erase_if(edge_list,
                      [&](const std::pair<VertexId, VertexId>& e) {
                        return e.first == op.a || e.second == op.a;
                      });
        break;
      case Op::kAddEdge:
        adj[op.a].insert(op.b);
        adj[op.b].insert(op.a);
        edge_list.emplace_back(std::min(op.a, op.b), std::max(op.a, op.b));
        break;
      case Op::kRemoveEdge:
        adj[op.a].erase(op.b);
        adj[op.b].erase(op.a);
        std::erase(edge_list, std::pair<VertexId, VertexId>{
                                  std::min(op.a, op.b), std::max(op.a, op.b)});
        break;
    }
  }

  Graph Rebuild() const {
    std::vector<std::pair<VertexId, VertexId>> edges(edge_list);
    std::sort(edges.begin(), edges.end());
    return MakeGraph(labels, edges);
  }
};

// Replays `op` onto the delta; false (with the delta poisoned) if invalid.
bool ApplyToDelta(const Op& op, GraphDelta* delta) {
  switch (op.kind) {
    case Op::kAddVertex: return delta->AddVertex(static_cast<Label>(op.a));
    case Op::kRemoveVertex: return delta->RemoveVertex(op.a);
    case Op::kAddEdge: return delta->AddEdge(op.a, op.b);
    case Op::kRemoveEdge: return delta->RemoveEdge(op.a, op.b);
  }
  return false;
}

// Generates ~`target` random valid ops against `model`, advancing it.
std::vector<Op> GenerateBatch(Rng& rng, Model* model, uint32_t target,
                              uint32_t base_vertices) {
  std::vector<Op> ops;
  for (uint32_t i = 0; i < target; ++i) {
    const uint32_t n = static_cast<uint32_t>(model->labels.size());
    Op op{};
    switch (rng.Below(8)) {
      case 0:
        op = {Op::kAddVertex, static_cast<uint32_t>(rng.Below(5)), 0};
        break;
      case 1: {
        VertexId v = static_cast<VertexId>(rng.Below(n));
        if (v >= base_vertices || !model->alive[v]) continue;
        op = {Op::kRemoveVertex, v, 0};
        break;
      }
      case 2:
      case 3: {
        if (model->edge_list.empty()) continue;
        auto [u, v] = model->edge_list[rng.Below(model->edge_list.size())];
        op = {Op::kRemoveEdge, u, v};
        break;
      }
      default: {
        VertexId u = static_cast<VertexId>(rng.Below(n));
        VertexId v = static_cast<VertexId>(rng.Below(n));
        if (u == v || !model->alive[u] || !model->alive[v]) continue;
        if (model->adj[u].count(v) > 0) continue;
        op = {Op::kAddEdge, u, v};
        break;
      }
    }
    model->Apply(op);
    ops.push_back(op);
  }
  return ops;
}

// Folds base+ops and rebuilds base+ops from scratch. False when the
// (possibly shrunk) op list is not valid against `base`.
bool Replay(const Graph& base, const std::vector<Op>& ops, Graph* folded,
            Graph* rebuilt) {
  GraphDelta delta(base);
  Model model(base);
  for (const Op& op : ops) {
    if (!ApplyToDelta(op, &delta)) return false;
    model.Apply(op);
  }
  delta.Seal();
  *folded = FoldDelta(base, delta);
  *rebuilt = model.Rebuild();
  return true;
}

struct EngineSpec {
  const char* name;
  std::function<std::unique_ptr<SubgraphEngine>(const Graph&)> make;
};

const std::vector<EngineSpec>& Engines() {
  static const std::vector<EngineSpec>* engines = new std::vector<EngineSpec>{
      {"cfl", [](const Graph& g) { return MakeCflMatch(g); }},
      {"cfl-par2", [](const Graph& g) { return MakeParallelCflMatch(g, 2); }},
      {"vf2", [](const Graph& g) { return MakeVf2(g); }},
      {"quicksi", [](const Graph& g) { return MakeQuickSi(g); }},
  };
  return *engines;
}

uint64_t CountOn(const EngineSpec& spec, const Graph& data, const Graph& q) {
  return spec.make(data)->Run(q, MatchLimits{}).embeddings;
}

std::vector<Embedding> SortedEmbeddings(const Graph& data, const Graph& q) {
  CflMatcher matcher(data);
  MatchOptions options;
  std::vector<Embedding> out;
  options.on_embedding = [&out](const Embedding& e) {
    out.push_back(e);
    return true;
  };
  matcher.Match(q, options);
  std::sort(out.begin(), out.end());
  return out;
}

// Greedy delete-one shrinking: drop any op whose removal still reproduces
// the divergence, to a fixpoint.
std::vector<Op> ShrinkOps(
    const Graph& base, std::vector<Op> ops,
    const std::function<bool(const Graph&, const Graph&)>& diverges) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (size_t i = 0; i < ops.size(); ++i) {
      std::vector<Op> candidate = ops;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      Graph folded;
      Graph rebuilt;
      if (!Replay(base, candidate, &folded, &rebuilt)) continue;
      if (diverges(folded, rebuilt)) {
        ops = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return ops;
}

std::string DescribeQuery(const Graph& q) {
  std::ostringstream out;
  WriteGraph(q, out);
  return out.str();
}

// Checks every engine on (folded, rebuilt) for each query; on divergence,
// shrinks against `before` + `ops` and reports a minimal reproducer.
// Returns false on the first divergence.
bool CheckBatch(const Graph& before, const std::vector<Op>& ops,
                const Graph& folded, const Graph& rebuilt,
                const std::vector<Graph>& queries, uint64_t seed,
                uint32_t batch) {
  for (const Graph& q : queries) {
    for (const EngineSpec& spec : Engines()) {
      const uint64_t on_folded = CountOn(spec, folded, q);
      const uint64_t on_rebuilt = CountOn(spec, rebuilt, q);
      if (on_folded == on_rebuilt) continue;
      std::vector<Op> minimal = ShrinkOps(
          before, ops, [&](const Graph& f, const Graph& r) {
            return CountOn(spec, f, q) != CountOn(spec, r, q);
          });
      ADD_FAILURE() << "engine " << spec.name << " diverged: " << on_folded
                    << " on the folded epoch vs " << on_rebuilt
                    << " on the rebuild (seed " << seed << ", batch "
                    << batch << ")\nminimal batch: " << FormatOps(minimal)
                    << "\nquery:\n" << DescribeQuery(q);
      return false;
    }
    // Bit-identical full embedding lists, not just counts.
    if (SortedEmbeddings(folded, q) != SortedEmbeddings(rebuilt, q)) {
      std::vector<Op> minimal = ShrinkOps(
          before, ops, [&](const Graph& f, const Graph& r) {
            return SortedEmbeddings(f, q) != SortedEmbeddings(r, q);
          });
      ADD_FAILURE() << "embedding lists diverged (seed " << seed
                    << ", batch " << batch << ")\nminimal batch: "
                    << FormatOps(minimal) << "\nquery:\n"
                    << DescribeQuery(q);
      return false;
    }
  }
  return true;
}

Graph OracleBase(uint64_t seed) {
  SyntheticOptions options;
  options.num_vertices = 48;
  options.average_degree = 3.5;
  options.num_labels = 4;
  options.seed = seed;
  return MakeSynthetic(options);
}

// ---- the main sweep: 50 trials x 4 batches = 200 seeded batches ---------

TEST(DynOracleTest, TwoHundredSeededBatchesAcrossEngines) {
  constexpr uint64_t kTrials = 50;
  constexpr uint32_t kBatches = 4;
  for (uint64_t trial = 0; trial < kTrials; ++trial) {
    const uint64_t seed = 5000 + trial;
    Graph base = OracleBase(seed);
    Model model(base);
    DynamicGraph dg(base);
    Rng rng(seed * 31 + 7);

    for (uint32_t batch = 0; batch < kBatches; ++batch) {
      dyn::Snapshot snap = dg.Acquire();
      Graph before = snap.graph();  // copy: the shrinker's base
      std::vector<Op> ops =
          GenerateBatch(rng, &model, 10, snap.graph().NumVertices());

      GraphDelta delta = dg.NewDelta(snap);
      for (const Op& op : ops) {
        ASSERT_TRUE(ApplyToDelta(op, &delta)) << delta.error();
      }
      ASSERT_FALSE(dg.Apply(std::move(delta)).has_value());

      dyn::Snapshot now = dg.Acquire();
      const Graph& folded = now.graph();
      Graph rebuilt = model.Rebuild();
      ValidationResult valid = ValidateGraph(folded);
      ASSERT_TRUE(valid.ok) << valid.error << " (seed " << seed << ")";

      std::vector<Graph> queries =
          GenerateQuerySet(rebuilt, 2, 5, /*sparse=*/true, seed + batch);
      if (!CheckBatch(before, ops, folded, rebuilt, queries, seed, batch)) {
        return;  // one shrunk reproducer is worth more than a cascade
      }
    }
  }
}

// ---- the same oracle while the first epoch is pinned ---------------------

TEST(DynOracleTest, OracleHoldsWhileFirstEpochIsPinned) {
  constexpr uint64_t kTrials = 8;
  constexpr uint32_t kBatches = 3;
  for (uint64_t trial = 0; trial < kTrials; ++trial) {
    const uint64_t seed = 9000 + trial;
    Graph base = OracleBase(seed);
    Model model(base);
    // Later epochs install while `pinned` still holds epoch 0.
    DynamicGraph dg(base);
    Rng rng(seed * 17 + 3);

    std::vector<Graph> queries = GenerateQuerySet(base, 2, 5, true, seed);
    dyn::Snapshot pinned = dg.Acquire();
    std::vector<uint64_t> pinned_counts;
    for (const Graph& q : queries) {
      pinned_counts.push_back(CountOn(Engines()[0], pinned.graph(), q));
    }

    for (uint32_t batch = 0; batch < kBatches; ++batch) {
      std::vector<Op> ops =
          GenerateBatch(rng, &model, 8, dg.Acquire().graph().NumVertices());
      // The server's UPDATE path.
      std::optional<std::string> error = dg.Commit(
          [&](GraphDelta& delta) {
            for (const Op& op : ops) {
              if (!ApplyToDelta(op, &delta)) return false;
            }
            return true;
          },
          nullptr);
      ASSERT_FALSE(error.has_value()) << *error;

      dyn::Snapshot now = dg.Acquire();
      Graph rebuilt = model.Rebuild();
      for (const Graph& q : queries) {
        EXPECT_EQ(CountOn(Engines()[0], now.graph(), q),
                  CountOn(Engines()[0], rebuilt, q))
            << "seed " << seed << " batch " << batch;
      }
    }

    // The pinned epoch still answers exactly as before any batch landed.
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(CountOn(Engines()[0], pinned.graph(), queries[i]),
                pinned_counts[i])
          << "snapshot isolation broken (seed " << seed << ")";
    }
  }
}

}  // namespace
}  // namespace cfl
