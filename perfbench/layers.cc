#include "layers.h"

#include <unistd.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "cpi/candidate_filter.h"
#include "cpi/cpi_builder.h"
#include "cpi/root_select.h"
#include "decomp/bfs_tree.h"
#include "decomp/cfl_decomposition.h"
#include "decomp/two_core.h"
#include "dyn/delta.h"
#include "dyn/fold.h"
#include "kernels/kernels.h"
#include "order/matching_order.h"
#include "parallel/parallel_match.h"
#include "serve/canonical.h"
#include "serve/client.h"
#include "serve/plan_cache.h"
#include "serve/server.h"

namespace cflbench {
namespace {

constexpr size_t kLayerSample = 40;  // queries pushed through each layer

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Repeats `body` (which reports how many units it did) until at least
// `min_seconds` have passed; returns seconds per unit.
template <typename F>
double TimePerUnit(double min_seconds, F body) {
  uint64_t units = 0;
  const double t0 = NowSeconds();
  double t = t0;
  while (t - t0 < min_seconds || units == 0) {
    units += body();
    t = NowSeconds();
  }
  return (t - t0) / static_cast<double>(units);
}

void ProbeKernels(const Graph& data, Report& rep) {
  cfl::Rng rng(7);
  std::vector<std::pair<VertexId, VertexId>> pairs;
  while (pairs.size() < 4096) {
    const VertexId u = static_cast<VertexId>(rng.Below(data.NumVertices()));
    const auto nb = data.Neighbors(u);
    if (!nb.empty()) pairs.emplace_back(u, nb[rng.Below(nb.size())]);
  }
  std::vector<uint32_t> out;
  uint64_t sink = 0;
  const double per_elem = TimePerUnit(0.05, [&] {
    uint64_t elems = 0;
    for (const auto& [u, v] : pairs) {
      const auto a = data.Neighbors(u);
      const auto b = data.Neighbors(v);
      cfl::kernels::IntersectSorted(a, b, out);
      sink += out.size();
      cfl::kernels::IntersectPositions(a, b, out);
      sink += out.size();
      elems += 2 * (a.size() + b.size());
    }
    return elems;
  });
  rep.Set("kernels.intersect_ns_per_elem", per_elem * 1e9, "ns");
  rep.info["kernels.isa"] =
      cfl::kernels::IsaName(cfl::kernels::ActiveIsa());
  rep.info["kernels.sink"] = std::to_string(sink);
}

void ProbeFold(const LayerInputs& in, Tracer& tracer, Report& rep) {
  UpdatePlan plan = in.plan;
  auto base = std::make_shared<Graph>(in.data);
  std::vector<double> fold_ms;
  for (int k = 0; k < 20; ++k) {
    const auto ops = plan.NextBatch();
    Scoped span(tracer, "dyn.Fold", -1, k);
    const double t0 = NowSeconds();
    cfl::dyn::GraphDelta delta(*base);
    const bool ok = AddOps(delta, ops);
    delta.Seal();
    auto next = std::make_shared<Graph>(cfl::dyn::FoldDelta(*base, delta));
    fold_ms.push_back((NowSeconds() - t0) * 1e3);
    if (!ok) rep.Fail("fold probe batch " + std::to_string(k) + ": " +
                      delta.error());
    base = std::move(next);
  }
  rep.Set("dyn.fold_ms", Median(fold_ms), "ms");
}

}  // namespace

bool AddOps(cfl::dyn::GraphDelta& delta,
            const std::vector<cfl::serve::UpdateOp>& ops) {
  using Kind = cfl::serve::UpdateOp::Kind;
  for (const cfl::serve::UpdateOp& op : ops) {
    bool ok = false;
    switch (op.kind) {
      case Kind::kAddVertex: ok = delta.AddVertex(op.u); break;
      case Kind::kRemoveVertex: ok = delta.RemoveVertex(op.u); break;
      case Kind::kAddEdge: ok = delta.AddEdge(op.u, op.v); break;
      case Kind::kRemoveEdge: ok = delta.RemoveEdge(op.u, op.v); break;
    }
    if (!ok) return false;
  }
  return true;
}

std::optional<std::string> ApplyOps(
    cfl::dyn::DynamicGraph& dg, const std::vector<cfl::serve::UpdateOp>& ops,
    uint64_t* retries) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    cfl::dyn::Snapshot snap = dg.Acquire();
    cfl::dyn::GraphDelta delta = dg.NewDelta(snap);
    if (!AddOps(delta, ops)) return "rejected: " + delta.error();
    if (!dg.Apply(std::move(delta)).has_value()) return std::nullopt;
    ++*retries;
  }
  return "lost the commit race 8 times";
}

bool WaitForServer(const std::string& path, cfl::serve::ServeClient& client) {
  for (int attempt = 0; attempt < 1000; ++attempt) {
    if (client.Connect(path) && client.Ping()) return true;
    client.Close();
    usleep(5'000);
  }
  return false;
}

void ProbeLibraryLayers(const LayerInputs& in, Tracer& tracer, Report& rep) {
  const Graph& data = in.data;
  const size_t k_max = std::min(in.queries.size(), kLayerSample);
  cfl::MatchOptions mopts;
  mopts.limits = in.limits;

  cfl::CflMatcher matcher(data);
  cfl::ParallelCflMatcher pm(data, 2);
  cfl::LabelDegreeIndex index(data);
  cfl::CpiBuilder builder(data);
  cfl::serve::PlanCache cache(256ull << 20);
  cfl::Rng rng(11);

  std::vector<double> decomp_ms, cpi_ms, order_ms, prep_ms, enum_ms,
      serial_ms, par_ms, imbalance, hash_us, find_us;
  double generated = 0, kept = 0, entries = 0, core_visits = 0,
         leaf_products = 0, bound = 0, tried = 0, hub = 0, probes = 0;

  for (size_t i = 0; i < k_max; ++i) {
    const Graph& q = in.queries[i];
    Scoped root(tracer, "layers.query", -1, i);
    double t0 = NowSeconds();
    cfl::CflDecomposition dec;
    cfl::BfsTree tree;
    {
      Scoped s(tracer, "decomp", root.id(), i);
      std::vector<VertexId> choices = cfl::TwoCoreVertices(q);
      if (choices.empty()) {
        for (VertexId v = 0; v < q.NumVertices(); ++v) choices.push_back(v);
      }
      const VertexId r = cfl::SelectRoot(q, data, index, choices);
      dec = cfl::DecomposeCfl(q, r);
      tree = cfl::BuildBfsTree(q, r);
    }
    double t1 = NowSeconds();
    decomp_ms.push_back((t1 - t0) * 1e3);

    cfl::CpiBuildStats cst;
    cfl::Cpi cpi;
    {
      Scoped s(tracer, "cpi", root.id(), i);
      cpi = builder.Build(q, tree, cfl::CpiStrategy::kRefined, &cst);
    }
    t0 = NowSeconds();
    cpi_ms.push_back((t0 - t1) * 1e3);
    generated += static_cast<double>(cst.TotalGenerated());
    kept += static_cast<double>(cpi.NumCandidateEntries());
    entries += static_cast<double>(cpi.NumCandidateEntries() +
                                   cpi.NumAdjacencyEntries());

    if (!cpi.HasEmptyCandidateSet()) {
      Scoped s(tracer, "order", root.id(), i);
      cfl::ComputeMatchingOrder(q, cpi, dec, cfl::DecompositionMode::kCfl);
    }
    t1 = NowSeconds();
    order_ms.push_back((t1 - t0) * 1e3);

    cfl::PreparedQuery prepared;
    {
      Scoped s(tracer, "match.Prepare", root.id(), i);
      prepared = matcher.Prepare(q, mopts);
    }
    t0 = NowSeconds();
    prep_ms.push_back((t0 - t1) * 1e3);

    cfl::MatchResult r;
    {
      Scoped s(tracer, "match.Match", root.id(), i);
      r = matcher.Match(q, mopts);
    }
    t1 = NowSeconds();
    serial_ms.push_back((t1 - t0) * 1e3);
    enum_ms.push_back(r.enumerate_seconds * 1e3);
    const cfl::EnumStats& es = r.stats.enumeration;
    core_visits += static_cast<double>(es.core_visits);
    leaf_products += static_cast<double>(es.leaf_products);
    bound += static_cast<double>(r.candidates_bound);
    tried += static_cast<double>(r.candidates_tried);
    hub += static_cast<double>(es.hub_probes);
    probes += static_cast<double>(es.backward_probes);

    cfl::MatchResult pr;
    {
      Scoped s(tracer, "parallel.Match", root.id(), i);
      pr = pm.Match(q, mopts);
    }
    t0 = NowSeconds();
    par_ms.push_back((t0 - t1) * 1e3);
    const auto& claimed = pr.stats.worker_roots_claimed;
    const double total = static_cast<double>(pr.stats.TotalRootsClaimed());
    if (claimed.size() > 1 && total >= 2) {
      const double most = static_cast<double>(
          *std::max_element(claimed.begin(), claimed.end()));
      imbalance.push_back(most / (total / static_cast<double>(claimed.size())));
    }

    const Graph relabeled = Relabel(q, rng);
    {
      Scoped s(tracer, "serve.CanonicalQueryHash", root.id(), i);
      hash_us.push_back(1e6 * TimePerUnit(0.002, [&] {
        cfl::serve::CanonicalQueryHash(relabeled);
        return 1;
      }));
    }
    cache.Insert(q, std::move(prepared));
    {
      Scoped s(tracer, "serve.PlanCache.Find", root.id(), i);
      find_us.push_back(1e6 * TimePerUnit(0.002, [&] {
        cache.Find(relabeled);
        return 1;
      }));
    }
  }

  rep.Set("decomp.ms_per_query", Mean(decomp_ms), "ms");
  rep.Set("cpi.build_ms_per_query", Mean(cpi_ms), "ms");
  rep.Set("cpi.kept_frac", Ratio(kept, generated), "frac");
  rep.Set("cpi.generated_per_query", Ratio(generated, k_max), "count");
  rep.Set("cpi.entries_per_query", Ratio(entries, k_max), "count");
  rep.Set("order.ms_per_query", Mean(order_ms), "ms");
  rep.Set("match.prepare_ms_per_query", Mean(prep_ms), "ms");
  rep.Set("match.enum_ms_per_query", Mean(enum_ms), "ms");
  // Matcher time split into its layers: decomp + CPI + order from the
  // calls above, enumeration from Match's own enumerate time.
  const double matcher_ms =
      Sum(decomp_ms) + Sum(cpi_ms) + Sum(order_ms) + Sum(enum_ms);
  rep.Set("match.cpi_share", Ratio(Sum(cpi_ms), matcher_ms), "frac");
  rep.Set("match.enum_share", Ratio(Sum(enum_ms), matcher_ms), "frac");
  rep.Set("match.embeddings_per_core_visit", Ratio(leaf_products, core_visits),
          "ratio");
  rep.Set("match.bound_per_tried", Ratio(bound, tried), "frac");
  rep.Set("match.hub_probe_frac", Ratio(hub, probes), "frac");
  rep.Set("parallel.speedup_2t", Ratio(Sum(serial_ms), Sum(par_ms)), "ratio");
  rep.Set("parallel.root_claim_imbalance", Median(imbalance), "ratio");
  rep.Set("serve.canonical_hash_us", Median(hash_us), "us");
  rep.Set("serve.plan_cache_find_us", Median(find_us), "us");
  ProbeKernels(data, rep);
  ProbeFold(in, tracer, rep);
}

void SetServeMetrics(const std::vector<ServedQuery>& served, Report& rep) {
  std::vector<double> rtt, total, outside, miss_prepare;
  double hits = 0, lookups = 0, rtt_sum = 0, matcher_sum = 0;
  for (const ServedQuery& s : served) {
    rtt.push_back(s.rtt_ms);
    total.push_back(s.outcome.total_ms);
    outside.push_back(s.rtt_ms - s.outcome.total_ms);
    rtt_sum += s.rtt_ms;
    matcher_sum += s.outcome.prepare_ms + s.outcome.enum_ms;
    using Cache = cfl::serve::QueryOutcome::Cache;
    if (s.outcome.cache != Cache::kOff) lookups++;
    if (s.outcome.cache == Cache::kHit) hits++;
    if (s.outcome.cache == Cache::kMiss) {
      miss_prepare.push_back(s.outcome.prepare_ms);
    }
  }
  rep.Set("serve.rtt_ms_p50", Median(rtt), "ms");
  rep.Set("serve.server_total_ms_p50", Median(total), "ms");
  rep.Set("serve.outside_server_ms_p50", Median(outside), "ms");
  rep.Set("serve.outside_matcher_share", Ratio(rtt_sum - matcher_sum, rtt_sum),
          "frac");
  rep.Set("serve.cache_hit_frac", Ratio(hits, lookups), "frac");
  rep.Set("serve.miss_prepare_ms_p50", Median(miss_prepare), "ms");
}

void ProbeServeLayers(const LayerInputs& in, const Options& o, Report& rep) {
  cfl::serve::ServeOptions so;
  so.socket_path = o.out_dir + "/probe-" + std::to_string(getpid()) + ".sock";
  so.workers = 2;
  so.sessions = 2;
  cfl::serve::QueryServer server(in.data, so);
  std::thread serve_thread([&server] { server.Serve(); });
  cfl::serve::ServeClient client;
  const bool up = WaitForServer(so.socket_path, client);
  std::vector<ServedQuery> served;
  double invalidated = 0, retained = 0;
  if (up) {
    const size_t k_max = std::min<size_t>(in.queries.size(), 20);
    cfl::Rng rng(13);
    for (int round = 0; round < 2; ++round) {  // cold, then relabeled
      for (size_t i = 0; i < k_max; ++i) {
        const Graph q =
            round == 0 ? in.queries[i] : Relabel(in.queries[i], rng);
        const double t0 = NowSeconds();
        const auto reply = client.Count(q, in.limits);
        const double rtt = (NowSeconds() - t0) * 1e3;
        if (!reply.ok) {
          rep.Fail("serve probe: " + reply.error);
          continue;
        }
        served.push_back({rtt, reply.outcome});
      }
    }
    UpdatePlan plan = in.plan;
    for (int k = 0; k < 4; ++k) {
      const auto reply = client.Update(plan.NextBatch());
      if (!reply.ok) {
        rep.Fail("serve probe update: " + reply.error);
        continue;
      }
      invalidated += static_cast<double>(reply.outcome.invalidated);
      retained += static_cast<double>(reply.outcome.retained);
    }
    client.Close();
  } else {
    rep.Fail("serve probe: server did not come up");
  }
  server.RequestShutdown();
  serve_thread.join();
  unlink(so.socket_path.c_str());
  SetServeMetrics(served, rep);
  rep.Set("dyn.invalidated_per_update", invalidated / 4, "count");
  rep.Set("dyn.retained_frac", Ratio(retained, retained + invalidated),
          "frac");
}

void ProbeTraceOverhead(const LayerInputs& in, cfl::CflMatcher& matcher,
                        Report& rep) {
  const size_t k_max = std::min<size_t>(in.queries.size(), 30);
  cfl::MatchOptions mopts;
  mopts.limits = in.limits;
  auto pass = [&](bool traced) {
    Tracer t;
    if (traced) t.Enable();
    const double t0 = NowSeconds();
    for (size_t i = 0; i < k_max; ++i) {
      Scoped root(t, "query", -1, i);
      Scoped s(t, "match.Match", root.id(), i);
      matcher.Match(in.queries[i], mopts);
    }
    return NowSeconds() - t0;
  };
  double off = 1e300, on = 1e300;
  for (int round = 0; round < 2; ++round) {
    off = std::min(off, pass(false));
    on = std::min(on, pass(true));
  }
  rep.Set("trace.overhead_frac", on / off - 1.0, "frac");
}

}  // namespace cflbench
