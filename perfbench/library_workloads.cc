// The library-path workloads: prepare_cold and enum_deep.
//
// One caller drives serial CflMatcher::Match over the workload's queries,
// ParallelCflMatcher at two threads over half of them, and an open-loop
// stream of update batches through the library's update path
// (DynamicGraph::Apply), in rounds that fill --seconds.

#include <algorithm>
#include <functional>
#include <memory>

#include "bench.h"
#include "dyn/dynamic_graph.h"
#include "gen/datasets.h"
#include "gen/synthetic.h"
#include "layers.h"
#include "match/cfl_match.h"
#include "parallel/parallel_match.h"

namespace cflbench {
namespace {

struct QueryClass {
  uint32_t vertices;
  bool sparse;
};

struct LibrarySpec {
  std::function<Graph()> make_graph;
  std::vector<QueryClass> classes;
  uint32_t per_class = 0;  // pool size is per_class * classes.size()
  uint64_t cap = 0;
  RefEngine ref_engine = RefEngine::kTurboIso;
  // Universe indices left out because the reference engine could not count
  // them within `skip_limit` seconds when the benchmark was defined (see
  // README: no single query may dominate a run). Sorted; regenerate with
  // --calibrate.
  std::vector<size_t> skip;
  double skip_limit = 0.0;
  uint32_t batches_per_round = 0;
  double update_rate = 0.0;  // batches per second, open loop
};

constexpr int kSetupRepeats = 3;
constexpr uint64_t kUniverseSeed = 1;
// Edges each library update batch flips (no vertex churn: see
// LibraryUpdater).
constexpr uint32_t kToggleEdges = 4;

// Run-time reference counts may take this many times the calibration limit
// before the run fails.
constexpr double kReferenceMargin = 20.0;

// The universe indices whose reference count misses spec.skip_limit in any
// of three tries, comma-separated.
std::string Calibrate(const Graph& data, const std::vector<Graph>& universe,
                      const LibrarySpec& spec) {
  std::vector<bool> slow(universe.size(), false);
  for (int round = 0; round < 3; ++round) {
    const auto refs = ComputeReferences(data, universe, spec.cap,
                                        spec.skip_limit, spec.ref_engine,
                                        ReferenceThreads());
    for (size_t i = 0; i < refs.size(); ++i) slow[i] = slow[i] || !refs[i].ok;
  }
  std::string out;
  for (size_t i = 0; i < slow.size(); ++i) {
    if (slow[i]) out += (out.empty() ? "" : ",") + std::to_string(i);
  }
  return out;
}

Report RunLibrary(const Options& o, Tracer& tracer, const LibrarySpec& spec) {
  Report rep;

  // Set-up, repeated: the graph build plus matcher construction.
  std::vector<double> setup_s, build_s, init_s;
  std::unique_ptr<Graph> data;
  std::unique_ptr<cfl::CflMatcher> matcher;
  for (int i = 0; i < kSetupRepeats; ++i) {
    matcher.reset();
    data.reset();
    const double t0 = NowSeconds();
    data = std::make_unique<Graph>(spec.make_graph());
    const double t1 = NowSeconds();
    matcher = std::make_unique<cfl::CflMatcher>(*data);
    const double t2 = NowSeconds();
    setup_s.push_back(t2 - t0);
    build_s.push_back(t1 - t0);
    init_s.push_back(t2 - t1);
  }

  // The query pool. Shapes come from a fixed universe so that every run
  // does comparable work; the seed draws each query's vertex numbering and
  // the order queries run in. The universe index decides the two-thread
  // subset, so that subset is the same in every run too.
  std::vector<Graph> pool;
  for (const QueryClass& c : spec.classes) {
    for (Graph& q : MakeQueries(*data, spec.per_class, c.vertices, c.sparse,
                                kUniverseSeed)) {
      pool.push_back(std::move(q));
    }
  }

  if (o.calibrate) {
    rep.info["skip"] = Calibrate(*data, pool, spec);
    return rep;
  }

  // Reference counts, outside set-up time and outside peak_rss_mb.
  PeakRssPhases rss;
  rss.inputs_mb = PeakRssMb();
  std::vector<size_t> universe_index;
  std::vector<Graph> kept;
  for (size_t i = 0; i < pool.size(); ++i) {
    if (std::binary_search(spec.skip.begin(), spec.skip.end(), i)) continue;
    universe_index.push_back(i);
    kept.push_back(std::move(pool[i]));
  }
  const double ref_t0 = NowSeconds();
  const std::vector<Reference> refs = ComputeReferences(
      *data, kept, spec.cap, kReferenceMargin * spec.skip_limit,
      spec.ref_engine, ReferenceThreads());
  rep.info["reference_s"] = std::to_string(NowSeconds() - ref_t0);

  struct Entry {
    CheckedQuery q;
    bool in_par2;
  };
  std::vector<Entry> entries;
  cfl::Rng rng(o.seed);
  for (size_t i = 0; i < kept.size(); ++i) {
    if (!refs[i].ok) {
      rep.attempted++;
      rep.Fail("reference engine did not finish universe query " +
               std::to_string(universe_index[i]));
      continue;
    }
    entries.push_back(
        {{Relabel(kept[i], rng), refs[i]}, universe_index[i] % 2 == 0});
  }
  for (size_t i = entries.size(); i > 1; --i) {
    std::swap(entries[i - 1], entries[rng.Below(i)]);
  }
  std::vector<CheckedQuery> run;
  std::vector<size_t> all, half;
  for (Entry& e : entries) {
    all.push_back(run.size());
    if (e.in_par2) half.push_back(run.size());
    run.push_back(std::move(e.q));
  }
  kept.clear();
  rep.info["pool"] = std::to_string(run.size());
  if (run.empty()) {
    rep.Fail("empty query pool");
    return rep;
  }
  if (o.corrupt_reference) run[0].ref.count += 1, run[0].ref.capped = false;

  cfl::MatchOptions mopts;
  mopts.limits.max_embeddings = spec.cap;

  // Rounds of: one serial pass over the pool (the workload's query path),
  // one two-thread pass over the fixed half of the pool, and a stretch of
  // open-loop update batches. Rounds repeat while another fits in
  // --seconds (at least one), so every metric samples the whole run and
  // the work per run does not depend on where a time limit cuts a pass.
  LibraryPassResult serial, par2;
  cfl::ParallelCflMatcher pm(*data, 2);
  LibraryUpdater updater(*data,
                         UpdatePlan(*data, kUniverseSeed, kToggleEdges, 0));
  rss.reset = ResetPeakRss();
  const auto serial_match = [&](const Graph& q) {
    return matcher->Match(q, mopts);
  };
  const auto par2_match = [&](const Graph& q) { return pm.Match(q, mopts); };
  const double run_t0 = NowSeconds();
  for (int rounds = 1;; ++rounds) {
    CheckedPass(run, all, spec.cap, serial_match, "serial", "match.Match",
                tracer, rep, serial);
    CheckedPass(run, half, spec.cap, par2_match, "par2", "parallel.Match",
                tracer, rep, par2);
    updater.Run(spec.batches_per_round, spec.update_rate, tracer);
    const double elapsed = NowSeconds() - run_t0;
    if (elapsed * (1.0 + 1.0 / rounds) > o.seconds) break;
  }
  rss.run_mb = PeakRssMb();
  const UpdateStreamResult& upd = updater.result();
  rep.attempted += upd.attempted;
  for (const std::string& f : upd.failures) rep.Fail(f);

  rep.Set("setup_s", Median(setup_s), "s");
  rep.Set("query_p50_ms", Median(serial.latency_ms), "ms");
  rep.Set("query_p95_ms", Quantile(serial.latency_ms, 0.95), "ms");
  rep.Set("queries_per_s", serial.queries / serial.wall_s, "1/s");
  rep.Set("embeddings_per_s", serial.embeddings / serial.wall_s, "1/s");
  rep.Set("par2_embeddings_per_s", par2.embeddings / par2.wall_s, "1/s");
  rep.Set("update_p50_ms", Median(upd.latency_ms), "ms");
  rep.Set("update_p95_ms", Quantile(upd.latency_ms, 0.95), "ms");
  rep.Set("query_cpu_p50_ms", Median(serial.cpu_ms), "ms");
  rep.info["queries"] = std::to_string(serial.queries);
  rep.info["par2_queries"] = std::to_string(par2.queries);
  rep.info["updates"] = std::to_string(upd.latency_ms.size());
  rep.info["setup_repeats"] = std::to_string(kSetupRepeats);

  if (tracer.enabled()) {
    std::vector<Graph> queries;
    for (const CheckedQuery& q : run) queries.push_back(q.query);
    LayerInputs in{*data, queries, mopts.limits,
                   UpdatePlan(*data, kUniverseSeed, kToggleEdges, 0)};
    rep.Set("graph.build_s", Median(build_s), "s");
    rep.Set("match.matcher_init_s", Median(init_s), "s");
    rep.Set("gen.update_late_ms_p95", Quantile(upd.late_ms, 0.95), "ms");
    rep.Set("dyn.compactions", static_cast<double>(updater.compactions()),
            "count");
    rep.Set("dyn.update_retries", static_cast<double>(upd.retries), "count");
    ProbeLibraryLayers(in, tracer, rep);
    ProbeServeLayers(in, o, rep);
    ProbeTraceOverhead(in, *matcher, rep);
  }
  rss.Record(rep);
  return rep;
}

}  // namespace

void LibraryUpdater::Run(uint64_t batches, double rate, Tracer& tracer) {
  const double t0 = NowSeconds();
  for (uint64_t k = 0; k < batches; ++k) {
    const double due = t0 + static_cast<double>(k) / rate;
    // Spin rather than sleep: nothing else runs in this phase, and waking
    // an idle vCPU cost up to milliseconds on a busy host, which entered
    // every latency timed from the due time.
    while (NowSeconds() < due) {
    }
    const double start = NowSeconds();
    out_.late_ms.push_back((start - due) * 1e3);
    const std::vector<cfl::serve::UpdateOp> ops = plan_.NextBatch();
    Scoped span(tracer, "dyn.Apply", -1, out_.attempted);
    out_.attempted++;
    std::optional<std::string> err = ApplyOps(dg_, ops, &out_.retries);
    out_.latency_ms.push_back((NowSeconds() - due) * 1e3);
    if (err.has_value()) {
      out_.failures.push_back("update " + std::to_string(out_.attempted) +
                              ": " + *err);
    }
  }
}

Report RunPrepareCold(const Options& o, Tracer& tracer) {
  LibrarySpec spec;
  spec.make_graph = [] { return cfl::MakeSynthetic(cfl::SyntheticOptions{}); };
  spec.classes = {{25, true},  {25, false}, {50, true},
                  {50, false}, {100, true}, {100, false}};
  spec.per_class = 40;
  spec.cap = 1000;
  spec.ref_engine = RefEngine::kTurboIso;
  spec.skip_limit = 0.3;
  spec.skip = {48, 59, 97, 132, 138, 196, 210, 211, 221, 227, 228, 234, 237};
  // A fold of this graph takes about 10 ms; a round is one pass plus 200
  // batches, so the p95 has 10 samples beyond it even when one round fills
  // the run.
  spec.batches_per_round = 200;
  spec.update_rate = 30.0;
  return RunLibrary(o, tracer, spec);
}

Report RunEnumDeep(const Options& o, Tracer& tracer) {
  LibrarySpec spec;
  spec.make_graph = [] { return cfl::MakeHumanLike(1.0); };
  spec.classes = {{15, true}, {16, true}, {17, true},
                  {18, true}, {19, true}, {20, true}};
  spec.per_class = 60;
  spec.cap = 1'000'000;
  spec.ref_engine = RefEngine::kCfMatch;
  spec.skip_limit = 0.25;
  spec.skip = {7, 58, 64, 230, 250, 251, 289, 304, 318, 322, 356};
  // Folds take about 1 ms here: many samples keep update_p95_ms steady.
  spec.batches_per_round = 300;
  spec.update_rate = 200.0;
  return RunLibrary(o, tracer, spec);
}

}  // namespace cflbench
