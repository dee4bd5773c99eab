// serve_churn: an in-process QueryServer under a closed loop of query
// clients plus an open-loop updater, on the hprd-like graph.
//
// Matcher work per query is a fraction of a millisecond here, so the
// protocol, canonical hash, plan cache, admission and epoch folding carry
// the latency. Writes run beside reads, so a change that speeds queries by
// making updates cost more shows in update_p50_ms / update_p95_ms.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "bench.h"
#include "gen/datasets.h"
#include "layers.h"
#include "match/cfl_match.h"
#include "parallel/parallel_match.h"
#include "serve/client.h"
#include "serve/server.h"

namespace cflbench {
namespace {

constexpr uint32_t kClients = 2;
constexpr uint32_t kWorkers = 2;
constexpr uint32_t kMissEvery = 10;        // one query in 10 is a new shape
constexpr uint32_t kHitShapes = 48;
constexpr uint32_t kMissShapes = 48000;    // about twice what a run sends
constexpr uint32_t kMissChunk = 4000;      // generated and counted at a time
constexpr uint64_t kUniverseSeed = 1;
constexpr uint64_t kCap = 1'000'000;
constexpr double kUpdateRate = 10.0;       // batches per second
constexpr uint32_t kToggleEdges = 2;
constexpr uint32_t kChurnVertices = 24;
constexpr int kSetupRepeats = 3;
// Room for the hit shapes and a few thousand never-seen ones, so LRU
// eviction keeps the cache (and the invalidation scan) a steady size.
constexpr uint64_t kCacheBytes = 16ull << 20;
constexpr double kLibraryShare = 0.1;      // each of the two library passes

std::vector<Graph> MakeShapes(const Graph& data, uint32_t count,
                              uint64_t seed) {
  const uint32_t sizes[] = {8, 12, 16};
  std::vector<Graph> out;
  for (uint32_t i = 0; i < 3; ++i) {
    for (Graph& q : MakeQueries(data, count / 3, sizes[i], true, seed)) {
      out.push_back(std::move(q));
    }
  }
  return out;
}

// Two reference counts per shape, one for each toggle state.
struct ShapeSet {
  std::vector<Shape> shapes;
  std::vector<uint64_t> count0, count1;
};

// Counts `graphs` in both toggle states and adds them to `set`; shapes the
// reference cannot count exactly below the cap are dropped.
void AddWithReferences(const Graph& g0, const Graph& g1,
                       const std::vector<Graph>& graphs, ShapeSet& set) {
  const uint32_t threads = ReferenceThreads();
  const auto r0 =
      ComputeReferences(g0, graphs, kCap, 30.0, RefEngine::kTurboIso, threads);
  const auto r1 =
      ComputeReferences(g1, graphs, kCap, 30.0, RefEngine::kTurboIso, threads);
  for (size_t i = 0; i < graphs.size(); ++i) {
    if (!r0[i].ok || !r1[i].ok || r0[i].capped || r1[i].capped) continue;
    set.shapes.push_back(ToShape(graphs[i]));
    set.count0.push_back(r0[i].count);
    set.count1.push_back(r1[i].count);
  }
}

// A QueryServer serving on its own thread; stopped and joined on Stop()
// or destruction.
struct RunningServer {
  RunningServer() = default;
  ~RunningServer() { Stop(); }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  std::unique_ptr<cfl::serve::QueryServer> server;
  std::thread thread;

  void Stop() {
    if (!server) return;
    server->RequestShutdown();
    thread.join();
    server.reset();
  }
};

// Checked passes of `match` over every shape of `qs` until `seconds` have
// passed (at least one pass).
LibraryPassResult TimedPasses(
    const std::vector<CheckedQuery>& qs,
    const std::function<cfl::MatchResult(const Graph&)>& match,
    const std::string& path, const std::string& span, double seconds,
    Tracer& tracer, Report& rep) {
  std::vector<size_t> all(qs.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = i;
  LibraryPassResult res;
  const double t0 = NowSeconds();
  do {
    CheckedPass(qs, all, kCap, match, path, span, tracer, rep, res);
  } while (NowSeconds() < t0 + seconds);
  return res;
}

}  // namespace

Report RunServeChurn(const Options& o, Tracer& tracer) {
  Report rep;
  const std::string sock =
      o.out_dir + "/serve-" + std::to_string(getpid()) + ".sock";
  cfl::serve::ServeOptions so;
  so.socket_path = sock;
  so.workers = kWorkers;
  so.sessions = kClients + 2;
  so.cache_bytes = kCacheBytes;
  // One worker per query: matcher work is a few tens of microseconds, less
  // than waking a second worker, and with up to two per query the served
  // rate swung by a fifth from run to run with thread wake-up latency.
  so.max_quota = 1;

  // Set-up, repeated: graph build, then server start until the first PONG.
  std::vector<double> setup_s, build_s, init_s;
  std::unique_ptr<Graph> data;
  RunningServer rs;
  for (int i = 0; i < kSetupRepeats; ++i) {
    rs.Stop();
    unlink(sock.c_str());
    const double t0 = NowSeconds();
    data = std::make_unique<Graph>(cfl::MakeHprdLike(1.0));
    const double t1 = NowSeconds();
    rs.server = std::make_unique<cfl::serve::QueryServer>(*data, so);
    rs.thread = std::thread([s = rs.server.get()] { s->Serve(); });
    cfl::serve::ServeClient ping;
    if (!WaitForServer(sock, ping)) {
      rep.Fail("server did not come up");
      rs.Stop();
      return rep;
    }
    setup_s.push_back(NowSeconds() - t0);
    build_s.push_back(t1 - t0);
    const double t2 = NowSeconds();
    { cfl::CflMatcher m(*data); }
    init_s.push_back(NowSeconds() - t2);
  }

  // Inputs and their two reference counts (outside set-up time and
  // outside peak_rss_mb).
  PeakRssPhases rss;
  rss.inputs_mb = PeakRssMb();
  const double ref_t0 = NowSeconds();
  // Shapes and update edges come from a fixed universe so every run does
  // comparable work (edges drawn per seed moved the hit rate, and with it
  // the served rate, by a tenth); the seed draws every query's vertex
  // numbering and the order the never-seen shapes arrive in.
  UpdatePlan plan(*data, kUniverseSeed, kToggleEdges, kChurnVertices);
  const Graph toggled = plan.ToggledGraph(*data);
  const std::vector<Graph> hit_graphs =
      MakeShapes(*data, kHitShapes, kUniverseSeed);
  ShapeSet hits, misses;
  AddWithReferences(*data, toggled, hit_graphs, hits);
  for (uint32_t chunk = 0; chunk * kMissChunk < kMissShapes; ++chunk) {
    AddWithReferences(
        *data, toggled,
        MakeShapes(*data, kMissChunk, kUniverseSeed + 7919 + chunk), misses);
  }
  cfl::Rng shape_rng(o.seed ^ 0x3155u);
  for (size_t i = misses.shapes.size(); i > 1; --i) {
    const size_t j = shape_rng.Below(i);
    std::swap(misses.shapes[i - 1], misses.shapes[j]);
    std::swap(misses.count0[i - 1], misses.count0[j]);
    std::swap(misses.count1[i - 1], misses.count1[j]);
  }
  rep.info["reference_s"] = std::to_string(NowSeconds() - ref_t0);
  rep.info["hit_shapes"] = std::to_string(hits.shapes.size());
  rep.info["miss_shapes"] = std::to_string(misses.shapes.size());
  if (hits.shapes.empty() || misses.shapes.empty()) {
    rep.Fail("empty shape pool");
    rs.Stop();
    return rep;
  }
  if (o.corrupt_reference) hits.count0[0] += 1, hits.count1[0] += 1;

  // The library passes over the checked shape pool (embeddings_per_s and
  // par2_embeddings_per_s), while the server idles in toggle state 0.
  rss.reset = ResetPeakRss();
  LibraryPassResult serial, par2;
  {
    std::vector<CheckedQuery> checked;
    for (size_t i = 0; i < hits.shapes.size(); ++i) {
      Reference ref;
      ref.count = hits.count0[i];
      ref.ok = true;
      checked.push_back({BuildRelabeled(hits.shapes[i], shape_rng), ref});
    }
    cfl::MatchOptions mopts;
    mopts.limits.max_embeddings = kCap;
    cfl::CflMatcher matcher(*data);
    serial = TimedPasses(
        checked, [&](const Graph& q) { return matcher.Match(q, mopts); },
        "library", "match.Match", kLibraryShare * o.seconds, tracer, rep);
    cfl::ParallelCflMatcher pm(*data, 2);
    par2 = TimedPasses(
        checked, [&](const Graph& q) { return pm.Match(q, mopts); }, "par2",
        "parallel.Match", kLibraryShare * o.seconds, tracer, rep);
  }

  // The served phase.
  const double window = (1.0 - 2 * kLibraryShare) * o.seconds;
  cfl::MatchLimits limits;
  limits.max_embeddings = kCap;
  limits.time_limit_seconds = 30.0;
  std::atomic<size_t> miss_cursor{0};
  std::atomic<uint64_t> served_embeddings{0};
  std::mutex mu;  // guards rep and the sample vectors below
  std::vector<ServedQuery> served;
  std::vector<double> update_ms, late_ms;
  double invalidated = 0, retained = 0;
  const double t_start = NowSeconds();
  const double t_stop = t_start + window;

  auto client_loop = [&](uint32_t c) {
    cfl::serve::ServeClient client;
    if (!client.Connect(sock)) {
      std::lock_guard<std::mutex> lock(mu);
      rep.attempted++;
      rep.Fail("client connect: " + client.error());
      return;
    }
    cfl::Rng rng(o.seed * 31 + c);
    std::vector<ServedQuery> mine;
    std::vector<std::string> bad;
    uint64_t attempted = 0;
    for (uint64_t k = 0; NowSeconds() < t_stop; ++k) {
      const ShapeSet* set = &hits;
      size_t idx = rng.Below(hits.shapes.size());
      if (rng.Below(kMissEvery) == 0) {
        const size_t m = miss_cursor++;
        if (m < misses.shapes.size()) set = &misses, idx = m;
      }
      const Graph q = BuildRelabeled(set->shapes[idx], rng);
      const uint64_t request = (static_cast<uint64_t>(c) << 32) | k;
      Scoped span(tracer, "serve.Count", -1, request);
      const double t0 = NowSeconds();
      const auto reply = client.Count(q, limits);
      const double rtt = (NowSeconds() - t0) * 1e3;
      attempted++;
      if (!reply.ok) {
        bad.push_back("query: " + reply.error);
        if (!client.connected()) break;
        continue;
      }
      const uint64_t n = reply.outcome.embeddings;
      if (reply.outcome.timed_out || reply.outcome.reached_limit ||
          (n != set->count0[idx] && n != set->count1[idx])) {
        bad.push_back("shape " + std::to_string(idx) + ": count " +
                      std::to_string(n) + ", expected " +
                      std::to_string(set->count0[idx]) + " or " +
                      std::to_string(set->count1[idx]));
      }
      served_embeddings += n;
      mine.push_back({rtt, reply.outcome});
    }
    std::lock_guard<std::mutex> lock(mu);
    rep.attempted += attempted;
    for (const std::string& b : bad) rep.Fail(b);
    served.insert(served.end(), mine.begin(), mine.end());
  };

  auto updater = [&] {
    cfl::serve::ServeClient client;
    const bool connected = client.Connect(sock);
    const uint64_t batches = static_cast<uint64_t>(kUpdateRate * window);
    for (uint64_t k = 0; k < batches; ++k) {
      const double due = t_start + static_cast<double>(k) / kUpdateRate;
      SleepUntil(due);
      const double start = NowSeconds();
      const auto ops = plan.NextBatch();
      Scoped span(tracer, "serve.Update", -1, (1ull << 63) | k);
      const auto reply = connected ? client.Update(ops)
                                   : cfl::serve::ServeClient::UpdateReply{};
      const double end = NowSeconds();
      std::lock_guard<std::mutex> lock(mu);
      rep.attempted++;
      late_ms.push_back((start - due) * 1e3);
      update_ms.push_back((end - due) * 1e3);
      if (!reply.ok) {
        rep.Fail("update " + std::to_string(k) + ": " +
                 (connected ? reply.error : client.error()));
        continue;
      }
      invalidated += static_cast<double>(reply.outcome.invalidated);
      retained += static_cast<double>(reply.outcome.retained);
    }
  };

  std::vector<std::thread> threads_v;
  for (uint32_t c = 0; c < kClients; ++c) {
    threads_v.emplace_back(client_loop, c);
  }
  threads_v.emplace_back(updater);
  for (std::thread& t : threads_v) t.join();
  const double served_wall = NowSeconds() - t_start;
  rss.run_mb = PeakRssMb();

  std::map<std::string, uint64_t> stats;
  {
    cfl::serve::ServeClient c;
    if (c.Connect(sock)) stats = c.Stats();
  }
  rs.Stop();
  unlink(sock.c_str());

  std::vector<double> rtt;
  for (const ServedQuery& s : served) rtt.push_back(s.rtt_ms);
  rep.Set("setup_s", Median(setup_s), "s");
  rep.Set("query_p50_ms", Median(rtt), "ms");
  rep.Set("query_p95_ms", Quantile(rtt, 0.95), "ms");
  rep.Set("queries_per_s", static_cast<double>(served.size()) / served_wall,
          "1/s");
  rep.Set("embeddings_per_s", serial.embeddings / serial.wall_s, "1/s");
  rep.Set("par2_embeddings_per_s", par2.embeddings / par2.wall_s, "1/s");
  rep.Set("update_p50_ms", Median(update_ms), "ms");
  rep.Set("update_p95_ms", Quantile(update_ms, 0.95), "ms");
  rep.info["queries"] = std::to_string(served.size());
  rep.info["updates"] = std::to_string(update_ms.size());
  rep.info["misses_sent"] =
      std::to_string(std::min(miss_cursor.load(), misses.shapes.size()));
  rep.info["served_embeddings"] = std::to_string(served_embeddings.load());
  rep.info["compactions"] = std::to_string(stats["compactions"]);

  rep.info["setup_repeats"] = std::to_string(kSetupRepeats);
  if (miss_cursor.load() > misses.shapes.size()) {
    rep.info["miss_pool_exhausted"] = "1";
  }

  if (tracer.enabled()) {
    rep.Set("graph.build_s", Median(build_s), "s");
    rep.Set("match.matcher_init_s", Median(init_s), "s");
    rep.Set("gen.update_late_ms_p95", Quantile(late_ms, 0.95), "ms");
    rep.Set("dyn.compactions", static_cast<double>(stats["compactions"]),
            "count");
    rep.Set("dyn.update_retries", static_cast<double>(stats["update_retries"]),
            "count");
    const double batches = static_cast<double>(update_ms.size());
    rep.Set("dyn.invalidated_per_update",
            batches > 0 ? invalidated / batches : 0.0, "count");
    rep.Set("dyn.retained_frac",
            retained + invalidated > 0 ? retained / (retained + invalidated)
                                       : 0.0,
            "frac");
    SetServeMetrics(served, rep);
    LayerInputs in{*data, hit_graphs, limits,
                   UpdatePlan(*data, kUniverseSeed, kToggleEdges,
                              kChurnVertices)};
    ProbeLibraryLayers(in, tracer, rep);
    cfl::CflMatcher matcher(*data);
    ProbeTraceOverhead(in, matcher, rep);
  }
  rss.Record(rep);
  return rep;
}

}  // namespace cflbench
