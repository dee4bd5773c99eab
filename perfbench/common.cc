#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "baseline/turboiso.h"
#include "bench.h"
#include "gen/query_gen.h"
#include "graph/graph_builder.h"
#include "match/engine.h"

namespace cflbench {

void SleepUntil(double t) {
  const double wait = t - NowSeconds();
  if (wait > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  // VmHWM follows ResetPeakRss(); ru_maxrss never goes down.
  if (FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

bool ResetPeakRss() {
  // Hand freed heap (the reference engines' per-thread arenas included)
  // back first, so the new high-water mark starts from what is live.
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

void PeakRssPhases::Record(Report& rep) const {
  const bool run_sets_it = run_mb >= inputs_mb || !reset;
  rep.Set("peak_rss_mb", run_sets_it ? run_mb : inputs_mb, "MB");
  rep.info["peak_rss_inputs_mb"] = std::to_string(inputs_mb);
  rep.info["peak_rss_run_mb"] = std::to_string(run_mb);
  rep.info["peak_rss_phase"] = !reset        ? "whole process (no reset)"
                               : run_sets_it ? "run"
                                             : "set-up and inputs";
}

// ---- Tracer -------------------------------------------------------------

int64_t Tracer::Begin(const std::string& name, int64_t parent,
                      uint64_t request) {
  if (!enabled_) return -1;
  const double t = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, t, t, parent, request});
  return static_cast<int64_t>(spans_.size() - 1);
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const double t = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end = t;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, std::pair<double, uint64_t>> Tracer::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent run one after another on one thread, so the
  // covered part of the parent is the sum of their (clipped) durations.
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const Span& p = spans_[static_cast<size_t>(s.parent)];
    const double lo = std::max(s.start, p.start);
    const double hi = std::min(s.end, p.end);
    if (hi > lo) covered[static_cast<size_t>(s.parent)] += hi - lo;
  }
  std::map<std::string, std::pair<double, uint64_t>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& slot = out[s.name];
    slot.first += std::max(0.0, (s.end - s.start) - covered[i]);
    slot.second++;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%lld,\"request\":%llu}\n",
                 i, s.name.c_str(), (s.start - t0) * 1e6, (s.end - t0) * 1e6,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

// ---- Report -------------------------------------------------------------

void Report::Fail(const std::string& what) {
  failed++;
  if (failures.size() < 8) failures.push_back(what);
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string ReportJson(const Report& r) {
  std::string out = "{\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) +
                    ",\"failures\":[";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    out += (i ? "," : "") + JsonString(r.failures[i]);
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    out += (first ? "" : ",") + JsonString(name) +
           ":{\"value\":" + JsonNumber(vu.first) +
           ",\"unit\":" + JsonString(vu.second) + "}";
    first = false;
  }
  out += "},\"info\":{";
  first = true;
  for (const auto& [k, v] : r.info) {
    out += (first ? "" : ",") + JsonString(k) + ":" + JsonString(v);
    first = false;
  }
  return out + "}}";
}

// ---- inputs -------------------------------------------------------------

Shape ToShape(const Graph& q) {
  Shape s;
  for (VertexId v = 0; v < q.NumVertices(); ++v) {
    s.labels.push_back(q.label(v));
    for (VertexId u : q.Neighbors(v)) {
      if (u > v) s.edges.emplace_back(v, u);
    }
  }
  return s;
}

Graph BuildRelabeled(const Shape& s, cfl::Rng& rng) {
  const uint32_t n = static_cast<uint32_t>(s.labels.size());
  std::vector<VertexId> perm(n);
  for (VertexId v = 0; v < n; ++v) perm[v] = v;
  for (uint32_t i = n; i > 1; --i) std::swap(perm[i - 1], perm[rng.Below(i)]);
  cfl::GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) b.SetLabel(perm[v], s.labels[v]);
  for (const auto& [v, u] : s.edges) b.AddEdge(perm[v], perm[u]);
  return std::move(b).Build();
}

std::vector<Graph> MakeQueries(const Graph& data, uint32_t count,
                               uint32_t vertices, bool sparse, uint64_t seed) {
  cfl::Rng rng(seed * 0x9e3779b97f4a7c15ULL + vertices * 2 + sparse);
  std::vector<Graph> out;
  out.reserve(count);
  while (out.size() < count) {
    cfl::QueryGenOptions o;
    o.num_vertices = vertices;
    o.sparse = sparse;
    o.seed = rng.Next64();
    Graph q = cfl::GenerateQuery(data, o);
    if (q.NumVertices() == vertices) out.push_back(std::move(q));
  }
  return out;
}

UpdatePlan::UpdatePlan(const Graph& data, uint64_t seed,
                       uint32_t toggle_edges, uint32_t churn_vertices)
    : churn_vertices_(churn_vertices),
      churn_label_(data.NumLabels()),
      next_vertex_(data.NumVertices()) {
  cfl::Rng rng(seed ^ 0x5eed0fdeu);
  const uint32_t n = data.NumVertices();
  // Endpoints carry labels from the rarer half, so a batch dirties few
  // labels and invalidates few cached plans; with common labels every batch
  // dropped nearly every plan and the served rate swung with the hit rate.
  std::vector<uint32_t> freq(data.NumLabels(), 0);
  for (VertexId v = 0; v < n; ++v) freq[data.label(v)]++;
  std::vector<uint32_t> by_freq(freq);
  std::sort(by_freq.begin(), by_freq.end());
  const uint32_t rare_max = by_freq[by_freq.size() / 2];
  uint64_t attempts = 0;
  auto rare = [&](VertexId v) {
    return freq[data.label(v)] <= rare_max || ++attempts > 10'000'000;
  };
  auto key = [](VertexId a, VertexId b) {
    return std::make_pair(std::min(a, b), std::max(a, b));
  };
  while (present_.size() < toggle_edges) {
    const VertexId u = static_cast<VertexId>(rng.Below(n));
    const auto nb = data.Neighbors(u);
    if (nb.empty() || !rare(u)) continue;
    const VertexId v = nb[rng.Below(nb.size())];
    if (!rare(v)) continue;
    const auto e = key(u, v);
    if (std::find(present_.begin(), present_.end(), e) == present_.end()) {
      present_.push_back(e);
    }
  }
  while (absent_.size() < toggle_edges) {
    const VertexId u = static_cast<VertexId>(rng.Below(n));
    const VertexId v = static_cast<VertexId>(rng.Below(n));
    if (u == v || !rare(u) || !rare(v) || data.HasEdge(u, v)) continue;
    const auto e = key(u, v);
    if (std::find(absent_.begin(), absent_.end(), e) == absent_.end()) {
      absent_.push_back(e);
    }
  }
}

std::vector<cfl::serve::UpdateOp> UpdatePlan::NextBatch() {
  using Op = cfl::serve::UpdateOp;
  std::vector<Op> ops;
  // Even batches move state 0 -> 1, odd ones back.
  const bool to_one = batch_++ % 2 == 0;
  for (const auto& [u, v] : present_) {
    ops.push_back({to_one ? Op::Kind::kRemoveEdge : Op::Kind::kAddEdge, u, v});
  }
  for (const auto& [u, v] : absent_) {
    ops.push_back({to_one ? Op::Kind::kAddEdge : Op::Kind::kRemoveEdge, u, v});
  }
  for (VertexId v : last_added_) ops.push_back({Op::Kind::kRemoveVertex, v, 0});
  last_added_.clear();
  for (uint32_t i = 0; i < churn_vertices_; ++i) {
    ops.push_back({Op::Kind::kAddVertex, churn_label_, 0});
    last_added_.push_back(static_cast<VertexId>(next_vertex_++));
  }
  return ops;
}

Graph UpdatePlan::ToggledGraph(const Graph& data) const {
  const uint32_t n = data.NumVertices();
  cfl::GraphBuilder b(n);
  for (VertexId v = 0; v < n; ++v) b.SetLabel(v, data.label(v));
  for (VertexId v = 0; v < n; ++v) {
    for (VertexId w : data.Neighbors(v)) {
      if (w > v && std::find(present_.begin(), present_.end(),
                             std::make_pair(v, w)) == present_.end()) {
        b.AddEdge(v, w);
      }
    }
  }
  for (const auto& [u, v] : absent_) b.AddEdge(u, v);
  return std::move(b).Build();
}

// ---- references ---------------------------------------------------------

uint32_t ReferenceThreads() {
  return std::clamp<uint32_t>(std::thread::hardware_concurrency(), 1, 4);
}

std::vector<Reference> ComputeReferences(const Graph& data,
                                         const std::vector<Graph>& queries,
                                         uint64_t cap, double time_limit,
                                         RefEngine engine, uint32_t threads) {
  std::vector<Reference> refs(queries.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    std::unique_ptr<cfl::SubgraphEngine> e =
        engine == RefEngine::kTurboIso ? cfl::MakeTurboIso(data)
                                       : cfl::MakeCfMatch(data);
    cfl::MatchLimits limits;
    limits.max_embeddings = cap;
    limits.time_limit_seconds = time_limit;
    for (size_t i = next++; i < queries.size(); i = next++) {
      const cfl::MatchResult r = e->Run(queries[i], limits);
      refs[i].ok = !r.timed_out;
      refs[i].count = r.embeddings;
      refs[i].capped = r.embeddings >= cap;
    }
  };
  std::vector<std::thread> pool;
  for (uint32_t t = 1; t < threads; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  return refs;
}

void CheckedPass(const std::vector<CheckedQuery>& qs,
                 const std::vector<size_t>& which, uint64_t cap,
                 const std::function<cfl::MatchResult(const Graph&)>& match,
                 const std::string& path, const std::string& span,
                 Tracer& tracer, Report& rep, LibraryPassResult& out) {
  const double t0 = NowSeconds();
  for (size_t i : which) {
    cfl::MatchResult r;
    const double wall0 = NowSeconds();
    const double cpu0 = ThreadCpuSeconds();
    {
      Scoped s(tracer, span, -1, out.queries);
      r = match(qs[i].query);
    }
    out.cpu_ms.push_back((ThreadCpuSeconds() - cpu0) * 1e3);
    out.latency_ms.push_back((NowSeconds() - wall0) * 1e3);
    // Leaf products are added whole, so a capped count may overshoot the
    // cap; count only the embeddings the caller asked for.
    out.embeddings += std::min<uint64_t>(r.embeddings, cap);
    out.queries++;
    rep.attempted++;
    const std::string bad =
        CheckCount(qs[i].ref, r.embeddings, r.reached_limit);
    if (!bad.empty() || r.timed_out) {
      rep.Fail(path + " query " + std::to_string(i) + ": " +
               (bad.empty() ? "timed out" : bad));
    }
  }
  out.wall_s += NowSeconds() - t0;
}

std::string CheckCount(const Reference& ref, uint64_t embeddings,
                       bool reached_limit) {
  if (!ref.ok) return "no reference";
  if (ref.capped ? (reached_limit && embeddings >= ref.count)
                 : (!reached_limit && embeddings == ref.count)) {
    return "";
  }
  return "count " + std::to_string(embeddings) +
         (reached_limit ? " (capped)" : "") + ", reference " +
         std::to_string(ref.count) + (ref.capped ? " (capped)" : "");
}

}  // namespace cflbench
