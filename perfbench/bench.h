// Shared pieces of cflbench, the repository benchmark's measuring program.
//
// cflbench builds each workload's inputs from a seed, drives the library
// or an in-process QueryServer from outside, checks every answer against a
// reference engine, and prints one JSON object of measurements. Nothing in
// here reaches inside the library: timings come from cflbench's clock
// around calls into public functions, and counters are read from the
// MatchResult / MatchStats fields and the server's RESULT, UPDATED and STATS
// lines.

#ifndef CFLBENCH_BENCH_H_
#define CFLBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gen/rng.h"
#include "graph/graph.h"
#include "match/embedding.h"
#include "serve/protocol.h"

namespace cflbench {

using cfl::Graph;
using cfl::VertexId;

// ---- clock --------------------------------------------------------------

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Sleeps until the steady-clock time `t` (seconds, NowSeconds() base).
void SleepUntil(double t);

// ---- statistics ---------------------------------------------------------

// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Sum(const std::vector<double>& v);

// CPU time of the calling thread, in seconds.
double ThreadCpuSeconds();

// Peak resident set size of this process since the last successful
// ResetPeakRss() (since start otherwise), in MiB.
double PeakRssMb();

// Restarts the peak at the current resident set (Linux clear_refs). False
// when the host does not allow it.
bool ResetPeakRss();

// ---- tracing ------------------------------------------------------------

// In-memory span recorder. A span covers one call cflbench makes into a
// module's public function; spans of one request share `request`, and a
// child names its parent's index. Disabled tracers record nothing, so the
// untraced run pays one branch per boundary.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;
    uint64_t request = 0;
  };

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  // Returns the span's index (-1 when disabled).
  int64_t Begin(const std::string& name, int64_t parent, uint64_t request);
  void End(int64_t id);

  // Self time per span name: duration minus the part covered by children.
  std::map<std::string, std::pair<double, uint64_t>> SelfTimes() const;
  bool WriteJsonl(const std::string& path) const;
  size_t size() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span; a no-op when the tracer is disabled.
class Scoped {
 public:
  Scoped(Tracer& t, const std::string& name, int64_t parent = -1,
         uint64_t request = 0)
      : t_(t), id_(t.Begin(name, parent, request)) {}
  ~Scoped() { t_.End(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& t_;
  int64_t id_;
};

// ---- results ------------------------------------------------------------

// What one workload run reports. `metrics` holds name -> (value, unit).
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // first few failure descriptions
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> info;  // printed, not compared

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fail(const std::string& what);
};

std::string ReportJson(const Report& r);

// ---- inputs -------------------------------------------------------------

// A query kept as labels plus an edge list, a small fraction of a Graph's
// footprint: tens of thousands of never-seen serve shapes would otherwise
// dominate peak_rss_mb.
struct Shape {
  std::vector<cfl::Label> labels;
  std::vector<std::pair<VertexId, VertexId>> edges;
};

Shape ToShape(const Graph& q);

// The shape under a random vertex renumbering (same graph, different ids).
Graph BuildRelabeled(const Shape& s, cfl::Rng& rng);

inline Graph Relabel(const Graph& q, cfl::Rng& rng) {
  return BuildRelabeled(ToShape(q), rng);
}

// Query generation with the seed mixed into every query's own seed, so
// sets from neighbouring workload seeds share no query.
std::vector<Graph> MakeQueries(const Graph& data, uint32_t count,
                               uint32_t vertices, bool sparse, uint64_t seed);

// The update stream shared by every workload: each batch flips a fixed set
// of edges between two states (so every query has exactly two valid
// answers), and adds and removes vertices of a label no query uses (so the
// background compactor has work).
class UpdatePlan {
 public:
  UpdatePlan(const Graph& data, uint64_t seed, uint32_t toggle_edges,
             uint32_t churn_vertices);

  // Ops of the next batch, in the serve protocol's form.
  std::vector<cfl::serve::UpdateOp> NextBatch();

  // The data graph in toggle state 1 (state 0 is the input graph).
  Graph ToggledGraph(const Graph& data) const;

 private:
  std::vector<std::pair<VertexId, VertexId>> present_;  // edges of state 0
  std::vector<std::pair<VertexId, VertexId>> absent_;   // edges of state 1
  uint32_t churn_vertices_ = 0;
  uint32_t churn_label_ = 0;
  uint64_t next_vertex_ = 0;   // id the next added vertex receives
  uint64_t batch_ = 0;
  std::vector<VertexId> last_added_;
};

// ---- reference answers --------------------------------------------------

// A reference count: the embeddings a different engine found under the
// same cap. `capped` means the reference stopped at the cap, so the engine
// under test must also report reaching it (its count may overshoot, since
// leaf products are added whole).
struct Reference {
  uint64_t count = 0;
  bool capped = false;
  bool ok = false;  // the reference engine finished
};

enum class RefEngine { kTurboIso, kCfMatch };

// Threads for reference counting: the host's, at most 4.
uint32_t ReferenceThreads();

// Counts every query with `engine` on `threads` threads. Queries the
// reference cannot finish within `time_limit` seconds come back !ok.
std::vector<Reference> ComputeReferences(const Graph& data,
                                         const std::vector<Graph>& queries,
                                         uint64_t cap, double time_limit,
                                         RefEngine engine, uint32_t threads);

// Empty when `embeddings` / `reached_limit` agree with `ref`.
std::string CheckCount(const Reference& ref, uint64_t embeddings,
                       bool reached_limit);

// ---- workloads ----------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  // Perturbs one reference count; the run must then fail (the answer
  // gate's own test).
  bool corrupt_reference = false;
  // Library workloads: print the query universe indices the reference
  // engine cannot count within the workload's limit, instead of running.
  bool calibrate = false;
};

Report RunPrepareCold(const Options& o, Tracer& tracer);
Report RunEnumDeep(const Options& o, Tracer& tracer);
Report RunServeChurn(const Options& o, Tracer& tracer);

// Shared by the library workloads and the serve workload's library passes.
struct LibraryPassResult {
  std::vector<double> latency_ms;
  std::vector<double> cpu_ms;  // the calling thread's CPU time per query
  uint64_t queries = 0;
  uint64_t embeddings = 0;
  double wall_s = 0.0;
};

// A query with its reference count.
struct CheckedQuery {
  Graph query;
  Reference ref;
};

// One pass of `match` over qs[i] for each i in `which`, in that order:
// times every call, adds the embeddings delivered (at most `cap` a query)
// and checks every count against its reference, failing `rep` with `path`
// in the message. Each call runs inside a span named `span`.
void CheckedPass(const std::vector<CheckedQuery>& qs,
                 const std::vector<size_t>& which, uint64_t cap,
                 const std::function<cfl::MatchResult(const Graph&)>& match,
                 const std::string& path, const std::string& span,
                 Tracer& tracer, Report& rep, LibraryPassResult& out);

// peak_rss_mb without the reference engines: the peak of set-up plus input
// generation, and the peak of the measured run after ResetPeakRss(). The
// larger one is the metric; info names the phase that set it.
struct PeakRssPhases {
  double inputs_mb = 0.0;
  double run_mb = 0.0;
  bool reset = false;  // ResetPeakRss() worked; else run_mb covers it all

  void Record(Report& rep) const;
};

}  // namespace cflbench

#endif  // CFLBENCH_BENCH_H_
