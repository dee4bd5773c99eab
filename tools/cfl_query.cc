// Command-line subgraph matching: load a data graph and a query graph from
// files (the `t/v/e` text format, see graph/graph_io.h) and extract
// embeddings with the engine of your choice.
//
//   cfl_query <data-file> <query-file> [options]
//
// Options:
//   --engine=NAME    cfl (default) | cf | match | cfl-td | cfl-naive |
//                    cfl-boost | turboiso | turboiso-boost | quicksi |
//                    vf2 | ullmann
//   --max=N          stop after N embeddings (default: all)
//   --time-limit=S   per-query wall limit in seconds (default: none)
//   --print          print each embedding (CFL engines only)
//   --stats          print the execution-stats block (phase timers, pruning
//                    and search counters; see src/obs/stats.h). Requires a
//                    CFL_STATS=ON build (the default).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "baseline/compress.h"
#include "baseline/quicksi.h"
#include "baseline/turboiso.h"
#include "baseline/ullmann.h"
#include "baseline/vf2.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "match/cfl_match.h"
#include "match/engine.h"
#include "obs/stats.h"

namespace {

using namespace cfl;

std::unique_ptr<SubgraphEngine> MakeEngine(const std::string& name,
                                           const Graph& data) {
  if (name == "cfl") return MakeCflMatch(data);
  if (name == "cf") return MakeCfMatch(data);
  if (name == "match") return MakeMatchNoDecomp(data);
  if (name == "cfl-td") return MakeCflMatchTd(data);
  if (name == "cfl-naive") return MakeCflMatchNaive(data);
  if (name == "cfl-boost") return MakeCflMatchBoost(data);
  if (name == "turboiso") return MakeTurboIso(data);
  if (name == "turboiso-boost") return MakeTurboIsoBoost(data);
  if (name == "quicksi") return MakeQuickSi(data);
  if (name == "vf2") return MakeVf2(data);
  if (name == "ullmann") return MakeUllmann(data);
  return nullptr;
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s <data-file> <query-file> [--engine=NAME] [--max=N]\n"
      "          [--time-limit=S] [--print] [--stats]\n"
      "engines: cfl cf match cfl-td cfl-naive cfl-boost turboiso\n"
      "         turboiso-boost quicksi vf2 ullmann\n",
      argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) Usage(argv[0]);
  std::string engine_name = "cfl";
  MatchLimits limits;
  bool print = false;
  bool show_stats = false;
  for (int i = 3; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--engine=", 0) == 0) {
      engine_name = arg.substr(9);
    } else if (arg.rfind("--max=", 0) == 0) {
      limits.max_embeddings = std::strtoull(arg.c_str() + 6, nullptr, 10);
    } else if (arg.rfind("--time-limit=", 0) == 0) {
      limits.time_limit_seconds = std::atof(arg.c_str() + 13);
    } else if (arg == "--print") {
      print = true;
    } else if (arg == "--stats") {
      show_stats = true;
    } else {
      Usage(argv[0]);
    }
  }

  Graph data, query;
  try {
    data = LoadGraph(argv[1]);
    query = LoadGraph(argv[2]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  // Every engine assumes a non-empty query; CflMatcher::Prepare rejects an
  // empty one, the baselines would index past it.
  if (query.NumVertices() == 0) {
    std::fprintf(stderr, "error: query graph has no vertices\n");
    return 1;
  }
  std::printf("data:  %s\n", Describe(ComputeStats(data)).c_str());
  std::printf("query: %s\n", Describe(ComputeStats(query)).c_str());

  MatchResult result;
  try {
    if (print) {
      // Enumeration with a callback is a CflMatcher feature.
      CflMatcher matcher(data);
      MatchOptions options;
      options.limits = limits;
      options.on_embedding = [&](const Embedding& m) {
        std::printf("embedding:");
        for (VertexId u = 0; u < query.NumVertices(); ++u) {
          std::printf(" %u->%u", u, m[u]);
        }
        std::printf("\n");
        return true;
      };
      result = matcher.Match(query, options);
      engine_name = "cfl";
    } else {
      std::unique_ptr<SubgraphEngine> engine = MakeEngine(engine_name, data);
      if (engine == nullptr) Usage(argv[0]);
      result = engine->Run(query, limits);
    }
  } catch (const std::exception& e) {
    // A query the matcher rejects, e.g. a disconnected one (Prepare).
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf(
      "[%s] embeddings=%llu%s  total=%.3fms (ordering=%.3fms, "
      "enumeration=%.3fms)%s\n",
      engine_name.c_str(), static_cast<unsigned long long>(result.embeddings),
      result.reached_limit ? "+" : "", result.total_seconds * 1e3,
      result.OrderingSeconds() * 1e3, result.enumerate_seconds * 1e3,
      result.timed_out ? "  [TIMED OUT]" : "");
  if (show_stats) {
    std::printf("%s", obs::FormatStats(result.stats).c_str());
    std::string violation = obs::CheckStatsInvariants(
        result.stats, result.embeddings, result.total_seconds);
    if (!violation.empty()) {
      std::fprintf(stderr, "stats invariant violated: %s\n",
                   violation.c_str());
      return 4;
    }
  }
  return result.timed_out ? 3 : 0;
}
