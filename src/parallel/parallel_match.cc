#include "parallel/parallel_match.h"

#include <string>

#include "match/count_roots.h"
#include "obs/clock.h"

namespace cfl {

ParallelCflMatcher::ParallelCflMatcher(const Graph& data, uint32_t threads)
    : serial_(data),
      threads_(threads == 0 ? 1 : threads),
      pool_(threads_ > 1 ? std::make_unique<TaskPool>(threads_) : nullptr) {}

MatchResult ParallelCflMatcher::Match(const Graph& q,
                                      const MatchOptions& options) {
  // Enumeration mode: the per-embedding callback is a sequential contract.
  if (options.on_embedding) return serial_.Match(q, options);

  MatchResult result;
  obs::WallTimer total_timer;

  PreparedQuery prepared = serial_.Prepare(q, options);
  result.build_seconds = prepared.build_seconds;
  result.order_seconds = prepared.order_seconds;
  result.index_entries = prepared.cpi.SizeInEntries();
  CFL_STATS_ONLY(result.stats = prepared.stats;)

  if (prepared.no_results) {
    result.total_seconds = total_timer.Lap();
    return result;
  }

  CountRun run(serial_.data(), prepared, options.limits, threads_);
  if (pool_ == nullptr) {
    run.CountRoots(0);
  } else {
    ForkJoin(*pool_, threads_,
             [&run](uint32_t shard) { run.CountRoots(shard); });
  }
  run.Finish(result);
  result.total_seconds = total_timer.Lap();
  return result;
}

namespace {

class ParallelCflEngine : public SubgraphEngine {
 public:
  ParallelCflEngine(const Graph& data, uint32_t threads)
      : name_("CFL-Match-P" + std::to_string(threads == 0 ? 1 : threads)),
        matcher_(data, threads) {}

  std::string_view name() const override { return name_; }

  MatchResult Run(const Graph& query, const MatchLimits& limits) override {
    MatchOptions options;
    options.limits = limits;
    return matcher_.Match(query, options);
  }

 private:
  std::string name_;
  ParallelCflMatcher matcher_;
};

}  // namespace

std::unique_ptr<SubgraphEngine> MakeParallelCflMatch(const Graph& data,
                                                     uint32_t threads) {
  return std::make_unique<ParallelCflEngine>(data, threads);
}

}  // namespace cfl
