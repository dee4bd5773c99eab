#include "serve/scheduler.h"

#include <algorithm>

#include "check/check.h"
#include "match/count_roots.h"
#include "match/enumerator.h"
#include "obs/clock.h"

namespace cfl::serve {

AdmissionTicket::AdmissionTicket(QueryScheduler& scheduler)
    : scheduler_(scheduler), quota_(scheduler.AcquireSlot()) {}

AdmissionTicket::~AdmissionTicket() { scheduler_.ReleaseSlot(); }

QueryScheduler::QueryScheduler(const SchedulerOptions& options)
    : options_(options),
      max_concurrent_(options.max_concurrent_queries != 0
                          ? options.max_concurrent_queries
                          : 2 * (options.workers == 0 ? 1 : options.workers)),
      pool_(options.workers) {}

MatchLimits QueryScheduler::ClampLimits(const MatchLimits& requested) const {
  MatchLimits limits = requested;
  if (options_.max_time_limit_seconds > 0.0 &&
      (limits.time_limit_seconds <= 0.0 ||
       limits.time_limit_seconds > options_.max_time_limit_seconds)) {
    limits.time_limit_seconds = options_.max_time_limit_seconds;
  }
  if (options_.max_embeddings != 0) {
    limits.max_embeddings =
        std::min(limits.max_embeddings, options_.max_embeddings);
  }
  return limits;
}

uint32_t QueryScheduler::AcquireSlot() {
  MutexLock lock(mu_);
  // cfl-analyze: allow(blocking-under-lock) admission backpressure releases mu_
  while (active_ >= max_concurrent_) slot_free_.Wait(mu_);
  ++active_;
  // Quota at admission time: a lone query gets every worker, a loaded
  // server converges to one shard per query. Never zero.
  uint32_t quota = std::max(1u, pool_.size() / active_);
  const uint32_t ceiling =
      options_.max_quota != 0 ? options_.max_quota : pool_.size();
  return std::min(quota, ceiling);
}

void QueryScheduler::ReleaseSlot() {
  {
    MutexLock lock(mu_);
    CFL_CHECK(active_ > 0) << " — slot released twice";
    --active_;
  }
  slot_free_.NotifyOne();
}

uint32_t QueryScheduler::ActiveQueries() {
  MutexLock lock(mu_);
  return active_;
}

MatchResult QueryScheduler::Execute(const Graph& data,
                                    const PreparedQuery& prepared,
                                    const MatchLimits& requested,
                                    uint32_t* quota_used) {
  AdmissionTicket ticket(*this);
  if (quota_used != nullptr) *quota_used = ticket.quota();

  MatchResult result;
  obs::WallTimer total_timer;
  const MatchLimits limits = ClampLimits(requested);
  const Cpi& cpi = prepared.cpi;
  result.build_seconds = prepared.build_seconds;
  result.order_seconds = prepared.order_seconds;
  result.index_entries = cpi.SizeInEntries();

  if (prepared.no_results) {
    result.total_seconds = total_timer.Lap();
    return result;
  }

  // At most one shard per root: a shard with nothing to claim would only
  // occupy a worker.
  const uint32_t root_count = CheckedCandidateCount(
      cpi.Candidates(prepared.order.steps.front().u).size());
  const uint32_t shards = std::min(ticket.quota(), root_count);
  CountRun run(data, prepared, limits, shards);
  ForkJoin(pool_, shards, [&run](uint32_t shard) { run.CountRoots(shard); });
  run.Finish(result);
  result.total_seconds = total_timer.Lap();
  return result;
}

}  // namespace cfl::serve
