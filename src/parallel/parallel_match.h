// Parallel CFL-Match: root-partitioned counting over a shared CPI.
//
// The CPI, matching order, and data graph are built once and shared
// *immutably* by reference, while everything enumeration mutates is
// private to a shard: this engine is CountRun (match/count_roots.h) — the
// same root-claiming shard body the serial matcher runs inline — fanned out
// as `threads` tasks on a private TaskPool and joined with a TaskLatch.
//
// Early-stop semantics match the serial engine's MatchLimits contract:
//   * max_embeddings — a shared budget; the shard whose publication
//     crosses the cap raises a stop flag all shards poll. The final count
//     may overshoot the cap but never undershoots it; counts are exact
//     whenever the cap is not hit.
//   * time_limit_seconds — one deadline instant fixed before the fan-out;
//     each shard polls a private copy (same expiry, private coarse-tick
//     cache), so all shards cut off at the same wall-clock moment.
//
// Counts and effort counters are merged deterministically at the join
// (per-shard partials summed in shard order). Without a cap or deadline hit
// the total is the exact embedding count, identical at any thread count,
// because the root ranges partition the search space.
//
// Concurrency contracts are machine-checked: the shared structures (Graph,
// Cpi, PreparedQuery) carry CFL_IMMUTABLE_AFTER_BUILD, everything shared
// and mutable during a run is a std::atomic, and the pool's own fields are
// CFL_GUARDED_BY its mutex — Clang Thread Safety Analysis plus
// tools/cfl_lint enforce all three (check/thread_annotations.h).

#ifndef CFL_PARALLEL_PARALLEL_MATCH_H_
#define CFL_PARALLEL_PARALLEL_MATCH_H_

#include <cstdint>
#include <memory>

#include "graph/graph.h"
#include "match/cfl_match.h"
#include "match/engine.h"
#include "parallel/task_pool.h"

namespace cfl {

class ParallelCflMatcher {
 public:
  // `threads` == 0 is clamped to 1; 1 runs inline on the caller (no pool,
  // no worker threads), making the single-threaded configuration genuinely
  // serial.
  ParallelCflMatcher(const Graph& data, uint32_t threads);

  ParallelCflMatcher(const ParallelCflMatcher&) = delete;
  ParallelCflMatcher& operator=(const ParallelCflMatcher&) = delete;

  const Graph& data() const { return serial_.data(); }
  uint32_t threads() const { return threads_; }

  // Same contract as CflMatcher::Match. Counting mode (no on_embedding
  // callback) is parallelized; enumeration mode falls back to the serial
  // matcher, because the callback contract (sequential invocation, stop
  // semantics exact at the cap) cannot be honored from several workers.
  MatchResult Match(const Graph& q, const MatchOptions& options = {});

 private:
  CflMatcher serial_;  // Prepare pipeline + enumeration-mode fallback
  const uint32_t threads_;
  std::unique_ptr<TaskPool> pool_;  // null when threads_ == 1
};

// Engine wrapper for the benches, the difftest oracle, and the equivalence
// tests; named "CFL-Match-P<threads>".
std::unique_ptr<SubgraphEngine> MakeParallelCflMatch(const Graph& data,
                                                     uint32_t threads);

}  // namespace cfl

#endif  // CFL_PARALLEL_PARALLEL_MATCH_H_
