// Counting-mode enumeration, sharded by root candidate.
//
// The CPI decomposes the search space by root candidate: the subtree of
// embeddings reachable from root candidate position r is independent of
// every other root candidate (Algorithm 5 backtracks to the root between
// them and never carries state across). `CountRun` is the one counting
// loop built on that: each shard claims the next unclaimed root position
// from a shared atomic cursor, enumerates its subtree on a private
// Enumerator, and counts every core+forest embedding's leaf completions as
// a Cartesian product (LeafMatcher::CountEmbeddings) — never expanding
// them. Its three callers differ only in how they run the shards:
//   * CflMatcher::Match runs one shard inline;
//   * ParallelCflMatcher fans `threads` shards out as TaskPool tasks;
//   * serve::QueryScheduler fans out the query's admission quota.
// A skewed root (one candidate hosting most of the search space) pins only
// the shard that claimed it while the rest drain the remaining roots.
//
// Everything shared between shards is an atomic or const: the claim
// cursor, the embedding budget, the stop and timed-out flags. Everything a
// shard mutates — bindings, enumerator scratch and counters, the
// LeafMatcher's scratch, the deadline's tick cache — is private to it and
// allocated once per shard, not per claimed root. The deadline instant is
// fixed at construction, so shards that start late (queued behind other
// queries' tasks) still expire at the same wall-clock moment.
//
// Budget: a shard counts into a private tally and publishes it to the
// shared total once it reaches a slice of the remaining budget divided by
// the shard count, so no shard takes a locked read-modify-write per
// embedding. Whoever publishes the total across the cap raises the stop
// flag every shard polls. A lone shard's slice is the whole remaining
// budget, so it publishes, and stops, exactly at the visit that crosses
// the cap. With several shards the
// final count may overshoot the cap (never undershoot it); counts are
// exact whenever the cap is not hit, because the root ranges partition
// the search space.

#ifndef CFL_MATCH_COUNT_ROOTS_H_
#define CFL_MATCH_COUNT_ROOTS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "check/thread_annotations.h"
#include "graph/graph.h"
#include "match/cfl_match.h"
#include "match/embedding.h"
#include "match/leaf_match.h"
#include "obs/clock.h"
#include "obs/stats.h"

namespace cfl {

// Saturating accumulate on a shared embedding total: leaf-match products
// can individually saturate at kNoLimit, so a plain fetch_add could wrap.
// Returns the post-add value.
uint64_t AtomicSaturatingAdd(std::atomic<uint64_t>& total,
                             uint64_t delta) noexcept;

class CountRun {
 public:
  // Counts the embeddings of `prepared` (built over `data`; must not be
  // `no_results`) under `limits`, in `shards` >= 1 shards. Starts the
  // enumeration timer and fixes the deadline instant. Every referee must
  // outlive the run.
  CountRun(const Graph& data, const PreparedQuery& prepared,
           const MatchLimits& limits, uint32_t shards);

  CountRun(const CountRun&) = delete;
  CountRun& operator=(const CountRun&) = delete;

  uint32_t shards() const { return shards_; }

  // The shard body: claims roots until none are left, the budget is spent
  // or the deadline expires. Call exactly once per shard in [0, shards());
  // distinct shards may run concurrently.
  void CountRoots(uint32_t shard);

  // After every shard has returned (the join): writes the count, the stop
  // flags, the effort counters, enumerate_seconds and the enumeration half
  // of result.stats (shards merged in shard order).
  void Finish(MatchResult& result);

 private:
  // A shard's private outputs; each shard writes only its own slot.
  struct Tally {
    uint64_t candidates_tried = 0;
    uint64_t candidates_bound = 0;
    uint64_t roots_claimed = 0;
    EnumStats stats;
  };

  // The publish threshold once the shared total reads `total`.
  uint64_t Slice(uint64_t total) const;

  const Graph& data_;
  const PreparedQuery& prepared_;
  const uint32_t shards_;
  const uint32_t root_count_;
  const uint64_t cap_;
  const Deadline deadline_;
  const LeafMatcher leaf_prototype_;
  obs::WallTimer timer_;

  std::atomic<uint32_t> next_root_ CFL_ATOMIC_INTENT(counter){0};
  std::atomic<uint64_t> total_ CFL_ATOMIC_INTENT(counter){0};
  std::atomic<bool> stop_ CFL_ATOMIC_INTENT(flag){false};
  std::atomic<bool> timed_out_ CFL_ATOMIC_INTENT(flag){false};

  std::vector<Tally> tallies_;
};

}  // namespace cfl

#endif  // CFL_MATCH_COUNT_ROOTS_H_
