#include "match/count_roots.h"

#include <algorithm>

#include "check/check.h"
#include "check/narrow.h"
#include "match/enumerator.h"

namespace cfl {

uint64_t AtomicSaturatingAdd(std::atomic<uint64_t>& total,
                             uint64_t delta) noexcept {
  uint64_t current = total.load(std::memory_order_relaxed);
  uint64_t next;
  do {
    next = SaturatingAdd(current, delta);
  } while (!total.compare_exchange_weak(current, next,
                                        std::memory_order_relaxed));
  return next;
}

CountRun::CountRun(const Graph& data, const PreparedQuery& prepared,
                   const MatchLimits& limits, uint32_t shards)
    : data_(data),
      prepared_(prepared),
      shards_(shards),
      root_count_(CheckedCandidateCount(
          prepared.cpi.Candidates(prepared.order.steps.front().u).size())),
      cap_(limits.max_embeddings),
      deadline_(limits.time_limit_seconds),
      leaf_prototype_(data, prepared.cpi, prepared.order.leaves),
      tallies_(shards) {
  CFL_CHECK(shards >= 1);
  CFL_CHECK(!prepared.no_results);
}

uint64_t CountRun::Slice(uint64_t total) const {
  const uint64_t remaining = total < cap_ ? cap_ - total : 0;
  return std::max<uint64_t>(1, remaining / shards_);
}

void CountRun::CountRoots(uint32_t shard) {
  EnumeratorState state(CheckedU32(prepared_.tree.parent.size()),
                        data_.NumVertices());
  Deadline deadline = deadline_;
  Enumerator core(data_, prepared_.cpi, prepared_.order.steps, state,
                  deadline);
  LeafMatcher leaf_matcher = leaf_prototype_;
  const bool has_leaves = leaf_matcher.HasLeaves();
  const bool compressed = data_.HasMultiplicities();

  uint64_t pending = 0;  // counted by this shard, not yet in total_
  uint64_t slice = Slice(0);
  auto publish = [&] {
    const uint64_t after = AtomicSaturatingAdd(total_, pending);
    pending = 0;
    if (after >= cap_) stop_.store(true, std::memory_order_relaxed);
    slice = Slice(after);
  };

  auto visit = [&]() {
    uint64_t count = 1;
    if (compressed) {
      // Unmatched leaf entries are kInvalidVertex and skipped; the leaf
      // count below already accounts for leaf expansions.
      count = ExpansionFactor(data_, state.mapping);
    }
    if (has_leaves) {
      // Leaf time is sampled (1 in kLeafSampleStride calls), not measured
      // per call: CountEmbeddings is the hottest call site and two clock
      // reads per visit would dominate it.
      CFL_STATS_ONLY(++core.stats.leaf_calls; obs::TimePoint leaf_t0;
                     const bool sample = core.stats.ShouldSampleLeaf();
                     if (sample) leaf_t0 = obs::Now();)
      const uint64_t leaf_count = leaf_matcher.CountEmbeddings(data_, state);
      CFL_STATS_ONLY(if (sample) {
        ++core.stats.leaf_sampled_calls;
        core.stats.leaf_sampled_seconds += obs::SecondsSince(leaf_t0);
      } core.stats.leaf_products =
            SaturatingAdd(core.stats.leaf_products, leaf_count);)
      count = SaturatingMul(count, leaf_count);
    }
    pending = SaturatingAdd(pending, count);
    if (pending >= slice) publish();
    return !stop_.load(std::memory_order_relaxed);
  };

  Tally& tally = tallies_[shard];
  while (!stop_.load(std::memory_order_relaxed)) {
    const uint32_t r = next_root_.fetch_add(1, std::memory_order_relaxed);
    if (r >= root_count_) break;
    ++tally.roots_claimed;
    core.Arm(r, r + 1);
    const EnumerateStatus status = core.Run(visit);
    if (status == EnumerateStatus::kTimedOut) {
      timed_out_.store(true, std::memory_order_relaxed);
      break;
    }
    if (status == EnumerateStatus::kStopped) break;
  }
  if (pending != 0) publish();
  tally.candidates_tried = core.candidates_tried;
  tally.candidates_bound = core.candidates_bound;
  tally.stats = core.stats;
}

void CountRun::Finish(MatchResult& result) {
  result.embeddings = total_.load(std::memory_order_relaxed);
  result.timed_out = timed_out_.load(std::memory_order_relaxed);
  // The engine-wide tie-break (asserted by cfl_difftest): reached_limit iff
  // the cap was hit, independent of a deadline expiring in the same
  // instant — both flags may be true.
  result.reached_limit = result.embeddings >= cap_;
  for (const Tally& t : tallies_) {
    result.candidates_tried += t.candidates_tried;
    result.candidates_bound += t.candidates_bound;
  }
  result.enumerate_seconds = timer_.Lap();
  CFL_STATS_ONLY({
    MatchStats& s = result.stats;
    s.recorded = true;
    s.enumerate_seconds = result.enumerate_seconds;
    s.worker_roots_claimed.clear();
    for (const Tally& t : tallies_) {
      s.enumeration.Merge(t.stats);
      s.worker_roots_claimed.push_back(t.roots_claimed);
    }
    s.candidates_tried = result.candidates_tried;
    s.candidates_bound = result.candidates_bound;
    s.embeddings_found = result.embeddings;
    s.threads = shards_;
    s.root_candidates = root_count_;
  })
}

}  // namespace cfl
