#include "match/iterator.h"

#include "check/check.h"
#include "check/narrow.h"
#include "match/cfl_match.h"
#include "match/enumerator.h"
#include "match/leaf_match.h"

namespace cfl {

struct EmbeddingIterator::Pipeline {
  // Shared ownership keeps cached plans alive while a stream runs; for the
  // self-preparing constructor the iterator is the only owner.
  std::shared_ptr<const PreparedQuery> prepared;
  Deadline deadline;
  EnumeratorState state;
  LeafMatcher leaf_matcher;
  Enumerator core;    // core + forest steps, paused at each embedding
  Enumerator leaves;  // leaf steps under the core's paused bindings
  bool in_leaves = false;  // core paused, leaf pass armed
  bool dead = false;       // empty candidate set: no embeddings at all
  bool timed_out = false;

  Pipeline(const Graph& data, std::shared_ptr<const PreparedQuery> plan,
           const MatchLimits& limits)
      : prepared(std::move(plan)),
        deadline(limits.time_limit_seconds),
        state(CheckedU32(prepared->cpi.tree().parent.size()),
              data.NumVertices()),
        leaf_matcher(data, prepared->cpi, prepared->order.leaves),
        core(data, prepared->cpi, prepared->order.steps, state, deadline),
        leaves(data, prepared->cpi, leaf_matcher.steps(), state, deadline),
        dead(prepared->no_results) {
    core.Arm();
  }
};

EmbeddingIterator::~EmbeddingIterator() = default;
EmbeddingIterator::EmbeddingIterator(EmbeddingIterator&&) noexcept = default;
EmbeddingIterator& EmbeddingIterator::operator=(EmbeddingIterator&&) noexcept =
    default;

EmbeddingIterator::EmbeddingIterator(const Graph& data, const Graph& query,
                                     const MatchLimits& limits)
    : cap_(limits.max_embeddings) {
  // Front half of CflMatcher::Match: decomposition, root, CPI, order.
  CflMatcher matcher(data);
  p_ = std::make_unique<Pipeline>(
      data, std::make_shared<const PreparedQuery>(matcher.Prepare(query)),
      limits);
}

EmbeddingIterator::EmbeddingIterator(
    const Graph& data, std::shared_ptr<const PreparedQuery> prepared,
    const MatchLimits& limits)
    : cap_(limits.max_embeddings) {
  CFL_CHECK(prepared != nullptr);
  p_ = std::make_unique<Pipeline>(data, std::move(prepared), limits);
}

bool EmbeddingIterator::Next(Embedding* out) {
  if (exhausted_ || p_->dead || produced_ >= cap_) {
    exhausted_ = true;
    return false;
  }
  auto pause = []() { return false; };
  while (true) {
    if (!p_->in_leaves) {
      EnumerateStatus status = p_->core.Run(pause);
      if (status != EnumerateStatus::kStopped) {
        p_->timed_out = status == EnumerateStatus::kTimedOut;
        exhausted_ = true;
        return false;
      }
      p_->leaves.Arm();
      p_->in_leaves = true;
    }
    EnumerateStatus status = p_->leaves.Run(pause);
    if (status == EnumerateStatus::kStopped) {
      *out = p_->state.mapping;
      ++produced_;
      return true;
    }
    if (status == EnumerateStatus::kTimedOut) {
      p_->core.Abort();
      p_->timed_out = true;
      exhausted_ = true;
      return false;
    }
    p_->in_leaves = false;  // leaf pass exhausted: resume the core
  }
}

bool EmbeddingIterator::timed_out() const {
  return p_ != nullptr && p_->timed_out;
}

}  // namespace cfl
