// Pull-based embedding iteration.
//
// Paper Algorithm 1 remark: "each time when we invoke Core-Match or
// Forest-Match or Leaf-Match, it returns the next embedding; that is, to
// save memory space, only one embedding is generated each time."
// `EmbeddingIterator` exposes exactly that protocol as a public API: the
// whole CFL pipeline (decomposition, CPI, ordering) runs once up front,
// after which each Next() resumes the backtracking search just far enough
// to produce one more embedding: the core/forest pass and the leaf pass are
// both the one resumable Enumerator (match/enumerator.h), paused at every
// embedding. Nothing is ever materialized beyond the O(|V(q)|) search
// state.
//
//   cfl::EmbeddingIterator it(data, query, limits);
//   cfl::Embedding m;
//   while (it.Next(&m)) Use(m);
//   if (it.timed_out()) ...   // deadline expired mid-search
//
// The iterator honors MatchLimits like every engine: Next() returns false
// once `max_embeddings` have been produced (reached_limit()) or when the
// deadline expires inside the resumed search (timed_out()) — without this a
// streamed query could pin a server worker forever. It can also be armed
// with an already-prepared (possibly cached and shared) PreparedQuery, so a
// resident server streams results without re-running the prepare pipeline.
//
// The iterator is single-pass and move-only. For bulk counting prefer
// CflMatcher::Match (it counts leaf Cartesian products without expanding
// them); the iterator necessarily expands every assignment.

#ifndef CFL_MATCH_ITERATOR_H_
#define CFL_MATCH_ITERATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "match/embedding.h"

namespace cfl {

struct PreparedQuery;

// The full pipeline as a single-pass iterator.
class EmbeddingIterator {
 public:
  // Runs decomposition, root selection, CPI construction, and ordering for
  // `query` over `data`; both must outlive the iterator.
  EmbeddingIterator(const Graph& data, const Graph& query,
                    const MatchLimits& limits = {});

  // Streams from an already-prepared plan (e.g. a plan-cache entry): no
  // prepare work happens here. The shared_ptr keeps the plan alive for the
  // iterator's lifetime, so a cache eviction cannot pull the CPI out from
  // under a running stream. `prepared` must stem from the same data graph.
  EmbeddingIterator(const Graph& data,
                    std::shared_ptr<const PreparedQuery> prepared,
                    const MatchLimits& limits = {});

  ~EmbeddingIterator();

  EmbeddingIterator(EmbeddingIterator&&) noexcept;
  EmbeddingIterator& operator=(EmbeddingIterator&&) noexcept;

  // Copies the next embedding into *out; false when exhausted, capped, or
  // timed out (see the accessors below).
  bool Next(Embedding* out);

  // Embeddings produced so far.
  uint64_t produced() const { return produced_; }

  // The deadline expired during a Next(); the stream is over (same
  // semantics as MatchResult::timed_out — independent of reached_limit).
  bool timed_out() const;

  // max_embeddings have been produced (same semantics as
  // MatchResult::reached_limit: true iff the cap was hit).
  bool reached_limit() const { return produced_ >= cap_; }

 private:
  struct Pipeline;  // owns/shares plan + bindings + the two passes
  std::unique_ptr<Pipeline> p_;
  uint64_t produced_ = 0;
  uint64_t cap_ = kNoLimit;
  bool exhausted_ = false;
};

}  // namespace cfl

#endif  // CFL_MATCH_ITERATOR_H_
