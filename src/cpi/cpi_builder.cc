#include "cpi/cpi_builder.h"

#include <algorithm>
#include <bit>
#include <span>

#include "check/check.h"
#include "check/narrow.h"
#include "cpi/candidate_filter.h"
#include "kernels/kernels.h"
#include "obs/clock.h"

namespace cfl {

CpiBuilder::CpiBuilder(const Graph& data)
    : data_(data), s_(ThreadScratch()) {
  FitScratch();
}

CpiBuilder::Scratch& CpiBuilder::ThreadScratch() {
  thread_local Scratch scratch;
  return scratch;
}

void CpiBuilder::FitScratch() {
  s_.cnt.resize(data_.NumVertices());
  s_.seen.resize((data_.NumVertices() + 63) / 64);
}

void CpiBuilder::RefineRounds(const Label label,
                              const std::vector<VertexId>& against,
                              size_t first) {
  // Rounds over `against[first..]` of the counting intersection (Algorithm 3
  // lines 6-14 / Lemma 5.1): v survives a round iff some vprime in
  // s_.cand[uprime] has v in its label run. Survivors sit at `mark`; a scan of
  // each run promotes them to mark+1, so a vertex reached through several
  // vprime runs is promoted once, and one that missed an earlier round (reset
  // to 0 by the filter) can never match a later mark. The in-place filter
  // keeps s_.surv sorted.
  uint32_t mark = 1;
  for (VertexId v : s_.surv) s_.cnt[v] = mark;
  for (size_t a = first; a < against.size() && !s_.surv.empty(); ++a, ++mark) {
    const auto promote = [this, mark](VertexId v) {
      if (s_.cnt[v] == mark) s_.cnt[v] = mark + 1;
    };
    for (VertexId vprime : s_.cand[against[a]]) {
      std::span<const VertexId> run = data_.NeighborsWithLabel(vprime, label);
      if (run.size() > s_.surv.size() * kernels::kGallopRatio) {
        // Hub run: gallop the short survivor list through it rather than
        // scan it; the matches are survivors, so the marks are the same.
        s_.isect.clear();
        kernels::IntersectSorted(run, s_.surv, s_.isect);
        for (VertexId v : s_.isect) promote(v);
      } else {
        for (VertexId v : run) promote(v);
      }
    }
    std::erase_if(s_.surv, [this, mark](VertexId v) {
      if (s_.cnt[v] == mark + 1) return false;
      s_.cnt[v] = 0;
      return true;
    });
  }
  for (VertexId v : s_.surv) s_.cnt[v] = 0;
}

void CpiBuilder::GenerateCandidates(const Graph& q, VertexId u,
                                    const std::vector<VertexId>& against) {
  CFL_DCHECK(!against.empty())
      << " generating candidates for query vertex " << u
      << " with no visited neighbors; BFS guarantees a visited parent";
  // Round 0 seeds the survivor set with a counting scan: only data vertices
  // with u's label can survive, so each candidate's neighborhood is scanned
  // through its label run alone (the label filter is implied). s_.seen
  // dedupes the seeds; runs ascend by id, so the words [lo, hi) they touched
  // are known from their ends, and scanning those words emits the seed set
  // in ascending order (and clears them). The degree filter runs once per
  // seed there — later rounds only shrink the set. Runs usually span most
  // of the id space, so this costs about |V|/64 words however few seeds
  // there are: cheap at the 100k vertices the benchmarks use, unmeasured on
  // much larger data graphs.
  const Label label = q.label(u);
  const uint32_t min_degree = q.StructuralDegree(u);
  size_t lo = s_.seen.size();
  size_t hi = 0;
  for (VertexId vprime : s_.cand[against.front()]) {
    std::span<const VertexId> run = data_.NeighborsWithLabel(vprime, label);
    if (run.empty()) continue;
    lo = std::min<size_t>(lo, run.front() >> 6);
    hi = std::max<size_t>(hi, (run.back() >> 6) + 1);
    for (VertexId v : run) s_.seen[v >> 6] |= uint64_t{1} << (v & 63);
  }
  s_.surv.clear();
  for (size_t w = lo; w < hi; ++w) {
    for (uint64_t bits = s_.seen[w]; bits != 0; bits &= bits - 1) {
      const auto v = static_cast<VertexId>(w * 64 + std::countr_zero(bits));
      if (data_.degree(v) >= min_degree) s_.surv.push_back(v);
    }
    s_.seen[w] = 0;
  }

  RefineRounds(label, against, /*first=*/1);

  std::vector<VertexId>& out = s_.cand[u];
  out.clear();
  for (VertexId v : s_.surv) {
    if (CandVerify(q, u, data_, v)) out.push_back(v);
  }
}

void CpiBuilder::RefineCandidates(VertexId u,
                                  const std::vector<VertexId>& against) {
  if (against.empty() || s_.cand[u].empty()) return;
  // All candidates of u share u's label, so the rounds below only need that
  // one label run of each vprime. Keep only candidates that survive every
  // round (Algorithm 3 lines 21-22 / Algorithm 4 lines 5-6).
  std::vector<VertexId>& c = s_.cand[u];
  const Label label = data_.label(c.front());
  s_.surv = c;
  RefineRounds(label, against, /*first=*/0);
  c = s_.surv;
}

void CpiBuilder::TopDownConstruct(const Graph& q, const BfsTree& tree) {
  const uint32_t n = q.NumVertices();
  std::vector<bool> visited(n, false);

  // Root candidates: label + degree + CandVerify (Algorithm 3 lines 1-2).
  const VertexId r = tree.root;
  for (VertexId v : data_.VerticesWithLabel(q.label(r))) {
    if (data_.degree(v) >= q.StructuralDegree(r) && CandVerify(q, r, data_, v)) {
      s_.cand[r].push_back(v);
    }
  }
  CFL_STATS_ONLY(if (stats_) stats_->generated[r] = s_.cand[r].size();)
  visited[r] = true;

  std::vector<std::vector<VertexId>> unvisited_same_level(n);
  for (uint32_t lev = 1; lev < tree.NumLevels(); ++lev) {
    const std::vector<VertexId>& level = tree.levels[lev];

    // Forward candidate generation (lines 5-17).
    for (VertexId u : level) {
      s_.vis.clear();  // u.N: visited query neighbors
      for (VertexId uprime : q.Neighbors(u)) {
        if (visited[uprime]) {
          s_.vis.push_back(uprime);
        } else if (tree.level[uprime] == tree.level[u]) {
          // S-NTE to a not-yet-visited same-level vertex; recorded for the
          // backward pass (u.UN).
          unvisited_same_level[u].push_back(uprime);
        }
      }
      GenerateCandidates(q, u, s_.vis);
      CFL_STATS_ONLY(if (stats_) stats_->generated[u] = s_.cand[u].size();)
      visited[u] = true;
    }

    // Backward candidate pruning (lines 18-23), reverse order within level.
    for (auto it = level.rbegin(); it != level.rend(); ++it) {
      CFL_STATS_ONLY(const size_t before = s_.cand[*it].size();)
      RefineCandidates(*it, unvisited_same_level[*it]);
      CFL_STATS_ONLY(if (stats_) {
        stats_->pruned_backward[*it] = before - s_.cand[*it].size();
      })
    }
  }
}

void CpiBuilder::BottomUpRefine(const Graph& q, const BfsTree& tree) {
  // Process query vertices bottom-up; at each u, prune u.C against the
  // (already-refined) candidate sets of u's lower-level neighbors — tree
  // children and downward C-NTEs alike (Algorithm 4).
  for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
    VertexId u = *it;
    s_.lower.clear();
    for (VertexId uprime : q.Neighbors(u)) {
      if (tree.level[uprime] == tree.level[u] + 1) s_.lower.push_back(uprime);
    }
    CFL_STATS_ONLY(const size_t before = s_.cand[u].size();)
    RefineCandidates(u, s_.lower);
    CFL_STATS_ONLY(
        if (stats_) stats_->pruned_bottomup[u] = before - s_.cand[u].size();)
  }
}

void CpiBuilder::BuildAdjacency(const BfsTree& tree, Cpi* cpi) {
  const uint32_t n = CheckedU32(s_.cand.size());

  // Arena layout: vertices in ascending id order so the start tables are
  // monotone; each non-root u contributes |u.p.C|+1 relative offsets and
  // its concatenated N_u^{u.p}(v) blocks. Per-u content is independent of
  // this iteration order.
  cpi->adj_off_arena_.clear();
  cpi->adj_entry_arena_.clear();
  cpi->adj_off_start_.assign(n + 1, 0);
  cpi->adj_entry_start_.assign(n + 1, 0);

  for (VertexId u = 0; u < n; ++u) {
    if (u != tree.root) {
      const VertexId p = tree.parent[u];
      const std::vector<VertexId>& child_cands = s_.cand[u];
      const std::vector<VertexId>& parent_cands = s_.cand[p];
      const uint64_t entry_base = cpi->adj_entry_arena_.size();

      // All child candidates share one label, so only that run of each
      // parent candidate's adjacency can contribute. An empty child set
      // degenerates to all-empty blocks.
      const Label label =
          child_cands.empty() ? 0 : data_.label(child_cands.front());

      // N_u^{p}(vp) = run ∩ child_cands as positions into the (sorted)
      // candidate list: s_.cnt holds position+1 for each child candidate, so a
      // scan of vp's run emits the positions in run order — ascending, since
      // both sides ascend by id. A hub run gallops the candidates through
      // it instead (IntersectPositions: same positions, same order).
      for (uint32_t i = 0; i < child_cands.size(); ++i) {
        s_.cnt[child_cands[i]] = i + 1;
      }
      std::vector<uint32_t>& entries = cpi->adj_entry_arena_;
      cpi->adj_off_arena_.push_back(0);
      for (VertexId vp : parent_cands) {
        if (!child_cands.empty()) {
          std::span<const VertexId> run = data_.NeighborsWithLabel(vp, label);
          if (run.size() > child_cands.size() * kernels::kGallopRatio) {
            kernels::IntersectPositions(run, child_cands, entries);
          } else {
            for (VertexId v : run) {
              if (s_.cnt[v] != 0) entries.push_back(s_.cnt[v] - 1);
            }
          }
        }
        cpi->adj_off_arena_.push_back(
            CheckedU32(entries.size() - entry_base));
      }
      for (VertexId v : child_cands) s_.cnt[v] = 0;
    }
    cpi->adj_off_start_[u + 1] = cpi->adj_off_arena_.size();
    cpi->adj_entry_start_[u + 1] = cpi->adj_entry_arena_.size();
  }
}

// A function-try-block: a Build that throws (allocation failure) may leave
// marks in the thread's counting scratch, so the handler zeroes it before
// rethrowing and the thread's next Build still starts from all-zero.
Cpi CpiBuilder::Build(const Graph& q, const BfsTree& tree,
                      CpiStrategy strategy,
                      [[maybe_unused]] CpiBuildStats* stats) try {
  const uint32_t n = q.NumVertices();
  FitScratch();
  s_.cand.assign(n, {});
  stats_ = nullptr;
  CFL_STATS_ONLY(stats_ = stats;
                 if (stats_) {
                   stats_->generated.assign(n, 0);
                   stats_->pruned_backward.assign(n, 0);
                   stats_->pruned_bottomup.assign(n, 0);
                 })
  CFL_STATS_ONLY(obs::WallTimer timer;)

  if (strategy == CpiStrategy::kNaive) {
    // Section 4.1's naive sound CPI: candidates by label only.
    for (VertexId u = 0; u < n; ++u) {
      std::span<const VertexId> vs = data_.VerticesWithLabel(q.label(u));
      s_.cand[u].assign(vs.begin(), vs.end());
      CFL_STATS_ONLY(if (stats_) stats_->generated[u] = s_.cand[u].size();)
    }
    CFL_STATS_ONLY(if (stats_) stats_->top_down_seconds = timer.Lap();)
  } else {
    TopDownConstruct(q, tree);
    CFL_STATS_ONLY(if (stats_) stats_->top_down_seconds = timer.Lap();)
    if (strategy == CpiStrategy::kRefined) {
      BottomUpRefine(q, tree);
      CFL_STATS_ONLY(if (stats_) stats_->bottom_up_seconds = timer.Lap();)
    }
  }

  CFL_STATS_ONLY(timer.Lap();)  // exclude any stats bookkeeping gaps
  Cpi cpi;
  cpi.tree_ = tree;
  BuildAdjacency(tree, &cpi);

  // Flatten the per-vertex candidate sets into the arena.
  cpi.cand_offsets_.assign(n + 1, 0);
  for (VertexId u = 0; u < n; ++u) {
    cpi.cand_offsets_[u + 1] = cpi.cand_offsets_[u] + s_.cand[u].size();
  }
  cpi.cand_arena_.reserve(cpi.cand_offsets_[n]);
  for (VertexId u = 0; u < n; ++u) {
    cpi.cand_arena_.insert(cpi.cand_arena_.end(), s_.cand[u].begin(),
                           s_.cand[u].end());
  }
  CFL_STATS_ONLY(if (stats_) stats_->adjacency_seconds = timer.Lap();)
  stats_ = nullptr;
  return cpi;
} catch (...) {
  std::fill(s_.cnt.begin(), s_.cnt.end(), 0);
  std::fill(s_.seen.begin(), s_.seen.end(), 0);
  stats_ = nullptr;
  throw;
}

Cpi BuildCpi(const Graph& q, const Graph& data, const BfsTree& tree,
             CpiStrategy strategy) {
  CpiBuilder builder(data);
  return builder.Build(q, tree, strategy);
}

}  // namespace cfl
