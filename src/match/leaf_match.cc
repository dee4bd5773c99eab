#include "match/leaf_match.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>

#include "check/check.h"

namespace cfl {

namespace {

// C(n, k), saturating.
uint64_t Binomial(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  uint64_t result = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    // result * (n - k + i) / i is always integral at this point.
    uint64_t numerator = n - k + i;
    if (result > kNoLimit / numerator) return kNoLimit;
    result = result * numerator / i;
  }
  return result;
}

// Falling factorial (n)_k = n (n-1) ... (n-k+1), saturating.
uint64_t FallingFactorial(uint64_t n, uint64_t k) {
  uint64_t result = 1;
  for (uint64_t i = 0; i < k; ++i) {
    result = SaturatingMul(result, n - i);
  }
  return result;
}

}  // namespace

LeafMatcher::LeafMatcher(const Graph& data, const Cpi& cpi,
                         const std::vector<VertexId>& leaves)
    : cpi_(&cpi) {
  // Label classes (Lemma 4.3) containing NEC groups: leaves with the same
  // label and the same parent have identical candidate sets.
  std::map<Label, std::map<VertexId, std::vector<VertexId>>> by_label_parent;
  for (VertexId u : leaves) {
    CFL_CHECK(cpi.NumCandidates(u) != 0)
        << " leaf " << u << " has no candidates";
    const Label label = data.label(cpi.CandidateAt(u, 0));
    by_label_parent[label][cpi.tree().parent[u]].push_back(u);
  }
  for (auto& [label, by_parent] : by_label_parent) {
    LabelClass cls;
    cls.label = label;
    for (auto& [parent, members] : by_parent) {
      NecGroup group;
      group.parent = parent;
      group.members = std::move(members);
      cls.groups.push_back(std::move(group));
    }
    classes_.push_back(std::move(cls));
  }
  for (const LabelClass& cls : classes_) {
    for (const NecGroup& g : cls.groups) {
      for (VertexId u : g.members) steps_.push_back({u, g.parent, {}});
    }
  }
}

void LeafMatcher::AvailableCandidates(
    const Graph& data, const EnumeratorState& state, const NecGroup& group,
    std::vector<std::pair<VertexId, uint32_t>>* out) const {
  out->clear();
  VertexId representative = group.members.front();
  std::span<const uint32_t> adjacent = cpi_->AdjacentPositions(
      representative, state.position[group.parent]);
  for (uint32_t pos : adjacent) {
    VertexId v = cpi_->CandidateAt(representative, pos);
    uint32_t cap = data.multiplicity(v);
    if (state.used[v] < cap) out->emplace_back(v, cap - state.used[v]);
  }
}

namespace {

// Ordered injective assignments of k interchangeable-candidate leaves into
// the expanded slots of `cands`: the falling factorial of total capacity.
uint64_t GroupFallingFactorial(
    const std::vector<std::pair<VertexId, uint32_t>>& cands, uint64_t k) {
  uint64_t capacity = 0;
  for (const auto& [v, r] : cands) capacity += r;
  if (capacity < k) return 0;
  return FallingFactorial(capacity, k);
}

}  // namespace

uint64_t LeafMatcher::CountClass(const Graph& data,
                                 const EnumeratorState& state,
                                 const LabelClass& cls) const {
  // Available candidates per group, under the core/forest embedding
  // (scratch reused across calls; see header).
  if (avail_.size() < cls.groups.size()) avail_.resize(cls.groups.size());
  std::vector<std::vector<std::pair<VertexId, uint32_t>>>& avail = avail_;
  for (size_t i = 0; i < cls.groups.size(); ++i) {
    AvailableCandidates(data, state, cls.groups[i], &avail[i]);
  }

  // Fast path 1 — single NEC group: every member has the same candidates,
  // so the count is the falling factorial of the total free capacity.
  if (cls.groups.size() == 1) {
    return GroupFallingFactorial(avail[0], cls.groups[0].members.size());
  }

  // Fast path 2 — groups with pairwise-disjoint candidates factorize.
  // Candidate lists are sorted by vertex id (CPI order), so overlap checks
  // are linear merges.
  bool disjoint = true;
  for (size_t a = 0; a < cls.groups.size() && disjoint; ++a) {
    for (size_t b = a + 1; b < cls.groups.size() && disjoint; ++b) {
      size_t i = 0, j = 0;
      while (i < avail[a].size() && j < avail[b].size()) {
        if (avail[a][i].first < avail[b][j].first) {
          ++i;
        } else if (avail[a][i].first > avail[b][j].first) {
          ++j;
        } else {
          disjoint = false;
          break;
        }
      }
    }
  }
  if (disjoint) {
    uint64_t total = 1;
    for (size_t i = 0; i < cls.groups.size(); ++i) {
      total = SaturatingMul(
          total, GroupFallingFactorial(avail[i], cls.groups[i].members.size()));
      if (total == 0) return 0;
    }
    return total;
  }

  // General case: groups of one label share candidates; enumerate capacity
  // distributions exactly.
  std::vector<size_t> group_order(cls.groups.size());
  for (size_t i = 0; i < cls.groups.size(); ++i) group_order[i] = i;
  // Paper Section 4.4: process groups in increasing candidate-count order so
  // dead ends surface early.
  std::sort(group_order.begin(), group_order.end(), [&](size_t a, size_t b) {
    return avail[a].size() < avail[b].size();
  });

  // Same-label groups can share candidates; `extra` tracks consumption by
  // earlier groups of this class.
  std::unordered_map<VertexId, uint32_t> extra;

  // Over groups: assign each group's k distinguishable leaves injectively
  // into the expanded slots of its available candidates. Per candidate v
  // with r remaining slots taking c leaves: C(left, c) ways to pick which
  // leaves, (r)_c ways to pick distinct slots.
  std::function<uint64_t(size_t)> per_group = [&](size_t gi) -> uint64_t {
    if (gi == cls.groups.size()) return 1;
    const size_t g = group_order[gi];
    const uint64_t k = cls.groups[g].members.size();
    const std::vector<std::pair<VertexId, uint32_t>>& cands = avail[g];

    std::function<uint64_t(size_t, uint64_t)> distribute =
        [&](size_t j, uint64_t left) -> uint64_t {
      if (left == 0) return per_group(gi + 1);
      if (j == cands.size()) return 0;
      const auto& [v, base_remaining] = cands[j];
      uint32_t taken = 0;
      if (auto it = extra.find(v); it != extra.end()) taken = it->second;
      if (taken >= base_remaining) return distribute(j + 1, left);
      const uint64_t remaining = base_remaining - taken;

      uint64_t total = distribute(j + 1, left);  // c = 0
      uint64_t max_c = std::min<uint64_t>(left, remaining);
      for (uint64_t c = 1; c <= max_c; ++c) {
        uint64_t ways = SaturatingMul(Binomial(left, c),
                                      FallingFactorial(remaining, c));
        extra[v] = taken + static_cast<uint32_t>(c);
        total = SaturatingAdd(total,
                              SaturatingMul(ways, distribute(j + 1, left - c)));
      }
      if (taken == 0) {
        extra.erase(v);
      } else {
        extra[v] = taken;
      }
      return total;
    };

    return distribute(0, k);
  };

  return per_group(0);
}

uint64_t LeafMatcher::CountEmbeddings(const Graph& data,
                                      const EnumeratorState& state) const {
  uint64_t total = 1;
  for (const LabelClass& cls : classes_) {
    uint64_t class_count = CountClass(data, state, cls);
    if (class_count == 0) return 0;
    total = SaturatingMul(total, class_count);
  }
  return total;
}

}  // namespace cfl
