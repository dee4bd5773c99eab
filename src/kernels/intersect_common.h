// Internal helpers shared by the scalar and AVX2 intersection translation
// units: the galloping (exponential + binary) search side of the
// size-adaptive strategy (its cutover, kGallopRatio, is in kernels.h).
// Scalar code only — this header is compiled both with and without -mavx2
// and must behave identically either way. Not part of the public kernel API.

#ifndef CFL_KERNELS_INTERSECT_COMMON_H_
#define CFL_KERNELS_INTERSECT_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cfl::kernels::detail {

// Smallest index i in [from, n) with arr[i] >= key, found by exponential
// probing from `from` followed by binary search inside the located window.
// O(log(i - from)) — the reason galloping intersections are cheap when the
// matches are clustered near the front.
inline size_t GallopLowerBound(const uint32_t* arr, size_t n, size_t from,
                               uint32_t key) {
  if (from >= n || arr[from] >= key) return from;
  // arr[from] < key: widen (from, from + offset] until it brackets key.
  size_t offset = 1;
  while (from + offset < n && arr[from + offset] < key) offset <<= 1;
  size_t lo = from + offset / 2 + 1;
  size_t hi = from + offset < n ? from + offset : n;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (arr[mid] < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// a ∩ b by galloping `small` through `large`, appending the common values.
inline void GallopValues(std::span<const uint32_t> small,
                         std::span<const uint32_t> large,
                         std::vector<uint32_t>& out) {
  size_t base = 0;
  for (const uint32_t x : small) {
    base = GallopLowerBound(large.data(), large.size(), base, x);
    if (base == large.size()) return;
    if (large[base] == x) {
      out.push_back(x);
      ++base;
    }
  }
}

inline uint64_t GallopCount(std::span<const uint32_t> small,
                            std::span<const uint32_t> large) {
  uint64_t count = 0;
  size_t base = 0;
  for (const uint32_t x : small) {
    base = GallopLowerBound(large.data(), large.size(), base, x);
    if (base == large.size()) return count;
    if (large[base] == x) {
      ++count;
      ++base;
    }
  }
  return count;
}

// Positions (indices into `large`) of the common elements, `small` galloped
// through `large`. Used when the position-bearing side is the long one.
inline void GallopPositionsInLarge(std::span<const uint32_t> small,
                                   std::span<const uint32_t> large,
                                   std::vector<uint32_t>& out) {
  size_t base = 0;
  for (const uint32_t x : small) {
    base = GallopLowerBound(large.data(), large.size(), base, x);
    if (base == large.size()) return;
    if (large[base] == x) {
      out.push_back(static_cast<uint32_t>(base));
      ++base;
    }
  }
}

// Positions (indices into `small`) of the common elements, `small` galloped
// through `large`. Used when the position-bearing side is the short one.
inline void GallopPositionsInSmall(std::span<const uint32_t> small,
                                   std::span<const uint32_t> large,
                                   std::vector<uint32_t>& out) {
  size_t base = 0;
  for (size_t j = 0; j < small.size(); ++j) {
    base = GallopLowerBound(large.data(), large.size(), base, small[j]);
    if (base == large.size()) return;
    if (large[base] == small[j]) {
      out.push_back(static_cast<uint32_t>(j));
      ++base;
    }
  }
}

}  // namespace cfl::kernels::detail

#endif  // CFL_KERNELS_INTERSECT_COMMON_H_
