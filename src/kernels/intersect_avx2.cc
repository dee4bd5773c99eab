// AVX2 implementation of the intersection primitives. Balanced inputs take
// the classic 8-lane block-compare merge (Schlegel/Katsogridakis-style):
// load 8 elements from each side, compare one block against all 8 rotations
// of the other to get a per-lane match mask, compact the matched lanes with
// a 256-entry shuffle table, then advance whichever block has the smaller
// maximum. Skewed inputs take the same galloping cutover as the scalar
// implementation (intersect_common.h) — galloping is branch-and-search
// bound, so SIMD adds nothing there.
//
// This translation unit is the only one compiled with -mavx2 (see
// CMakeLists.txt); it is safe to *link* everywhere and must only be
// *called* when Avx2Available() — the dispatch layer guarantees that.
//
// Correctness note on the block advance: when a block of `a` is retired
// (a_max <= b_max), every element of it is <= b_max, and all unseen `b`
// elements are > b_max — no match can be missed. Matched lanes are emitted
// exactly once because inputs are strictly ascending: a value matched in
// the current block pairing cannot reappear in any later block.

#include "kernels/intersect_common.h"
#include "kernels/kernels.h"

#if defined(CFL_KERNELS_HAVE_AVX2)

#include <immintrin.h>

namespace cfl::kernels::avx2 {

namespace {

// Lane-compaction shuffle control: for an 8-bit match mask, the lane
// indices of the set bits packed to the front (trailing lanes don't care).
struct CompactTable {
  alignas(32) uint32_t idx[256][8];
  CompactTable() {
    for (int mask = 0; mask < 256; ++mask) {
      int k = 0;
      for (int lane = 0; lane < 8; ++lane) {
        if ((mask & (1 << lane)) != 0) idx[mask][k++] = lane;
      }
      for (; k < 8; ++k) idx[mask][k] = 0;
    }
  }
};

const CompactTable& Table() {
  static const CompactTable table;
  return table;
}

inline __m256i Rotate1(__m256i v) {
  return _mm256_permutevar8x32_epi32(v, _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0));
}

// Per-lane mask: bit l set iff lane l of `x` equals some lane of `y`.
inline int MatchMask(__m256i x, __m256i y) {
  __m256i m = _mm256_cmpeq_epi32(x, y);
  __m256i r = y;
  for (int k = 1; k < 8; ++k) {
    r = Rotate1(r);
    m = _mm256_or_si256(m, _mm256_cmpeq_epi32(x, r));
  }
  return _mm256_movemask_ps(_mm256_castsi256_ps(m));
}

void MergeValues(std::span<const uint32_t> a, std::span<const uint32_t> b,
                 std::vector<uint32_t>& out) {
  const size_t na = a.size();
  const size_t nb = b.size();
  // Write through a raw cursor with 8 lanes of headroom: each block store
  // writes a full vector, of which only popcount(mask) lanes are kept.
  const size_t base = out.size();
  out.resize(base + (na < nb ? na : nb) + 8);
  uint32_t* dst = out.data() + base;
  size_t i = 0;
  size_t j = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + j));
    const int mask = MatchMask(va, vb);
    const __m256i shuf = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(Table().idx[mask]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                        _mm256_permutevar8x32_epi32(va, shuf));
    dst += __builtin_popcount(static_cast<unsigned>(mask));
    const uint32_t amax = a[i + 7];
    const uint32_t bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  while (i < na && j < nb) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    if (x == y) {
      *dst++ = x;
      ++i;
      ++j;
    } else if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
  out.resize(static_cast<size_t>(dst - out.data()));
}

uint64_t MergeCount(std::span<const uint32_t> a, std::span<const uint32_t> b) {
  const size_t na = a.size();
  const size_t nb = b.size();
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + j));
    count += __builtin_popcount(static_cast<unsigned>(MatchMask(va, vb)));
    const uint32_t amax = a[i + 7];
    const uint32_t bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  while (i < na && j < nb) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    if (x == y) {
      ++count;
      ++i;
      ++j;
    } else if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

void MergePositions(std::span<const uint32_t> a, std::span<const uint32_t> b,
                    std::vector<uint32_t>& out) {
  const size_t na = a.size();
  const size_t nb = b.size();
  const size_t base = out.size();
  out.resize(base + (na < nb ? na : nb) + 8);
  uint32_t* dst = out.data() + base;
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  size_t i = 0;
  size_t j = 0;
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + j));
    // Mask over the *b* lanes: positions are indices into b.
    const int mask = MatchMask(vb, va);
    const __m256i positions =
        _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(j)), iota);
    const __m256i shuf = _mm256_load_si256(
        reinterpret_cast<const __m256i*>(Table().idx[mask]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst),
                        _mm256_permutevar8x32_epi32(positions, shuf));
    dst += __builtin_popcount(static_cast<unsigned>(mask));
    const uint32_t amax = a[i + 7];
    const uint32_t bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
  }
  while (i < na && j < nb) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    if (x == y) {
      *dst++ = static_cast<uint32_t>(j);
      ++i;
      ++j;
    } else if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
  out.resize(static_cast<size_t>(dst - out.data()));
}

}  // namespace

void IntersectSorted(std::span<const uint32_t> a, std::span<const uint32_t> b,
                     std::vector<uint32_t>& out) {
  if (a.empty() || b.empty()) return;
  if (a.size() > b.size() * kGallopRatio) return detail::GallopValues(b, a, out);
  if (b.size() > a.size() * kGallopRatio) return detail::GallopValues(a, b, out);
  MergeValues(a, b, out);
}

uint64_t IntersectCount(std::span<const uint32_t> a,
                        std::span<const uint32_t> b) {
  if (a.empty() || b.empty()) return 0;
  if (a.size() > b.size() * kGallopRatio) return detail::GallopCount(b, a);
  if (b.size() > a.size() * kGallopRatio) return detail::GallopCount(a, b);
  return MergeCount(a, b);
}

void IntersectPositions(std::span<const uint32_t> a,
                        std::span<const uint32_t> b,
                        std::vector<uint32_t>& out) {
  if (a.empty() || b.empty()) return;
  if (a.size() > b.size() * kGallopRatio) {
    return detail::GallopPositionsInSmall(b, a, out);
  }
  if (b.size() > a.size() * kGallopRatio) {
    return detail::GallopPositionsInLarge(a, b, out);
  }
  MergePositions(a, b, out);
}

}  // namespace cfl::kernels::avx2

#endif  // CFL_KERNELS_HAVE_AVX2
