// Scalar reference implementation of the intersection primitives: a plain
// two-pointer merge for balanced inputs plus the shared galloping cutover
// for skewed ones (intersect_common.h). This is the semantics oracle the
// property tests hold every other implementation to, and the dispatch
// target on non-AVX2 hardware and under CFL_FORCE_SCALAR.

#include "kernels/intersect_common.h"
#include "kernels/kernels.h"

namespace cfl::kernels::scalar {

namespace {

void MergeValues(std::span<const uint32_t> a, std::span<const uint32_t> b,
                 std::vector<uint32_t>& out) {
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    if (x == y) {
      out.push_back(x);
      ++i;
      ++j;
    } else if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
}

uint64_t MergeCount(std::span<const uint32_t> a, std::span<const uint32_t> b) {
  uint64_t count = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
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
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    const uint32_t x = a[i];
    const uint32_t y = b[j];
    if (x == y) {
      out.push_back(static_cast<uint32_t>(j));
      ++i;
      ++j;
    } else if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
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

}  // namespace cfl::kernels::scalar
