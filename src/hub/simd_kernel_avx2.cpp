// AVX2 tier of the batched query kernel (see simd_kernel.hpp): the
// stamp-table probe over 8 target hubs per step.  Each step gathers the 8
// hubs' stamps, compares them against the current source group's epoch,
// and resolves the rare hits scalarly against the split distance columns;
// a scalar loop finishes the tail shorter than a step.  The lexicographic
// (dist, hub) minimum makes the answer byte-identical to the scalar probe
// and to the per-query sentinel merge: smallest distance, and among ties
// the smallest hub id.
//
// This TU is compiled with -mavx2 only when the toolchain supports it
// (src/hub/CMakeLists.txt); raw intrinsics stay confined to the
// src/hub/simd_kernel* TUs (the `simd` lint pass).

#include "hub/simd_kernel.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace hublab::simd::detail {

namespace {

/// Fold a matched hub into the running (dist, hub) lexicographic minimum.
inline void fold_match(HubQueryResult& best, Vertex hub, Dist d) {
  if (d < best.dist || (d == best.dist && hub < best.meeting_hub)) {
    best.dist = d;
    best.meeting_hub = hub;
  }
}

}  // namespace

HubQueryResult probe_avx2(const Vertex* hubs_t, const Dist* dists_t, std::size_t size_t_,
                          const std::uint32_t* stamp, const Dist* sdist, std::uint32_t current) {
  HubQueryResult best;
  const __m256i vcur = _mm256_set1_epi32(static_cast<int>(current));
  std::size_t i = 0;
  // 8 target hubs per step: gather their stamps (hubs of the source
  // label were just scattered, so the hits are cache-hot), compare against
  // the group stamp, resolve the rare hits scalarly.  No data-dependent advance: the scan
  // is a straight line over the target label.
  for (; i + 8 <= size_t_; i += 8) {
    const __m256i vh = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hubs_t + i));
    const __m256i vs =
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(stamp), vh, sizeof(std::uint32_t));
    const __m256i eq = _mm256_cmpeq_epi32(vs, vcur);
    auto mask = static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
    while (mask != 0) {
      const auto lane = static_cast<std::size_t>(__builtin_ctz(mask));
      mask &= mask - 1;
      const Vertex h = hubs_t[i + lane];
      fold_match(best, h, sdist[h] + dists_t[i + lane]);
    }
  }
  for (; i < size_t_; ++i) {
    const Vertex h = hubs_t[i];
    if (stamp[h] == current) fold_match(best, h, sdist[h] + dists_t[i]);
  }
  return best;
}

}  // namespace hublab::simd::detail

#endif  // defined(__AVX2__)
