// AVX-512 tier of the batched query kernel (see simd_kernel.hpp): the
// same stamp-table probe as the AVX2 TU but over 16 target hubs per step,
// with compare-to-mask (_mm512_cmpeq_epi32_mask) replacing the movemask
// dance.  Answers are byte-identical to every other tier — lexicographic
// (dist, hub) minimum over the common hubs.
//
// This TU is compiled with -mavx512f only when the toolchain supports it
// (src/hub/CMakeLists.txt); raw intrinsics stay confined to the
// src/hub/simd_kernel* TUs (the `simd` lint pass).

#include "hub/simd_kernel.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

namespace hublab::simd::detail {

namespace {

inline void fold_match(HubQueryResult& best, Vertex hub, Dist d) {
  if (d < best.dist || (d == best.dist && hub < best.meeting_hub)) {
    best.dist = d;
    best.meeting_hub = hub;
  }
}

}  // namespace

// GCC's _mm512_i32gather_epi32 routes a self-initialized
// _mm512_undefined_epi32() don't-care merge source through the builtin;
// -Wmaybe-uninitialized (GCC 12) flags it through the inline even though
// the all-ones implicit mask makes the value irrelevant.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

HubQueryResult probe_avx512(const Vertex* hubs_t, const Dist* dists_t, std::size_t size_t_,
                            const std::uint32_t* stamp, const Dist* sdist,
                            std::uint32_t current) {
  HubQueryResult best;
  const __m512i vcur = _mm512_set1_epi32(static_cast<int>(current));
  std::size_t i = 0;
  // 16 target hubs per step: gather their stamps (hubs of the source
  // label were just scattered, so the hits are cache-hot), compare against
  // the group stamp, resolve the rare hits scalarly.  No data-dependent advance: the scan
  // is a straight line over the target label.
  for (; i + 16 <= size_t_; i += 16) {
    const __m512i vh = _mm512_loadu_si512(hubs_t + i);
    const __m512i vs = _mm512_i32gather_epi32(vh, stamp, sizeof(std::uint32_t));
    auto mask = static_cast<unsigned>(_mm512_cmpeq_epi32_mask(vs, vcur));
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

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace hublab::simd::detail

#endif  // defined(__AVX512F__)
