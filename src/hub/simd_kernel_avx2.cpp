// AVX2 tier of the batched query kernel (see simd_kernel.hpp): the
// stamp-table probe over 8 target hubs per step.  Each step gathers the 8
// hubs' stamps and compares them against the current source group's
// epoch; a step with hits then folds them in vector registers — two
// 4-lane masked gathers of the source distances, an add blended back to
// kInfDist outside the hits, and a per-lane running (dist, hub) minimum —
// so a label whose hubs are mostly shared costs no branch per hit.  The 8
// lane minima are folded once per probe, and a scalar loop finishes the
// tail shorter than a step.
//
// AVX2 has no unsigned 64-bit compare: the lane minima are kept XORed with
// the sign bit, which turns the signed _mm256_cmpgt_epi64 into an unsigned
// one.  Byte-identical to every other tier: within one lane the target
// hubs arrive in ascending order, so the strict < keeps each lane's
// smallest distance and, among equal distances, its smallest hub; the
// cross-lane fold and the tail apply the lexicographic (dist, hub) rule.
//
// This TU is compiled with -mavx2 only when the toolchain supports it
// (src/hub/CMakeLists.txt); raw intrinsics stay confined to the
// src/hub/simd_kernel* TUs (the `simd` lint pass).

#include "hub/simd_kernel.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>

namespace hublab::simd::detail {

namespace {

/// Fold a matched hub into the running (dist, hub) lexicographic minimum.
inline void fold_match(HubQueryResult& best, Vertex hub, Dist d) {
  if (d < best.dist || (d == best.dist && hub < best.meeting_hub)) {
    best.dist = d;
    best.meeting_hub = hub;
  }
}

/// Fold one half-step (4 target hubs; `hit` is all-ones in the 64-bit
/// lanes whose hub is in the source label) into the lanes' running minima,
/// both sides sign-flipped.  Lanes without a hit compare as kInfDist, which
/// never updates a lane.
inline void fold_half(__m256i& best_x, __m256i& best_h, __m256i hit, __m128i hubs,
                      const Dist* dists_t, const Dist* sdist, __m256i inf, __m256i sign) {
  const __m256i src = _mm256_mask_i32gather_epi64(
      inf, reinterpret_cast<const long long*>(sdist), hubs, hit, sizeof(Dist));
  const __m256i sum =
      _mm256_add_epi64(src, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dists_t)));
  const __m256i d_x = _mm256_xor_si256(_mm256_blendv_epi8(inf, sum, hit), sign);
  const __m256i lower = _mm256_cmpgt_epi64(best_x, d_x);
  best_x = _mm256_blendv_epi8(best_x, d_x, lower);
  best_h = _mm256_blendv_epi8(best_h, _mm256_cvtepu32_epi64(hubs), lower);
}

}  // namespace

HubQueryResult probe_avx2(const Vertex* hubs_t, const Dist* dists_t, std::size_t size_t_,
                          const std::uint32_t* stamp, const Dist* sdist, std::uint32_t current) {
  HubQueryResult best;
  std::size_t i = 0;
  if (size_t_ >= 8) {
    const __m256i vcur = _mm256_set1_epi32(static_cast<int>(current));
    const __m256i inf = _mm256_set1_epi64x(static_cast<long long>(kInfDist));
    const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(Dist{1} << 63));
    // Lane l of *_lo folds target positions ≡ l (mod 8), lane l of *_hi
    // positions ≡ 4 + l; an untouched lane stays (kInfDist, kInvalidVertex).
    __m256i best_lo = _mm256_xor_si256(inf, sign);
    __m256i best_hi = best_lo;
    __m256i hub_lo = _mm256_set1_epi64x(kInvalidVertex);
    __m256i hub_hi = hub_lo;
    // 8 target hubs per step: gather their stamps (hubs of the source
    // label were just scattered, so the hits are cache-hot) and compare
    // against the group stamp; an all-miss step ends there.  No
    // data-dependent advance: the scan is a straight line over the target
    // label.
    for (; i + 8 <= size_t_; i += 8) {
      const __m256i vh = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(hubs_t + i));
      const __m256i vs =
          _mm256_i32gather_epi32(reinterpret_cast<const int*>(stamp), vh, sizeof(std::uint32_t));
      const __m256i eq = _mm256_cmpeq_epi32(vs, vcur);
      if (_mm256_testz_si256(eq, eq) != 0) continue;
      const __m128i h_lo = _mm256_castsi256_si128(vh);
      const __m128i h_hi = _mm256_extracti128_si256(vh, 1);
      fold_half(best_lo, hub_lo, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(eq)), h_lo,
                dists_t + i, sdist, inf, sign);
      fold_half(best_hi, hub_hi, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(eq, 1)), h_hi,
                dists_t + i + 4, sdist, inf, sign);
    }
    alignas(32) Dist lane_dist[8];
    alignas(32) std::uint64_t lane_hub[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_dist), _mm256_xor_si256(best_lo, sign));
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_dist + 4), _mm256_xor_si256(best_hi, sign));
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_hub), hub_lo);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_hub + 4), hub_hi);
    // The lexicographic (dist, hub) minimum over the lanes, without a
    // branch per lane: the smallest distance, then the smallest hub among
    // the lanes holding it.  An untouched lane holds (kInfDist,
    // kInvalidVertex), so it changes the answer only when every lane is
    // untouched, and then the answer is "no common hub" either way.
    Dist dmin = kInfDist;
    for (const Dist d : lane_dist) dmin = std::min(dmin, d);
    std::uint64_t hmin = kInvalidVertex;
    for (std::size_t l = 0; l < 8; ++l) {
      hmin = std::min(hmin, lane_dist[l] == dmin ? lane_hub[l] : std::uint64_t{kInvalidVertex});
    }
    best.dist = dmin;
    best.meeting_hub = static_cast<Vertex>(hmin);
  }
  for (; i < size_t_; ++i) {
    const Vertex h = hubs_t[i];
    if (stamp[h] == current) fold_match(best, h, sdist[h] + dists_t[i]);
  }
  return best;
}

}  // namespace hublab::simd::detail

#endif  // defined(__AVX2__)
