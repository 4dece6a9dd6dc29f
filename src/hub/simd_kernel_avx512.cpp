// AVX-512 tier of the batched query kernel (see simd_kernel.hpp): the
// stamp-table probe over 16 target hubs per step.  Each step gathers the
// 16 hubs' stamps and compares them against the current source group's
// epoch (_mm512_cmpeq_epi32_mask); a step with hits then folds them in
// vector registers — masked gathers of the source distances, a masked add
// of the target distances, and a per-lane running (dist, hub) minimum —
// so a label whose hubs are mostly shared costs no branch per hit.  The
// 16 lane minima are folded once per probe, and a scalar loop finishes
// the tail shorter than a step.  One template runs both distance widths:
// the narrow entry point zero-extends 8 u32 target distances per
// half-step, the wide one loads 8 u64.
//
// Byte-identical to every other tier: within one lane the target hubs
// arrive in ascending order, so the strict unsigned < keeps each lane's
// smallest distance and, among equal distances, its smallest hub; the
// cross-lane fold applies the lexicographic (dist, hub) rule, and the
// tail, whose hubs follow the steps', the strict < again.
//
// This TU is compiled with -mavx512f only when the toolchain supports it
// (src/hub/CMakeLists.txt); raw intrinsics stay confined to the
// src/hub/simd_kernel* TUs (the `simd` lint pass).

#include "hub/simd_kernel.hpp"

#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>

namespace hublab::simd::detail {

namespace {

/// Fold a tail hit into the running minimum.  Its hub follows every
/// earlier hit's, so the strict < keeps the smallest hub of the minimum,
/// and a sum of kInfDist records no hub, as in the sentinel merge.
inline void fold_match(HubQueryResult& best, Vertex hub, Dist d) {
  if (d < best.dist) {
    best.dist = d;
    best.meeting_hub = hub;
  }
}

/// 8 target distances as 64-bit lanes.
template <typename D>
inline __m512i load_dists(const D* dists_t) {
  if constexpr (sizeof(D) == sizeof(std::uint32_t)) {
    return _mm512_cvtepu32_epi64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(dists_t)));
  } else {
    return _mm512_loadu_si512(dists_t);
  }
}

/// Fold one half-step (8 target hubs, `hit` marking those in the source
/// label) into the lanes' running minima.  Lanes without a hit keep
/// kInfDist, which never updates a lane.
template <typename D>
inline void fold_half(__m512i& best_d, __m512i& best_h, __mmask8 hit, __m256i hubs,
                      const D* dists_t, const Dist* sdist, __m512i inf) {
  const __m512i src = _mm512_mask_i32gather_epi64(inf, hit, hubs, sdist, sizeof(Dist));
  const __m512i d = _mm512_mask_add_epi64(inf, hit, src, load_dists(dists_t));
  const __mmask8 lower = _mm512_cmplt_epu64_mask(d, best_d);
  best_d = _mm512_mask_mov_epi64(best_d, lower, d);
  best_h = _mm512_mask_mov_epi64(best_h, lower, _mm512_cvtepu32_epi64(hubs));
}

// GCC's _mm512_i32gather_epi32 routes a self-initialized
// _mm512_undefined_epi32() don't-care merge source through the builtin;
// -Wmaybe-uninitialized (GCC 12) flags it through the inline even though
// the all-ones implicit mask makes the value irrelevant.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

template <typename D>
HubQueryResult probe(const Vertex* hubs_t, const D* dists_t, std::size_t size_t_,
                     const std::uint32_t* stamp, const Dist* sdist, std::uint32_t current) {
  HubQueryResult best;
  std::size_t i = 0;
  if (size_t_ >= 16) {
    const __m512i vcur = _mm512_set1_epi32(static_cast<int>(current));
    const __m512i inf = _mm512_set1_epi64(static_cast<long long>(kInfDist));
    // Lane l of *_lo folds target positions ≡ l (mod 16), lane l of *_hi
    // positions ≡ 8 + l; an untouched lane stays (kInfDist, kInvalidVertex).
    __m512i best_lo = inf;
    __m512i best_hi = inf;
    __m512i hub_lo = _mm512_set1_epi64(kInvalidVertex);
    __m512i hub_hi = hub_lo;
    // 16 target hubs per step: gather their stamps (hubs of the source
    // label were just scattered, so the hits are cache-hot) and compare
    // against the group stamp; an all-miss step ends there.  No
    // data-dependent advance: the scan is a straight line over the target
    // label.
    for (; i + 16 <= size_t_; i += 16) {
      const __m512i vh = _mm512_loadu_si512(hubs_t + i);
      const __m512i vs = _mm512_i32gather_epi32(vh, stamp, sizeof(std::uint32_t));
      const __mmask16 hit = _mm512_cmpeq_epi32_mask(vs, vcur);
      if (hit == 0) continue;
      fold_half(best_lo, hub_lo, static_cast<__mmask8>(hit), _mm512_castsi512_si256(vh),
                dists_t + i, sdist, inf);
      fold_half(best_hi, hub_hi, static_cast<__mmask8>(hit >> 8),
                _mm512_extracti64x4_epi64(vh, 1), dists_t + i + 8, sdist, inf);
    }
    alignas(64) Dist lane_dist[16];
    alignas(64) std::uint64_t lane_hub[16];
    _mm512_store_si512(lane_dist, best_lo);
    _mm512_store_si512(lane_dist + 8, best_hi);
    _mm512_store_si512(lane_hub, hub_lo);
    _mm512_store_si512(lane_hub + 8, hub_hi);
    // The lexicographic (dist, hub) minimum over the lanes, without a
    // branch per lane: the smallest distance, then the smallest hub among
    // the lanes holding it.  An untouched lane holds (kInfDist,
    // kInvalidVertex), so it changes the answer only when every lane is
    // untouched, and then the answer is "no common hub" either way.
    Dist dmin = kInfDist;
    for (const Dist d : lane_dist) dmin = std::min(dmin, d);
    std::uint64_t hmin = kInvalidVertex;
    for (std::size_t l = 0; l < 16; ++l) {
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

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

}  // namespace

HubQueryResult probe_avx512(const Vertex* hubs_t, const std::uint32_t* dists_t,
                            std::size_t size_t_, const std::uint32_t* stamp, const Dist* sdist,
                            std::uint32_t current) {
  return probe(hubs_t, dists_t, size_t_, stamp, sdist, current);
}

HubQueryResult probe_avx512(const Vertex* hubs_t, const Dist* dists_t, std::size_t size_t_,
                            const std::uint32_t* stamp, const Dist* sdist,
                            std::uint32_t current) {
  return probe(hubs_t, dists_t, size_t_, stamp, sdist, current);
}

}  // namespace hublab::simd::detail

#endif  // defined(__AVX512F__)
