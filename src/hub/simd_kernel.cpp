// Three-tier dispatch for the batched query probe and the PLL cover test
// (see simd_kernel.hpp): compile-time TU availability (HUBLAB_SIMD_HAVE_*
// definitions from src/hub/CMakeLists.txt) ∧ runtime cpuid probe, with the
// scalar kernels as the always-available fallback and the
// HUBLAB_FORCE_SCALAR environment knob pinning dispatch to them.

#include "hub/simd_kernel.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>

namespace hublab::simd {

namespace {

#if defined(__x86_64__) || defined(__i386__)
bool cpu_supports_avx2() noexcept { return __builtin_cpu_supports("avx2") != 0; }
bool cpu_supports_avx512() noexcept {
  // The 16-lane probe uses only AVX-512 foundation instructions (512-bit
  // loads, the 32- and masked 64-bit gathers, compare-to-mask, the masked
  // add and the unsigned 64-bit compare).
  return __builtin_cpu_supports("avx512f") != 0;
}
#else
bool cpu_supports_avx2() noexcept { return false; }
bool cpu_supports_avx512() noexcept { return false; }
#endif

bool compiled_avx2() noexcept {
#if defined(HUBLAB_SIMD_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

bool compiled_avx512() noexcept {
#if defined(HUBLAB_SIMD_HAVE_AVX512)
  return true;
#else
  return false;
#endif
}

}  // namespace

const char* tier_name(Tier tier) noexcept {
  switch (tier) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
    case Tier::kAvx512: return "avx512";
  }
  return "scalar";
}

Tier best_supported_tier() noexcept {
  if (compiled_avx512() && cpu_supports_avx512()) return Tier::kAvx512;
  if (compiled_avx2() && cpu_supports_avx2()) return Tier::kAvx2;
  return Tier::kScalar;
}

std::vector<Tier> supported_tiers() {
  std::vector<Tier> tiers{Tier::kScalar};
  if (compiled_avx2() && cpu_supports_avx2()) tiers.push_back(Tier::kAvx2);
  if (compiled_avx512() && cpu_supports_avx512()) tiers.push_back(Tier::kAvx512);
  return tiers;
}

bool force_scalar() noexcept {
  // Read once, before any worker threads exist; nothing in the process
  // mutates the environment (same contract as HUBLAB_THREADS).
  static const bool forced = [] {
    const char* env = std::getenv("HUBLAB_FORCE_SCALAR");  // NOLINT(concurrency-mt-unsafe)
    return env != nullptr && env[0] != '\0' && !(env[0] == '0' && env[1] == '\0');
  }();
  return forced;
}

Tier active_tier() noexcept { return force_scalar() ? Tier::kScalar : best_supported_tier(); }

Tier gather_tier(Tier tier, std::size_t table_size) noexcept {
  return table_size > std::size_t{std::numeric_limits<std::int32_t>::max()} ? Tier::kScalar : tier;
}

namespace detail {

std::uint32_t next_epoch(std::uint32_t epoch, std::span<std::uint32_t> stamp) noexcept {
  if (epoch != std::numeric_limits<std::uint32_t>::max()) return epoch + 1;
  std::fill(stamp.begin(), stamp.end(), 0U);
  return 1;
}

template <typename D>
HubQueryResult probe_scalar(const Vertex* hubs_t, const D* dists_t, std::size_t size_t_,
                            const std::uint32_t* stamp, const Dist* sdist,
                            std::uint32_t current) {
  HubQueryResult best;
  for (std::size_t i = 0; i < size_t_; ++i) {
    const Vertex h = hubs_t[i];
    if (stamp[h] == current) {
      const Dist d = sdist[h] + dists_t[i];
      // The sentinel merge's update rule: over the ascending target scan
      // the strict < keeps the smallest hub of the minimum, and a sum of
      // kInfDist records no hub.
      if (d < best.dist) {
        best.dist = d;
        best.meeting_hub = h;
      }
    }
  }
  return best;
}

template HubQueryResult probe_scalar(const Vertex*, const std::uint32_t*, std::size_t,
                                     const std::uint32_t*, const Dist*, std::uint32_t);
template HubQueryResult probe_scalar(const Vertex*, const Dist*, std::size_t,
                                     const std::uint32_t*, const Dist*, std::uint32_t);

}  // namespace detail

template <typename D>
ProbeFn<D> probe_for(Tier tier) noexcept {
  // The return type picks the AVX overload for D.
#if defined(HUBLAB_SIMD_HAVE_AVX512)
  if (tier == Tier::kAvx512 && cpu_supports_avx512()) return &detail::probe_avx512;
#endif
#if defined(HUBLAB_SIMD_HAVE_AVX2)
  if ((tier == Tier::kAvx2 || tier == Tier::kAvx512) && cpu_supports_avx2()) {
    return &detail::probe_avx2;
  }
#endif
  (void)tier;
  return &detail::probe_scalar<D>;
}

template ProbeFn<std::uint32_t> probe_for<std::uint32_t>(Tier) noexcept;
template ProbeFn<Dist> probe_for<Dist>(Tier) noexcept;

CoverFn cover_for(Tier tier) noexcept {
  // The AVX-512 tier runs the 8-entry kernel (simd_kernel.hpp).
#if defined(HUBLAB_SIMD_HAVE_AVX2)
  if ((tier == Tier::kAvx2 || tier == Tier::kAvx512) && cpu_supports_avx2()) {
    return &detail::cover_avx2;
  }
#endif
  (void)tier;
  return &detail::cover_scan<std::uint32_t>;
}

}  // namespace hublab::simd
