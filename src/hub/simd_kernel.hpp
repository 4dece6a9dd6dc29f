#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hub/labeling.hpp"

/// \file simd_kernel.hpp
/// The two vector kernels of the library, each behind one three-tier
/// dispatch: the stamp-table probe of the batched query path
/// (hub/labeling.hpp, `HubLabeling::query_batch`) and the cover test of
/// the pruned-landmark builder (hub/pll.cpp).
///
/// A hub-label query is the intersection of two ascending hub columns plus
/// a distance-sum minimum — the serving hot path the paper's Section 1.1
/// trade-off prices.  The batch path scatters each source label into dense
/// per-hub tables once and answers every query of that source with one
/// straight-line probe scan of the target label; `ProbeFn` is that probe.
/// The SIMD tiers gather the stamps of 8 or 16 target hubs per step and
/// fold that step's hits — common hubs, which on local pairs are most of
/// the target label — in vector registers: masked gathers of the source
/// distances, a masked add, and a per-lane running (dist, hub) minimum,
/// reduced across lanes once per probe.
///
/// A pruned search settles a vertex u at distance d and asks whether an
/// earlier hub already answers (u, root) within d; `CoverFn` answers it
/// over u's rank-ordered label row against the root's rank-indexed
/// distances.  The AVX2 kernel deinterleaves 8 `{rank, dist}` entries per
/// step, gathers the root's distances and tests the step's entries in one
/// compare, returning at the first step with a hit.  The AVX-512 tier runs
/// the same kernel: a 16-entry one built no faster (docs/performance.md).
///
/// Both kernels sit behind the same dispatch:
///
///   1. compile time — each ISA kernel lives in its own TU
///      (`simd_kernel_avx2.cpp`, `simd_kernel_avx512.cpp`) compiled with
///      the matching `-m` flags only when the toolchain supports them;
///   2. run time — `best_supported_tier()` probes the executing CPU
///      (`__builtin_cpu_supports`) so a binary built with AVX-512 TUs
///      still runs correctly on an AVX2-only host;
///   3. fallback — `Tier::kScalar` is the plain loop, always available.
///
/// Every tier of a kernel returns *byte-identical* answers.  The probe
/// returns the same distance and the same meeting hub (the smallest hub id
/// achieving the minimal distance, matching the per-query sentinel merge's
/// ascending-order strict-< update).  In a SIMD lane the target hubs also
/// arrive in ascending order, so a strict unsigned < keeps the lane's
/// smallest (dist, hub); the cross-lane fold applies the lexicographic
/// rule, and the scalar tail, whose hubs follow the vector steps', the
/// strict < again.  A common hub whose sum is kInfDist is never reported,
/// on any tier, as in the merge.  The cover test evaluates one predicate per
/// entry on every tier, so only the order of evaluation differs.  Set
/// `HUBLAB_FORCE_SCALAR=1` in the environment to pin `active_tier()`, and
/// with it both kernels, to the scalar fallback (read once, like
/// HUBLAB_THREADS).  The gathers index with signed 32-bit lanes, so
/// `gather_tier()` keeps tables of more than INT32_MAX entries on the
/// scalar tier.
///
/// Raw intrinsics are confined to the `src/hub/simd_kernel*` TUs — the
/// `simd` lint pass enforces this; the header stays ISA-agnostic.

namespace hublab::simd {

/// Dispatch tiers, ordered by preference (higher = wider vectors).
enum class Tier { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Stable lowercase tier name ("scalar", "avx2", "avx512").
[[nodiscard]] const char* tier_name(Tier tier) noexcept;

/// Best tier whose kernel is both compiled in and supported by the
/// executing CPU.  Ignores HUBLAB_FORCE_SCALAR.
[[nodiscard]] Tier best_supported_tier() noexcept;

/// Every tier reachable on this host, ascending (always starts with
/// kScalar) — the sweep set for byte-identity tests.
[[nodiscard]] std::vector<Tier> supported_tiers();

/// True when the HUBLAB_FORCE_SCALAR environment knob pins the dispatch
/// to the scalar fallback (read once at first call).
[[nodiscard]] bool force_scalar() noexcept;

/// The tier `HubLabeling::query_batch` and the PLL builder dispatch to:
/// best_supported_tier(), unless force_scalar().
[[nodiscard]] Tier active_tier() noexcept;

/// `tier`, or kScalar for a table of more than INT32_MAX entries (hub
/// ids or ranks of n > INT32_MAX vertices).  The SIMD tiers gather with
/// signed 32-bit lane indices, so an index of 2^31 or more would read at a
/// negative offset; the bound is one entry stricter than it must be.
[[nodiscard]] Tier gather_tier(Tier tier, std::size_t table_size) noexcept;

/// Stamp-table probe, the batched kernel for every block size.
/// `query_batch` scatters each source group's label into dense per-hub
/// tables (`stamp[h] == current` marks h ∈ S(source), `sdist[h]` its
/// distance, widened to 64 bits), then answers every query of the group
/// with one linear scan of the *target* label — `size_t_` entries of
/// `hubs_t`/`dists_t` — probing the tables per hub.  `D` is the type of
/// the labeling's distance column: `std::uint32_t` (narrow) or `Dist`
/// (wide); the two instantiations of each tier differ only in how they
/// load the target distances, and every sum is taken in 64 bits.  The
/// touched table entries stay cache-resident across the group, and the
/// scan has no merge branches to mispredict; the AVX2/AVX-512 tiers gather
/// the stamps and fold a step's hits in vector registers, with no branch
/// per hit.  Same answer as the per-query sentinel merge
/// (`HubLabeling::query_with_hub`) on the same labels: the lexicographic
/// (dist, hub) minimum over the common hubs.
template <typename D>
using ProbeFn = HubQueryResult (*)(const Vertex* hubs_t, const D* dists_t, std::size_t size_t_,
                                   const std::uint32_t* stamp, const Dist* sdist,
                                   std::uint32_t current);

/// Resolve `tier` to its stamp-table probe kernel over `D` target
/// distances (unavailable tiers degrade to the scalar probe).  Defined for
/// D = std::uint32_t and D = Dist.
template <typename D>
[[nodiscard]] ProbeFn<D> probe_for(Tier tier) noexcept;

/// One entry of a PLL builder's in-progress label: the hub's rank and the
/// distance `D` from it.  {u32, u32} is the 8-byte entry the cover kernels
/// scan; {u32, Dist} is the 16-byte wide one (hub/pll.cpp).
template <typename D>
struct RankEntry {
  std::uint32_t rank;
  D dist;
};
static_assert(sizeof(RankEntry<std::uint32_t>) == 8);

/// PLL cover test: true when some entry `e` of the `size`-entry row, with
/// `rd = root_dist[e.rank]`, has `rd <= d && e.dist <= d - rd` — an earlier
/// hub answers the pair within `d`.  `root_dist` is the root's label
/// scattered by rank, 0xFFFFFFFF where the rank is absent; every `d` a
/// search passes is below that value, so an absent rank never hits, and
/// the `rd <= d` half stops a wrapped `d - rd` from counting as a hit.
using CoverFn = bool (*)(const RankEntry<std::uint32_t>* row, std::size_t size,
                         const std::uint32_t* root_dist, std::uint32_t d);

/// Resolve `tier` to its cover kernel: the 8-entry AVX2 kernel for kAvx2
/// and kAvx512, the scalar scan otherwise (unavailable tiers degrade to
/// it).
[[nodiscard]] CoverFn cover_for(Tier tier) noexcept;

namespace detail {

/// The scalar cover test at either row width (see CoverFn), and the
/// scalar tier of CoverFn: one branch-free pass per block of 16 entries,
/// returning at the first block with a hit, then the tail entry by entry.
/// Only baseline-ISA TUs instantiate it: the linker keeps one copy of an
/// inline template for every caller, so a copy built with -mavx2 could
/// reach a host without AVX2.
template <typename D>
[[nodiscard]] bool cover_scan(const RankEntry<D>* row, std::size_t size, const D* root_dist,
                              D d) noexcept {
  constexpr std::size_t kBlock = 16;
  const auto hits = [&](const RankEntry<D>& e) {
    const D rd = root_dist[e.rank];
    return (rd <= d) & (e.dist <= d - rd);
  };
  std::size_t i = 0;
  for (; i + kBlock <= size; i += kBlock) {
    bool hit = false;
    for (std::size_t j = i; j < i + kBlock; ++j) hit |= hits(row[j]);
    if (hit) return true;
  }
  for (; i < size; ++i) {
    if (hits(row[i])) return true;
  }
  return false;
}

/// 8-entry AVX2 cover test; defined in simd_kernel_avx2.cpp.
[[nodiscard]] bool cover_avx2(const RankEntry<std::uint32_t>* row, std::size_t size,
                              const std::uint32_t* root_dist, std::uint32_t d) noexcept;

/// The stamp epoch that follows `epoch`: epoch + 1, except on the 32-bit
/// wrap, where `stamp` is zeroed and the epoch restarts at 1.  Epochs only
/// grow between wraps and 0 is never current, so a stamp written under an
/// earlier epoch (or by a zero fill) never matches the new one.
[[nodiscard]] std::uint32_t next_epoch(std::uint32_t epoch,
                                       std::span<std::uint32_t> stamp) noexcept;

/// Scalar stamp-table probe (see ProbeFn); defined, for D = std::uint32_t
/// and D = Dist, in simd_kernel.cpp, a baseline-ISA TU.
template <typename D>
[[nodiscard]] HubQueryResult probe_scalar(const Vertex* hubs_t, const D* dists_t,
                                          std::size_t size_t_, const std::uint32_t* stamp,
                                          const Dist* sdist, std::uint32_t current);

/// 8-lane AVX2 stamp-table probe (gathered stamps, hits folded in vector
/// registers) over narrow and wide target distances; defined in
/// simd_kernel_avx2.cpp (only linked when the toolchain can target AVX2).
[[nodiscard]] HubQueryResult probe_avx2(const Vertex* hubs_t, const std::uint32_t* dists_t,
                                        std::size_t size_t_, const std::uint32_t* stamp,
                                        const Dist* sdist, std::uint32_t current);
[[nodiscard]] HubQueryResult probe_avx2(const Vertex* hubs_t, const Dist* dists_t,
                                        std::size_t size_t_, const std::uint32_t* stamp,
                                        const Dist* sdist, std::uint32_t current);

/// 16-lane AVX-512 stamp-table probe over narrow and wide target
/// distances; defined in simd_kernel_avx512.cpp.
[[nodiscard]] HubQueryResult probe_avx512(const Vertex* hubs_t, const std::uint32_t* dists_t,
                                          std::size_t size_t_, const std::uint32_t* stamp,
                                          const Dist* sdist, std::uint32_t current);
[[nodiscard]] HubQueryResult probe_avx512(const Vertex* hubs_t, const Dist* dists_t,
                                          std::size_t size_t_, const std::uint32_t* stamp,
                                          const Dist* sdist, std::uint32_t current);

}  // namespace detail

}  // namespace hublab::simd
