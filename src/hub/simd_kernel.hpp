#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hub/labeling.hpp"

/// \file simd_kernel.hpp
/// The stamp-table probe behind the batched query path
/// (hub/flat_labeling.hpp, `FlatHubLabeling::query_batch`).
///
/// A hub-label query is the intersection of two ascending hub columns plus
/// a distance-sum minimum — the serving hot path the paper's Section 1.1
/// trade-off prices.  The batch path scatters each source label into dense
/// per-hub tables once and answers every query of that source with one
/// straight-line probe scan of the target label; the kernels here are that
/// probe.  The SIMD tiers gather the stamps of 8 or 16 target hubs per
/// step and fold that step's hits — common hubs, which on local pairs are
/// most of the target label — in vector registers: masked gathers of the
/// source distances, a masked add, and a per-lane running (dist, hub)
/// minimum, reduced across lanes once per probe.  The kernels sit behind a
/// three-tier dispatch:
///
///   1. compile time — each ISA kernel lives in its own TU
///      (`simd_kernel_avx2.cpp`, `simd_kernel_avx512.cpp`) compiled with
///      the matching `-m` flags only when the toolchain supports them;
///   2. run time — `best_supported_tier()` probes the executing CPU
///      (`__builtin_cpu_supports`) so a binary built with AVX-512 TUs
///      still runs correctly on an AVX2-only host;
///   3. fallback — `Tier::kScalar` is the plain probe loop, always
///      available.
///
/// Every tier returns *byte-identical* answers — the same distance and the
/// same meeting hub (the smallest hub id achieving the minimal distance,
/// matching the per-query sentinel merge's ascending-order strict-<
/// update).  In a SIMD lane the target hubs also arrive in ascending order,
/// so a strict unsigned < keeps the lane's smallest (dist, hub), and the
/// cross-lane fold and the scalar tail apply the lexicographic rule.  Set
/// `HUBLAB_FORCE_SCALAR=1` in the environment to pin `active_tier()` to the
/// scalar fallback (read once, like HUBLAB_THREADS).
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

/// The tier `FlatHubLabeling::query_batch` dispatches to:
/// best_supported_tier(), unless force_scalar().
[[nodiscard]] Tier active_tier() noexcept;

/// Stamp-table probe, the batched kernel for every block size.
/// `query_batch` scatters each source group's label into dense per-hub
/// tables (`stamp[h] == current` marks h ∈ S(source), `sdist[h]` its
/// distance), then answers every query of the group with one linear scan
/// of the *target* label — `size_t_` entries of `hubs_t`/`dists_t` —
/// probing the tables per hub.  The touched table entries stay
/// cache-resident across the group, and the scan has no merge branches to
/// mispredict; the AVX2/AVX-512 tiers gather the stamps and fold a step's
/// hits in vector registers, with no branch per hit.  Same answer as the
/// per-query sentinel merge (`FlatHubLabeling::query_with_hub`) on the same
/// labels: the lexicographic (dist, hub) minimum over the common hubs.
using ProbeFn = HubQueryResult (*)(const Vertex* hubs_t, const Dist* dists_t, std::size_t size_t_,
                                   const std::uint32_t* stamp, const Dist* sdist,
                                   std::uint32_t current);

/// Resolve `tier` to its stamp-table probe kernel (unavailable tiers
/// degrade to the scalar probe).
[[nodiscard]] ProbeFn probe_for(Tier tier) noexcept;

namespace detail {

/// The stamp epoch that follows `epoch`: epoch + 1, except on the 32-bit
/// wrap, where `stamp` is zeroed and the epoch restarts at 1.  Epochs only
/// grow between wraps and 0 is never current, so a stamp written under an
/// earlier epoch (or by a zero fill) never matches the new one.
[[nodiscard]] std::uint32_t next_epoch(std::uint32_t epoch,
                                       std::span<std::uint32_t> stamp) noexcept;

/// Scalar stamp-table probe (see ProbeFn).
[[nodiscard]] HubQueryResult probe_scalar(const Vertex* hubs_t, const Dist* dists_t,
                                          std::size_t size_t_, const std::uint32_t* stamp,
                                          const Dist* sdist, std::uint32_t current);

/// 8-lane AVX2 stamp-table probe (gathered stamps, hits folded in vector
/// registers); defined in simd_kernel_avx2.cpp (only linked when the
/// toolchain can target AVX2).
[[nodiscard]] HubQueryResult probe_avx2(const Vertex* hubs_t, const Dist* dists_t,
                                        std::size_t size_t_, const std::uint32_t* stamp,
                                        const Dist* sdist, std::uint32_t current);

/// 16-lane AVX-512 stamp-table probe; defined in simd_kernel_avx512.cpp.
[[nodiscard]] HubQueryResult probe_avx512(const Vertex* hubs_t, const Dist* dists_t,
                                          std::size_t size_t_, const std::uint32_t* stamp,
                                          const Dist* sdist, std::uint32_t current);

}  // namespace detail

}  // namespace hublab::simd
