#pragma once

#include <cstdint>

#include "util/metrics.hpp"  // for HUBLAB_METRICS_ENABLED

/// \file querystats.hpp
/// Per-query attribution probe for the distance-query hot paths.
///
/// A `QueryStats` is stack-allocated by a caller that wants to know *why*
/// one query was slow — how many hub entries the merge scanned, how many
/// common hubs it actually compared, which hub the winning path met at —
/// and passed by reference into the `*_with_stats` entry points of the
/// query kernels (the flat hub-label merge in hub/labeling.hpp, the
/// CH two-pointer intersection, bidirectional Dijkstra).  Each kernel is
/// one loop templated on the probe type: the plain entry points run it
/// with `NoQueryStats`, whose methods are empty inline functions, so the
/// steady-state serving path pays nothing for attribution and the
/// attributed work is the work the answer did.
///
/// Like the rest of util/metrics.hpp, building with `HUBLAB_METRICS=OFF`
/// compiles attribution out: `QueryStats` is then `NoQueryStats`, probe
/// calls compile to nothing and the getters return zeros, so call sites
/// need no `#if`.
///
/// Layering: util sits below graph/, so fields are plain fixed-width
/// integers.  `kNoMeetingHub` equals graph's `kInvalidVertex`
/// (0xFFFFFFFF); callers convert at the boundary.

namespace hublab::metrics {

/// Sentinel meeting hub: no common hub / unreachable (== kInvalidVertex).
inline constexpr std::uint32_t kNoMeetingHub = 0xFFFFFFFFU;

/// The probe's API with every method a no-op: the plain query entry
/// points run their kernel with it.
class NoQueryStats {
 public:
  static constexpr bool kEnabled = false;

  void scanned(std::uint64_t = 1) noexcept {}
  void matched(std::uint64_t = 1) noexcept {}
  void labels(std::uint64_t, std::uint64_t) noexcept {}
  void meeting(std::uint32_t) noexcept {}

  [[nodiscard]] std::uint64_t hubs_scanned() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t hubs_matched() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t label_size_s() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t label_size_t() const noexcept { return 0; }
  [[nodiscard]] std::uint32_t meeting_hub() const noexcept { return kNoMeetingHub; }
  [[nodiscard]] std::uint64_t hubs_pruned() const noexcept { return 0; }
  [[nodiscard]] std::uint64_t scan_cost() const noexcept { return 0; }

  void reset() noexcept {}
};

#if HUBLAB_METRICS_ENABLED

class QueryStats {
 public:
  static constexpr bool kEnabled = true;

  /// Count hub entries (or settled vertices) the kernel looked at.
  void scanned(std::uint64_t n = 1) noexcept { hubs_scanned_ += n; }
  /// Count common hubs whose distance sum was evaluated.
  void matched(std::uint64_t n = 1) noexcept { hubs_matched_ += n; }
  /// Record the per-endpoint label (or search-space) sizes.
  void labels(std::uint64_t at_s, std::uint64_t at_t) noexcept {
    label_size_s_ = at_s;
    label_size_t_ = at_t;
  }
  /// Record the hub the best path meets at (kNoMeetingHub when none).
  void meeting(std::uint32_t hub) noexcept { meeting_hub_ = hub; }

  [[nodiscard]] std::uint64_t hubs_scanned() const noexcept { return hubs_scanned_; }
  [[nodiscard]] std::uint64_t hubs_matched() const noexcept { return hubs_matched_; }
  [[nodiscard]] std::uint64_t label_size_s() const noexcept { return label_size_s_; }
  [[nodiscard]] std::uint64_t label_size_t() const noexcept { return label_size_t_; }
  [[nodiscard]] std::uint32_t meeting_hub() const noexcept { return meeting_hub_; }

  /// Entries the merge stepped past without a sum evaluation.
  [[nodiscard]] std::uint64_t hubs_pruned() const noexcept {
    return hubs_scanned_ > hubs_matched_ ? hubs_scanned_ - hubs_matched_ : 0;
  }
  /// Scan-cost weight fed to the heavy-hitter sketch.
  [[nodiscard]] std::uint64_t scan_cost() const noexcept { return hubs_scanned_; }

  void reset() noexcept { *this = QueryStats{}; }

 private:
  std::uint64_t hubs_scanned_ = 0;
  std::uint64_t hubs_matched_ = 0;
  std::uint64_t label_size_s_ = 0;
  std::uint64_t label_size_t_ = 0;
  std::uint32_t meeting_hub_ = kNoMeetingHub;
};

#else  // HUBLAB_METRICS_ENABLED == 0: attribution compiled out.

using QueryStats = NoQueryStats;

#endif  // HUBLAB_METRICS_ENABLED

}  // namespace hublab::metrics
