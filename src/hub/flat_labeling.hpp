#pragma once

#include <span>
#include <utility>
#include <vector>

#include "hub/labeling.hpp"
#include "hub/simd_kernel.hpp"
#include "util/querystats.hpp"

/// \file flat_labeling.hpp
/// Structure-of-arrays hub labeling for the query fast path.
///
/// `HubLabeling` stores labels as vector<vector<HubEntry>>: one heap
/// allocation per vertex, a pointer chase per label on every query, and
/// 12-byte entries padded to 16.  The query merge is exactly where exact
/// distance oracles win or lose (the space/time tradeoff of the source
/// paper's Section 1.1), so `FlatHubLabeling` converts a finalized
/// labeling into three flat arrays:
///
///  - `offsets_[v]` — CSR-style start of v's label in the hub/dist arrays;
///  - `hubs_`      — all hub ids, each label sorted ascending and
///                   terminated by a `kInvalidVertex` sentinel;
///  - `dists_`     — distances parallel to `hubs_` (sentinel slots hold
///                   `kInfDist`).
///
/// Splitting hubs from distances keeps the merge loop's comparisons on a
/// dense u32 stream, and the sentinel (== the maximum u32, sorting after
/// every real hub) lets the merge advance without bounds checks: the loop
/// only ever tests hub values, and terminates when both cursors reach
/// their sentinels.  Queries return bit-identical results to
/// `HubLabeling::query` on the labeling the structure was built from.
///
/// The structure is immutable; rebuild it after the source labeling
/// changes.

namespace hublab {

class FlatHubLabeling {
 public:
  FlatHubLabeling() = default;

  /// Convert a finalized labeling (sorted, deduplicated labels).
  explicit FlatHubLabeling(const HubLabeling& labels);

  /// Adopt pre-built flat arrays (the PLL builder's single-pass finalize).
  /// The arrays must already be in this class's layout: `offsets` has
  /// n + 1 entries counting sentinels, every label is sorted ascending by
  /// hub id and terminated by a kInvalidVertex/kInfDist sentinel pair.
  FlatHubLabeling(std::size_t num_vertices, std::vector<std::size_t> offsets,
                  std::vector<Vertex> hubs, std::vector<Dist> dists);

  [[nodiscard]] std::size_t num_vertices() const { return num_vertices_; }

  /// Entries of S(v), excluding the sentinel.
  [[nodiscard]] std::size_t label_size(Vertex v) const {
    HUBLAB_ASSERT_RANGE(v, num_vertices_);
    return offsets_[v + 1] - offsets_[v] - 1;
  }

  /// Hub ids of S(v) in ascending order, excluding the sentinel.
  [[nodiscard]] std::span<const Vertex> hubs(Vertex v) const {
    HUBLAB_ASSERT_RANGE(v, num_vertices_);
    return {hubs_.data() + offsets_[v], label_size(v)};
  }

  /// Distances parallel to hubs(v).
  [[nodiscard]] std::span<const Dist> dists(Vertex v) const {
    HUBLAB_ASSERT_RANGE(v, num_vertices_);
    return {dists_.data() + offsets_[v], label_size(v)};
  }

  /// Sum of label sizes over all vertices (sentinels excluded).
  [[nodiscard]] std::size_t total_hubs() const {
    return hubs_.empty() ? 0 : hubs_.size() - num_vertices_;
  }

  /// Common-hub minimum over the flat arrays; kInfDist when the labels
  /// share no hub.  Same results as HubLabeling::query on the source
  /// labeling.
  [[nodiscard]] Dist query(Vertex u, Vertex v) const { return query_with_hub(u, v).dist; }

  /// As query(), also reporting the meeting hub.
  [[nodiscard]] HubQueryResult query_with_hub(Vertex u, Vertex v) const {
    metrics::NoQueryStats none;
    return query_with_stats(u, v, none);
  }

  /// The merge loop behind query_with_hub(), with an attribution probe
  /// (`hublab explain`, the server's per-query scan attribution): same
  /// sentinel-terminated merge, same result, plus the probe records the
  /// label sizes, one scanned entry per cursor step, one match per common
  /// hub, and the meeting hub.  query_with_hub() runs it with the no-op
  /// `NoQueryStats` (util/querystats.hpp).
  template <class Stats>
  [[nodiscard]] HubQueryResult query_with_stats(Vertex u, Vertex v, Stats& stats) const {
    HUBLAB_ASSERT_RANGE(u, num_vertices_);
    HUBLAB_ASSERT_RANGE(v, num_vertices_);
    stats.labels(label_size(u), label_size(v));
    const Vertex* ha = hubs_.data() + offsets_[u];
    const Dist* da = dists_.data() + offsets_[u];
    const Vertex* hb = hubs_.data() + offsets_[v];
    const Dist* db = dists_.data() + offsets_[v];
    HubQueryResult best;
    for (;;) {
      const Vertex a = *ha;
      const Vertex b = *hb;
      if (a == b) {
        if (a == kInvalidVertex) break;  // both cursors hit their sentinels
        stats.scanned();
        stats.matched();
        const Dist d = *da + *db;
        if (d < best.dist) {
          best.dist = d;
          best.meeting_hub = a;
        }
        ++ha, ++da;
        ++hb, ++db;
      } else if (a < b) {
        stats.scanned();
        ++ha, ++da;
      } else {
        stats.scanned();
        ++hb, ++db;
      }
    }
    stats.meeting(best.meeting_hub);
    return best;
  }

  /// Batched queries: answer `pairs[i]` into `out[i]` (same size spans).
  /// The block is grouped by source vertex (indices sorted by source, ties
  /// in block order); each source label is scattered once into per-hub stamp
  /// tables and every query of the group is one probe scan of its target
  /// label, on the tier reported by `simd::active_tier()`.  The tables are
  /// per calling thread and kept across calls (12 B per vertex of the
  /// largest labeling the thread has queried), so a block of any size pays
  /// only for the labels it touches.  Results are byte-identical to
  /// per-query `query_with_hub` for every tier and block size: same
  /// distance, same meeting hub.  Registers the `query.batch.*` counters
  /// (docs/observability.md).
  void query_batch(std::span<const std::pair<Vertex, Vertex>> pairs,
                   std::span<HubQueryResult> out) const;

  /// As query_batch(), on an explicit dispatch tier (tests and the
  /// bench's tier sweep; unavailable tiers degrade to scalar).
  void query_batch_tier(std::span<const std::pair<Vertex, Vertex>> pairs,
                        std::span<HubQueryResult> out, simd::Tier tier) const;

  /// Actual heap footprint: array capacities plus the container
  /// bookkeeping, comparable with HubLabeling::memory_bytes().
  [[nodiscard]] std::size_t memory_bytes() const {
    return offsets_.capacity() * sizeof(std::size_t) + hubs_.capacity() * sizeof(Vertex) +
           dists_.capacity() * sizeof(Dist);
  }

 private:
  std::size_t num_vertices_ = 0;
  std::vector<std::size_t> offsets_;  ///< size n + 1, counting sentinels
  std::vector<Vertex> hubs_;          ///< per-label sorted, sentinel-terminated
  std::vector<Dist> dists_;           ///< parallel to hubs_
};

}  // namespace hublab
