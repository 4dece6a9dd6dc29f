#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/querystats.hpp"

/// \file labeling.hpp
/// Hub labelings (2-hop covers, [CHKZ03]): every vertex v stores a hubset
/// S(v) with exact distances; the distance query u-v returns
///   min_{w in S(u) cap S(v)} dist(u, w) + dist(w, v),
/// which is exact iff the family {S(v)} is a *shortest-path cover*:
/// every connected pair has a common hub on a shortest path.

namespace hublab {

namespace simd {
enum class Tier;  // hub/simd_kernel.hpp, which includes this header
}  // namespace simd

/// One label entry: a hub and the exact distance to it.
struct HubEntry {
  Vertex hub;
  Dist dist;
};

/// Result of a hub query: the distance estimate and the hub realizing it.
struct HubQueryResult {
  Dist dist = kInfDist;
  Vertex meeting_hub = kInvalidVertex;
};

/// Read-only view of one label's distances, whichever width the labeling
/// stores them at: `operator[]` and the iterators return `Dist`.
class DistView {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Dist;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Dist;

    iterator() = default;
    iterator(const std::uint32_t* narrow, const Dist* wide) : narrow_(narrow), wide_(wide) {}
    Dist operator*() const { return wide_ != nullptr ? *wide_ : *narrow_; }
    iterator& operator++() {
      if (wide_ != nullptr) ++wide_;
      else ++narrow_;
      return *this;
    }
    iterator operator++(int) {
      const iterator before = *this;
      ++*this;
      return before;
    }
    bool operator==(const iterator&) const = default;

   private:
    const std::uint32_t* narrow_ = nullptr;
    const Dist* wide_ = nullptr;
  };

  /// Exactly one of `narrow` and `wide` is non-null.
  DistView(const std::uint32_t* narrow, const Dist* wide, std::size_t size)
      : narrow_(narrow), wide_(wide), size_(size) {}

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] Dist operator[](std::size_t i) const {
    return wide_ != nullptr ? wide_[i] : narrow_[i];
  }
  [[nodiscard]] iterator begin() const { return {narrow_, wide_}; }
  [[nodiscard]] iterator end() const {
    return wide_ != nullptr ? iterator{nullptr, wide_ + size_} : iterator{narrow_ + size_, nullptr};
  }

 private:
  const std::uint32_t* narrow_;
  const Dist* wide_;
  std::size_t size_;
};

/// A hub labeling for an n-vertex undirected graph, stored as flat
/// structure-of-arrays columns for the query fast path:
///
///  - `offsets_[v]` — CSR-style start of v's label in the hub/dist columns;
///  - `hubs_`      — all hub ids, each label sorted ascending and
///                   terminated by a `kInvalidVertex` sentinel;
///  - one distance column parallel to `hubs_`: `narrow_dists_` (u32,
///    sentinel slots hold `kNarrowSentinel`) when every distance is at
///    most `kMaxNarrowDist`, else `wide_dists_` (`Dist`, sentinel slots
///    hold `kInfDist`).  The other column is empty.  The width follows
///    from the distances alone; `dist_bytes()` reports it.
///
/// Splitting hubs from distances keeps the merge loop's comparisons on a
/// dense u32 stream, and the sentinel (== the maximum u32, sorting after
/// every real hub) lets the merge advance without bounds checks: the loop
/// only ever tests hub values, and terminates when both cursors reach
/// their sentinels.  A query is a linear merge of the two labels,
/// O(|S(u)| + |S(v)|).  One construction loop writes the columns, so
/// every producer hands it rows and every labeling has S(v) within V.  The
/// structure is immutable; build a new one to change a label.
class HubLabeling {
 public:
  /// The largest distance the narrow column holds; one above it is the
  /// narrow sentinel, which no kernel reads.
  static constexpr Dist kMaxNarrowDist = 0xFFFFFFFE;

  HubLabeling() = default;

  /// Fills S(v) into `row`, which arrives empty: hubs in any order,
  /// duplicates allowed.
  using RowFiller = std::function<void(Vertex v, std::vector<HubEntry>& row)>;

  /// The one construction loop, which alone writes the columns.  For
  /// v = 0..n-1 it calls `fill_row(v, row)` once, sorts the row by hub id
  /// keeping the minimum distance per hub (one scan when the row is
  /// already strictly ascending), asserts every hub is < n (S(v) is a
  /// subset of V; HUBLAB_ASSERT_RANGE), and appends the row and its
  /// sentinel.  The columns are reserved once for `num_entries` entries
  /// plus the n sentinels, so a producer passing the exact count after
  /// deduplication gets capacity == size.  Distances go to the narrow
  /// column until the first one above kMaxNarrowDist, which moves the
  /// column to the wide one once, at the same capacity.
  HubLabeling(std::size_t num_vertices, std::size_t num_entries, const RowFiller& fill_row);

  /// Build from per-vertex rows (rows[v] is S(v)) through the construction
  /// loop.  Each row is sorted first, to count the entries, and freed once
  /// it is moved in.
  explicit HubLabeling(std::vector<std::vector<HubEntry>> rows);

  /// perfbench/e2e.cpp spells this; the next benchmark PR deletes it.
  void finalize() const {}

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
  [[nodiscard]] DistView dists(Vertex v) const {
    HUBLAB_ASSERT_RANGE(v, num_vertices_);
    if (wide()) return {nullptr, wide_dists_.data() + offsets_[v], label_size(v)};
    return {narrow_dists_.data() + offsets_[v], nullptr, label_size(v)};
  }

  /// Bytes per stored distance: 4 when every distance is at most
  /// kMaxNarrowDist, else 8.
  [[nodiscard]] std::size_t dist_bytes() const {
    return wide() ? sizeof(Dist) : sizeof(std::uint32_t);
  }

  /// Sum of label sizes over all vertices (sentinels excluded).
  [[nodiscard]] std::size_t total_hubs() const {
    return hubs_.empty() ? 0 : hubs_.size() - num_vertices_;
  }

  /// Average label size (total / n).
  [[nodiscard]] double average_label_size() const;

  [[nodiscard]] std::size_t max_label_size() const;

  /// True if `hub` appears in S(v).
  [[nodiscard]] bool has_hub(Vertex v, Vertex hub) const;

  /// Exact-or-overestimate distance via the common-hub minimum; kInfDist if
  /// the labels share no hub.
  [[nodiscard]] Dist query(Vertex u, Vertex v) const { return query_with_hub(u, v).dist; }

  /// As query(), also reporting the meeting hub: the smallest hub id
  /// achieving the minimum.
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
    const HubQueryResult best = wide() ? merge(wide_dists_.data(), u, v, stats)
                                       : merge(narrow_dists_.data(), u, v, stats);
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

  /// Actual heap footprint: array capacities (offsets, hub and live
  /// distance column, sentinels included; the other column holds none).
  [[nodiscard]] std::size_t memory_bytes() const {
    return offsets_.capacity() * sizeof(std::size_t) + hubs_.capacity() * sizeof(Vertex) +
           narrow_dists_.capacity() * sizeof(std::uint32_t) +
           wide_dists_.capacity() * sizeof(Dist);
  }

  /// Deep invariant audit (see util/audit.hpp): every label is sorted
  /// strictly by hub id (hence deduplicated) with in-range hubs, and a
  /// sampled cover-property check against per-source SSSP ground truth --
  /// `num_samples` random sources have every label entry's distance
  /// re-derived and `num_samples` random pairs must query to the exact
  /// distance.  Pass num_samples = 0 to audit structure only.
  ///
  /// `threads` parallelizes the per-vertex and per-sample loops
  /// (util/parallel.hpp); the report is bit-identical for every thread
  /// count (per-chunk reports merged in chunk order).
  [[nodiscard]] AuditReport audit(const Graph& g, std::size_t num_samples = 32,
                                  std::uint64_t seed = 1, std::size_t threads = 1) const;

 private:
  static constexpr std::uint32_t kNarrowSentinel = 0xFFFFFFFF;

  [[nodiscard]] bool wide() const { return !wide_dists_.empty(); }

  /// Moves the narrow column into the wide one, at the same capacity.
  void widen();

  /// The sentinel merge over distance column `dists`, of either width;
  /// sums are taken in Dist.
  template <class D, class Stats>
  [[nodiscard]] HubQueryResult merge(const D* dists, Vertex u, Vertex v, Stats& stats) const {
    const Vertex* ha = hubs_.data() + offsets_[u];
    const D* da = dists + offsets_[u];
    const Vertex* hb = hubs_.data() + offsets_[v];
    const D* db = dists + offsets_[v];
    HubQueryResult best;
    for (;;) {
      const Vertex a = *ha;
      const Vertex b = *hb;
      if (a == b) {
        if (a == kInvalidVertex) break;  // both cursors hit their sentinels
        stats.scanned();
        stats.matched();
        const Dist d = Dist{*da} + *db;
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
    return best;
  }

  std::size_t num_vertices_ = 0;
  std::vector<std::size_t> offsets_;         ///< size n + 1, counting sentinels
  std::vector<Vertex> hubs_;                 ///< per-label sorted, sentinel-terminated
  std::vector<std::uint32_t> narrow_dists_;  ///< parallel to hubs_, or empty
  std::vector<Dist> wide_dists_;             ///< parallel to hubs_, or empty
};

class DistanceMatrix;  // algo/distance_matrix.hpp

/// A witness that a labeling is wrong: either a label entry with a wrong
/// distance, or an uncovered pair.
struct LabelingDefect {
  enum class Kind { kWrongDistance, kUncoveredPair } kind;
  Vertex u;
  Vertex v;              ///< hub for kWrongDistance; second endpoint otherwise
  Dist stored;           ///< labeling's answer
  Dist actual;           ///< ground truth
};

/// Full verification against ground truth: every entry's distance is exact
/// and every connected pair queries to the true distance.
/// Returns nullopt when the labeling is a correct shortest-path cover.
///
/// `threads` splits the scans over deterministic static chunks; the
/// returned defect is always the *first* one in sequential scan order,
/// independent of the thread count (later chunks abort early once an
/// earlier chunk has found a defect).
std::optional<LabelingDefect> verify_labeling(const Graph& g, const HubLabeling& labeling,
                                              const DistanceMatrix& truth,
                                              std::size_t threads = 1);

/// Sampled verification for larger graphs: checks `num_samples` random pairs
/// (and all label entries of the sampled endpoints) against per-source SSSP.
/// The sample pairs are drawn sequentially up front, so the samples — and
/// the first defect in sample order — are identical for every `threads`.
std::optional<LabelingDefect> verify_labeling_sampled(const Graph& g, const HubLabeling& labeling,
                                                      std::size_t num_samples, std::uint64_t seed,
                                                      std::size_t threads = 1);

/// Monotone closure S*_v from the proof of Theorem 2.1: fix a shortest-path
/// tree T_v per vertex and replace S(v) by the vertex set of the minimal
/// subtree of T_v containing S(v) (i.e., all tree ancestors of each hub).
/// |S*_v| <= diam(G) * |S_v| and the result is still a shortest-path cover.
/// The per-vertex loop is parallelized over `threads`; the closed labeling
/// is bit-identical for every thread count.
HubLabeling monotone_closure(const Graph& g, const HubLabeling& labeling,
                             std::size_t threads = 1);

}  // namespace hublab
