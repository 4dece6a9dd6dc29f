#pragma once

#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"

/// \file labeling.hpp
/// Hub labelings (2-hop covers, [CHKZ03]): every vertex v stores a hubset
/// S(v) with exact distances; the distance query u-v returns
///   min_{w in S(u) cap S(v)} dist(u, w) + dist(w, v),
/// which is exact iff the family {S(v)} is a *shortest-path cover*:
/// every connected pair has a common hub on a shortest path.

namespace hublab {

/// One label entry: a hub and the exact distance to it.
struct HubEntry {
  Vertex hub;
  Dist dist;

  bool operator==(const HubEntry&) const = default;
};

/// Result of a hub query: the distance estimate and the hub realizing it.
struct HubQueryResult {
  Dist dist = kInfDist;
  Vertex meeting_hub = kInvalidVertex;
};

/// A hub labeling for an n-vertex undirected graph.
///
/// Entries are kept sorted by hub id so that queries are a linear merge of
/// the two labels, O(|S(u)| + |S(v)|).
class HubLabeling {
 public:
  HubLabeling() = default;
  explicit HubLabeling(std::size_t n) : labels_(n) {}

  /// Adopt pre-built labels (e.g. assembled per-vertex by parallel
  /// builders); call finalize() before querying.
  explicit HubLabeling(std::vector<std::vector<HubEntry>> labels)
      : labels_(std::move(labels)), finalized_(false) {}

  [[nodiscard]] std::size_t num_vertices() const { return labels_.size(); }

  /// Append an entry; call finalize() before querying.
  void add_hub(Vertex v, Vertex hub, Dist dist) {
    HUBLAB_ASSERT_RANGE(v, labels_.size());
    labels_[v].push_back(HubEntry{hub, dist});
    finalized_ = false;
  }

  /// Sort every label by hub id and collapse duplicate hubs to the minimum
  /// distance.  Idempotent.
  void finalize();

  /// Exact-or-overestimate distance via the common-hub minimum; kInfDist if
  /// the labels share no hub.
  [[nodiscard]] Dist query(Vertex u, Vertex v) const;

  /// As query(), also reporting the meeting hub.
  [[nodiscard]] HubQueryResult query_with_hub(Vertex u, Vertex v) const;

  [[nodiscard]] std::span<const HubEntry> label(Vertex v) const {
    HUBLAB_ASSERT_RANGE(v, labels_.size());
    return labels_[v];
  }

  /// True if `hub` appears in S(v).
  [[nodiscard]] bool has_hub(Vertex v, Vertex hub) const;

  /// Sum of label sizes over all vertices.
  [[nodiscard]] std::size_t total_hubs() const;

  /// Average label size (total / n).
  [[nodiscard]] double average_label_size() const;

  [[nodiscard]] std::size_t max_label_size() const;

  /// Actual heap footprint of the representation: every label vector's
  /// *capacity* (what the allocator really holds, not just what is used)
  /// plus the per-vector bookkeeping in labels_.  This is what a serving
  /// process pays for the vector-of-vectors layout; compare with
  /// FlatHubLabeling::memory_bytes() for the SoA cost.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Payload alone: label entries actually in use, no capacity slack and
  /// no per-vector headers (the space the paper's bounds count).
  [[nodiscard]] std::size_t payload_bytes() const {
    return total_hubs() * sizeof(HubEntry);
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
  std::vector<std::vector<HubEntry>> labels_;
  bool finalized_ = true;
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
