#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algo/distance_matrix.hpp"
#include "graph/graph.hpp"
#include "hub/labeling.hpp"
#include "util/querystats.hpp"

/// \file oracle.hpp
/// Centralized exact distance oracles, exercising the space/time tradeoff
/// the paper's introduction discusses (S*T = ~n^2; hub labelings are one
/// point on the curve, and Theorem 1.1 precludes hub-labeling-based oracles
/// from beating n / 2^{O(sqrt(log n))} space at constant time on sparse
/// graphs).

namespace hublab {

/// Common interface: exact distance queries plus space accounting.
class DistanceOracle {
 public:
  virtual ~DistanceOracle() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual Dist distance(Vertex u, Vertex v) const = 0;
  /// Space consumed by the preprocessed structure, in bytes (the graph
  /// itself is not counted; all oracles share it).
  [[nodiscard]] virtual std::size_t space_bytes() const = 0;

  /// Attribution variant of distance() (`hublab explain`, the server's
  /// per-query scan attribution at batch 1): same answer, plus the probe
  /// records whatever the oracle's kernel can attribute — label sizes,
  /// entries scanned, common hubs compared, meeting hub
  /// (util/querystats.hpp).  The hub-label, CH and bidirectional oracles run
  /// the same kernel loop as distance(), with the caller's probe instead
  /// of the no-op one.  Oracles without an instrumented kernel answer
  /// through plain distance() and leave the probe untouched.
  [[nodiscard]] virtual Dist distance_with_stats(Vertex u, Vertex v,
                                                 metrics::QueryStats& stats) const {
    (void)stats;
    return distance(u, v);
  }

  /// Batched queries: answer `pairs[i]` into `out[i]` (same size spans).
  /// The default loops over distance() (no meeting hubs); the hub-label
  /// oracle overrides with its batch kernel, which also reports the
  /// meeting hub and runs the tier-dispatched stamp-table probe
  /// (hub/simd_kernel.hpp), byte-identically to the per-query path.
  virtual void distance_batch(std::span<const std::pair<Vertex, Vertex>> pairs,
                              std::span<HubQueryResult> out) const {
    for (std::size_t i = 0; i < pairs.size() && i < out.size(); ++i) {
      out[i] = HubQueryResult{distance(pairs[i].first, pairs[i].second), kInvalidVertex};
    }
  }
};

/// Full APSP table: O(n^2) space, O(1) query.
class ApspOracle final : public DistanceOracle {
 public:
  explicit ApspOracle(const Graph& g) : matrix_(DistanceMatrix::compute(g)) {}
  [[nodiscard]] std::string name() const override { return "apsp-table"; }
  [[nodiscard]] Dist distance(Vertex u, Vertex v) const override { return matrix_.at(u, v); }
  [[nodiscard]] std::size_t space_bytes() const override { return matrix_.memory_bytes(); }

 private:
  DistanceMatrix matrix_;
};

/// No preprocessing: every query runs a fresh unidirectional SSSP.
class SsspOracle final : public DistanceOracle {
 public:
  explicit SsspOracle(const Graph& g) : g_(&g) {}
  [[nodiscard]] std::string name() const override { return "on-demand-sssp"; }
  [[nodiscard]] Dist distance(Vertex u, Vertex v) const override;
  [[nodiscard]] std::size_t space_bytes() const override { return 0; }

 private:
  const Graph* g_;
};

/// No preprocessing; queries run bidirectional Dijkstra.
class BidirectionalOracle final : public DistanceOracle {
 public:
  explicit BidirectionalOracle(const Graph& g) : g_(&g) {}
  [[nodiscard]] std::string name() const override { return "bidirectional-dijkstra"; }
  [[nodiscard]] Dist distance(Vertex u, Vertex v) const override;
  [[nodiscard]] Dist distance_with_stats(Vertex u, Vertex v,
                                         metrics::QueryStats& stats) const override;
  [[nodiscard]] std::size_t space_bytes() const override { return 0; }

 private:
  const Graph* g_;
};

/// Hub-labeling oracle (the paper's subject) over the flat label columns
/// (hub/labeling.hpp): query = sentinel-terminated merge of two labels,
/// space = the columns' footprint.
class FlatHubLabelOracle final : public DistanceOracle {
 public:
  explicit FlatHubLabelOracle(HubLabeling labeling) : labels_(std::move(labeling)) {}
  [[nodiscard]] std::string name() const override { return "hub-labels-flat"; }
  [[nodiscard]] Dist distance(Vertex u, Vertex v) const override { return labels_.query(u, v); }
  [[nodiscard]] Dist distance_with_stats(Vertex u, Vertex v,
                                         metrics::QueryStats& stats) const override {
    return labels_.query_with_stats(u, v, stats).dist;
  }
  /// The batched kernel: source-grouped stamp-table probes on the active
  /// ISA tier, for every block size (HubLabeling::query_batch).
  void distance_batch(std::span<const std::pair<Vertex, Vertex>> pairs,
                      std::span<HubQueryResult> out) const override {
    labels_.query_batch(pairs, out);
  }
  [[nodiscard]] std::size_t space_bytes() const override { return labels_.memory_bytes(); }
  [[nodiscard]] const HubLabeling& labeling() const { return labels_; }

 private:
  HubLabeling labels_;
};

/// Landmark oracle: k landmark SSSP trees; queries return the best
/// triangle-inequality *upper bound* min_l d(u,l)+d(l,v).  Exact iff some
/// landmark hits a shortest path; included as the classic inexact
/// counterpoint (its error is measured by the benches, not assumed).
class LandmarkOracle final : public DistanceOracle {
 public:
  LandmarkOracle(const Graph& g, const std::vector<Vertex>& landmarks);
  [[nodiscard]] std::string name() const override { return "landmarks-upper-bound"; }
  [[nodiscard]] Dist distance(Vertex u, Vertex v) const override;
  [[nodiscard]] std::size_t space_bytes() const override {
    return rows_.size() * (rows_.empty() ? 0 : rows_.front().size()) * sizeof(Dist);
  }

 private:
  std::vector<std::vector<Dist>> rows_;  ///< one distance row per landmark
};

}  // namespace hublab
