#pragma once

#include <vector>

#include "hub/labeling.hpp"
#include "oracle/oracle.hpp"

/// \file contraction_hierarchy.hpp
/// Contraction hierarchies (Geisberger et al.), the shortest-path heuristic
/// Section 1.1 of the paper cites alongside hub labeling and arc flags.
///
/// Preprocessing contracts vertices in importance order (lazy
/// edge-difference heuristic); whenever removing v would break a shortest
/// u-w path, a *shortcut* edge (u, w) of weight d(u,v)+d(v,w) is inserted.
/// Queries run a bidirectional Dijkstra over *upward* edges only (towards
/// higher contraction rank) and return the best meeting vertex -- exact,
/// because every shortest path has an "apex" decomposition into two upward
/// halves.
///
/// Hub labels can be read off a CH by collecting each vertex's upward
/// search space; the paper's Theorem 1.1 therefore also limits CH-derived
/// labelings on sparse graphs.

namespace hublab {

class ContractionHierarchy final : public DistanceOracle {
 public:
  /// Preprocess g (any non-negative integer weights).  The witness searches
  /// are capped at `witness_settle_limit` settled vertices; inconclusive
  /// searches conservatively add the shortcut (never breaks exactness).
  explicit ContractionHierarchy(const Graph& g, std::size_t witness_settle_limit = 64);

  [[nodiscard]] std::string name() const override { return "contraction-hierarchy"; }
  [[nodiscard]] Dist distance(Vertex u, Vertex v) const override;
  /// Attribution variant: the same query with the caller's probe, which
  /// records the two upward-search-space sizes as the "label" sizes,
  /// two-pointer advances as the scan cost, candidate apexes as matches,
  /// and the apex of the best up-down path as the meeting hub.
  [[nodiscard]] Dist distance_with_stats(Vertex u, Vertex v,
                                         metrics::QueryStats& stats) const override;
  [[nodiscard]] std::size_t space_bytes() const override;

  [[nodiscard]] std::size_t num_shortcuts() const { return num_shortcuts_; }
  /// Contraction rank of a vertex (0 = contracted first).
  [[nodiscard]] std::uint32_t rank(Vertex v) const {
    HUBLAB_ASSERT(v < rank_.size());
    return rank_[v];
  }
  /// Average number of upward arcs per vertex (the search-space driver).
  [[nodiscard]] double average_upward_degree() const;

  /// Read hub labels off the hierarchy: S(v) = the upward search space of
  /// v, filtered to the entries whose upward distance is exact (dropping
  /// overestimates preserves the cover: the apex of any shortest path has
  /// exact upward distances on both sides).  This is how practical hub
  /// labelings are built from CH -- and why Theorem 1.1's lower bound
  /// applies to CH search spaces on sparse graphs too.
  [[nodiscard]] HubLabeling extract_hub_labeling() const;

 private:
  /// Upward arc with a 64-bit weight (shortcut weights can exceed Weight).
  struct UpArc {
    Vertex to;
    Dist weight;
  };

  /// Exhaustive upward Dijkstra from `source`: the settled (vertex,
  /// distance) pairs sorted by vertex id, so both the query intersection
  /// and the label extraction consume them in deterministic order.
  [[nodiscard]] std::vector<std::pair<Vertex, Dist>> upward_search(Vertex source) const;

  /// The one query loop behind distance() (run with the no-op
  /// metrics::NoQueryStats) and distance_with_stats() (the caller's probe).
  template <class Stats>
  [[nodiscard]] Dist query(Vertex s, Vertex t, Stats& stats) const;

  std::vector<std::vector<UpArc>> up_;  ///< upward arcs (to higher-rank vertices)
  std::vector<std::uint32_t> rank_;
  std::size_t num_shortcuts_ = 0;
};

}  // namespace hublab
