#include "oracle/oracle.hpp"

#include <algorithm>

#include "algo/shortest_paths.hpp"

namespace hublab {

Dist SsspOracle::distance(Vertex u, Vertex v) const { return sssp_distances(*g_, u)[v]; }

Dist BidirectionalOracle::distance(Vertex u, Vertex v) const {
  return bidirectional_distance(*g_, u, v);
}

Dist BidirectionalOracle::distance_with_stats(Vertex u, Vertex v,
                                              metrics::QueryStats& stats) const {
  return bidirectional_distance_with_stats(*g_, u, v, stats);
}

LandmarkOracle::LandmarkOracle(const Graph& g, const std::vector<Vertex>& landmarks) {
  rows_.reserve(landmarks.size());
  for (Vertex l : landmarks) rows_.push_back(sssp_distances(g, l));
}

Dist LandmarkOracle::distance(Vertex u, Vertex v) const {
  Dist best = kInfDist;
  for (const auto& row : rows_) {
    if (row[u] != kInfDist && row[v] != kInfDist) best = std::min(best, row[u] + row[v]);
  }
  return best;
}

}  // namespace hublab
