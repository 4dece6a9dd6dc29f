#pragma once

#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/querystats.hpp"

/// \file shortest_paths.hpp
/// Single-source and point-to-point exact shortest paths.
///
/// All routines return 64-bit distances with kInfDist for unreachable
/// vertices.  `sssp` dispatches to the cheapest applicable algorithm:
/// BFS for unit weights, 0/1-BFS for {0,1} weights (the degree-reduction
/// gadget), Dijkstra otherwise.

namespace hublab {

/// Distances plus a shortest-path tree (parent pointers; source and
/// unreachable vertices have kInvalidVertex).
struct SsspResult {
  std::vector<Dist> dist;
  std::vector<Vertex> parent;
};

/// Breadth-first search; requires an unweighted graph.
SsspResult bfs(const Graph& g, Vertex source);

/// Deque BFS for graphs whose weights are all 0 or 1.
SsspResult zero_one_bfs(const Graph& g, Vertex source);

/// Dijkstra with a binary heap; any non-negative integer weights.
SsspResult dijkstra(const Graph& g, Vertex source);

/// Dispatch to bfs / zero_one_bfs / dijkstra based on edge weights.
SsspResult sssp(const Graph& g, Vertex source);

/// Distances only (saves the parent array; used by bulk APSP loops).
std::vector<Dist> sssp_distances(const Graph& g, Vertex source);

/// Point-to-point distance by bidirectional Dijkstra (also correct for
/// unit weights).  Returns kInfDist if disconnected.
Dist bidirectional_distance(const Graph& g, Vertex s, Vertex t);

/// Attribution variant of bidirectional_distance (`hublab explain`,
/// slow-query capture): the same search with the caller's probe, which
/// records per-direction settled counts as the "label" sizes, total
/// settled vertices as the scan cost, bridge evaluations as matches, and
/// the vertex the best path meets at (the plain entry point runs it with
/// the no-op probe).
Dist bidirectional_distance_with_stats(const Graph& g, Vertex s, Vertex t,
                                       metrics::QueryStats& stats);

/// Recover the s->t path from a shortest-path tree returned for source s.
/// Empty vector if t is unreachable; otherwise starts with s, ends with t.
std::vector<Vertex> extract_path(const SsspResult& tree, Vertex source, Vertex target);

/// Weighted length of a path (consecutive vertices must be adjacent).
Dist path_length(const Graph& g, const std::vector<Vertex>& path);

/// Number of distinct shortest paths from `source` to every vertex,
/// saturating at 2^63 to avoid overflow.  `dist` must be the distance
/// array of `source` (from sssp).  Used to certify the *uniqueness*
/// claims of Lemma 2.2.
std::vector<std::uint64_t> count_shortest_paths(const Graph& g, Vertex source,
                                                const std::vector<Dist>& dist);

/// Eccentricity of v (max finite distance; kInfDist if g is disconnected).
Dist eccentricity(const Graph& g, Vertex v);

/// Exact diameter by n SSSP runs; kInfDist if disconnected.
Dist diameter_exact(const Graph& g);

/// Diameter lower bound by the 2-sweep heuristic (fast, exact on trees).
Dist diameter_two_sweep(const Graph& g, Vertex seed = 0);

}  // namespace hublab
