#include "hub/approx.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hublab {

std::vector<Vertex> greedy_dominating_set(const Graph& g) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  std::vector<bool> dominated(n, false);
  std::vector<Vertex> dominators;

  // Classic greedy: repeatedly take the vertex covering the most
  // undominated vertices (itself plus neighbors).
  std::vector<std::size_t> gain(n);
  std::size_t remaining = n;
  while (remaining > 0) {
    Vertex best = kInvalidVertex;
    std::size_t best_gain = 0;
    for (Vertex v = 0; v < n; ++v) {
      std::size_t score = dominated[v] ? 0 : 1;
      for (const Arc& a : g.arcs(v)) {
        if (!dominated[a.to]) ++score;
      }
      if (score > best_gain) {
        best_gain = score;
        best = v;
      }
    }
    HUBLAB_ASSERT(best != kInvalidVertex);
    dominators.push_back(best);
    if (!dominated[best]) {
      dominated[best] = true;
      --remaining;
    }
    for (const Arc& a : g.arcs(best)) {
      if (!dominated[a.to]) {
        dominated[a.to] = true;
        --remaining;
      }
    }
  }
  std::sort(dominators.begin(), dominators.end());
  return dominators;
}

ApproxHubLabeling approximate_labeling(const Graph& g, const HubLabeling& exact,
                                       const DistanceMatrix& truth) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  HUBLAB_ASSERT(exact.num_vertices() == n && truth.num_vertices() == n);
  if (g.is_weighted()) {
    // The +2 additive guarantee counts hops to the dominator.
    throw InvalidArgument("approximate_labeling requires an unweighted graph");
  }

  const std::vector<Vertex> dominators = greedy_dominating_set(g);
  // dom(v): itself if in D, otherwise the smallest adjacent dominator.
  std::vector<Vertex> dom(n, kInvalidVertex);
  std::vector<bool> in_d(n, false);
  for (Vertex d : dominators) in_d[d] = true;
  for (Vertex v = 0; v < n; ++v) {
    if (in_d[v]) {
      dom[v] = v;
      continue;
    }
    for (const Arc& a : g.arcs(v)) {
      if (in_d[a.to]) {
        dom[v] = a.to;
        break;
      }
    }
    HUBLAB_ASSERT_MSG(dom[v] != kInvalidVertex, "dominating set property violated");
  }

  ApproxHubLabeling out;
  out.num_dominators = dominators.size();
  std::vector<std::vector<HubEntry>> rows(n);
  for (Vertex v = 0; v < n; ++v) {
    for (const Vertex hub : exact.hubs(v)) {
      const Vertex d = dom[hub];
      const Dist dist_to_dom = truth.at(v, d);
      if (dist_to_dom != kInfDist) rows[v].push_back({d, dist_to_dom});
    }
  }
  out.labels = HubLabeling(std::move(rows));
  return out;
}

std::size_t max_additive_error(const Graph& g, const ApproxHubLabeling& approx,
                               const DistanceMatrix& truth) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  std::size_t worst = 0;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u; v < n; ++v) {
      const Dist actual = truth.at(u, v);
      if (actual == kInfDist) continue;
      const Dist est = approx.estimate(u, v);
      if (est == kInfDist || est < actual) return 3;  // guarantee broken
      worst = std::max(worst, static_cast<std::size_t>(est - actual));
    }
  }
  return worst;
}

}  // namespace hublab
