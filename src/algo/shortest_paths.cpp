#include "algo/shortest_paths.hpp"

#include <algorithm>
#include <deque>
#include <queue>

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace hublab {

namespace {

bool all_weights_unit(const Graph& g) { return !g.is_weighted(); }

bool all_weights_01(const Graph& g) { return g.max_weight() <= 1; }

}  // namespace

SsspResult bfs(const Graph& g, Vertex source) {
  HUBLAB_ASSERT(source < g.num_vertices());
  HUBLAB_ASSERT_MSG(all_weights_unit(g), "bfs requires an unweighted graph");
  SsspResult r;
  r.dist.assign(g.num_vertices(), kInfDist);
  r.parent.assign(g.num_vertices(), kInvalidVertex);
  std::vector<Vertex> frontier{source};
  r.dist[source] = 0;
  std::vector<Vertex> next;
  Dist level = 0;
  std::uint64_t visited = 1;
  while (!frontier.empty()) {
    ++level;
    next.clear();
    for (Vertex u : frontier) {
      for (const Arc& a : g.arcs(u)) {
        if (r.dist[a.to] == kInfDist) {
          r.dist[a.to] = level;
          r.parent[a.to] = u;
          next.push_back(a.to);
        }
      }
    }
    visited += next.size();
    frontier.swap(next);
  }
  // Every search counter in this file is a static handle, looked up once:
  // a by-name lookup takes the registry's global mutex, and the bidij
  // oracle runs a search per served query.  reset() zeroes the counters in
  // place, so the handles stay valid.
  static metrics::Counter& visited_counter = metrics::registry().counter("sp.bfs.visited");
  visited_counter.add(visited);
  return r;
}

SsspResult zero_one_bfs(const Graph& g, Vertex source) {
  HUBLAB_ASSERT(source < g.num_vertices());
  HUBLAB_ASSERT_MSG(all_weights_01(g), "zero_one_bfs requires {0,1} weights");
  SsspResult r;
  r.dist.assign(g.num_vertices(), kInfDist);
  r.parent.assign(g.num_vertices(), kInvalidVertex);
  std::deque<Vertex> dq;
  r.dist[source] = 0;
  dq.push_back(source);
  while (!dq.empty()) {
    const Vertex u = dq.front();
    dq.pop_front();
    for (const Arc& a : g.arcs(u)) {
      const Dist nd = r.dist[u] + a.weight;
      if (nd < r.dist[a.to]) {
        r.dist[a.to] = nd;
        r.parent[a.to] = u;
        if (a.weight == 0) dq.push_front(a.to);
        else dq.push_back(a.to);
      }
    }
  }
  return r;
}

SsspResult dijkstra(const Graph& g, Vertex source) {
  HUBLAB_ASSERT(source < g.num_vertices());
  SsspResult r;
  r.dist.assign(g.num_vertices(), kInfDist);
  r.parent.assign(g.num_vertices(), kInvalidVertex);
  using Item = std::pair<Dist, Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  r.dist[source] = 0;
  pq.emplace(0, source);
  std::uint64_t settled = 0;
  std::uint64_t relaxed = 0;
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != r.dist[u]) continue;  // stale entry
    ++settled;
    for (const Arc& a : g.arcs(u)) {
      const Dist nd = d + a.weight;
      if (nd < r.dist[a.to]) {
        r.dist[a.to] = nd;
        r.parent[a.to] = u;
        pq.emplace(nd, a.to);
        ++relaxed;
      }
    }
  }
  static metrics::Counter& settled_counter = metrics::registry().counter("sp.dijkstra.settled");
  static metrics::Counter& relaxed_counter = metrics::registry().counter("sp.dijkstra.relaxed");
  settled_counter.add(settled);
  relaxed_counter.add(relaxed);
  return r;
}

SsspResult sssp(const Graph& g, Vertex source) {
  if (all_weights_unit(g)) return bfs(g, source);
  if (all_weights_01(g)) return zero_one_bfs(g, source);
  return dijkstra(g, source);
}

std::vector<Dist> sssp_distances(const Graph& g, Vertex source) {
  return sssp(g, source).dist;
}

namespace {

/// Bidirectional Dijkstra, the one search behind bidirectional_distance
/// and its attribution variant.  The probe records per-direction settled
/// counts as the "label" sizes, total settled vertices as the scan cost,
/// bridge evaluations as matches, and the vertex the best path meets at;
/// with NoQueryStats its calls compile away.
template <class Stats>
Dist bidirectional_search(const Graph& g, Vertex s, Vertex t, Stats& stats) {
  HUBLAB_ASSERT(s < g.num_vertices() && t < g.num_vertices());
  if (s == t) {
    stats.meeting(s);
    return 0;
  }
  const std::size_t n = g.num_vertices();
  std::vector<Dist> df(n, kInfDist);
  std::vector<Dist> db(n, kInfDist);
  using Item = std::pair<Dist, Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> qf;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> qb;
  df[s] = 0;
  db[t] = 0;
  qf.emplace(0, s);
  qb.emplace(0, t);
  Dist best = kInfDist;
  Vertex meet = kInvalidVertex;
  std::uint64_t settled_f = 0;
  std::uint64_t settled_b = 0;

  auto relax = [&g, &best, &meet, &stats](
                   std::priority_queue<Item, std::vector<Item>, std::greater<>>& pq,
                   std::vector<Dist>& mine, const std::vector<Dist>& other,
                   std::uint64_t& settled_mine) -> Dist {
    // Settle one vertex of this direction; return its settled distance.
    // Any vertex both searches have reached is a candidate meeting point,
    // and the one realizing `best` is the reported meeting hub.
    while (!pq.empty()) {
      const auto [d, u] = pq.top();
      pq.pop();
      if (d != mine[u]) continue;
      ++settled_mine;
      if (other[u] != kInfDist) {
        stats.matched();
        if (d + other[u] < best) {
          best = d + other[u];
          meet = u;
        }
      }
      for (const Arc& a : g.arcs(u)) {
        const Dist nd = d + a.weight;
        if (nd < mine[a.to]) {
          mine[a.to] = nd;
          pq.emplace(nd, a.to);
          if (other[a.to] != kInfDist && nd + other[a.to] < best) {
            best = nd + other[a.to];
            meet = a.to;
          }
        }
      }
      return d;
    }
    return kInfDist;
  };

  Dist top_f = 0;
  Dist top_b = 0;
  while (!qf.empty() || !qb.empty()) {
    // Standard termination: stop once settled radii certify best.
    if (best != kInfDist && top_f + top_b >= best) break;
    if (!qf.empty() && (qb.empty() || qf.top().first <= qb.top().first)) {
      top_f = relax(qf, df, db, settled_f);
    } else if (!qb.empty()) {
      top_b = relax(qb, db, df, settled_b);
    }
  }
  static metrics::Counter& settled_counter = metrics::registry().counter("sp.bidij.settled");
  settled_counter.add(settled_f + settled_b);
  stats.labels(settled_f, settled_b);
  stats.scanned(settled_f + settled_b);
  stats.meeting(meet);
  return best;
}

}  // namespace

Dist bidirectional_distance(const Graph& g, Vertex s, Vertex t) {
  metrics::NoQueryStats none;
  return bidirectional_search(g, s, t, none);
}

Dist bidirectional_distance_with_stats(const Graph& g, Vertex s, Vertex t,
                                       metrics::QueryStats& stats) {
  return bidirectional_search(g, s, t, stats);
}

std::vector<Vertex> extract_path(const SsspResult& tree, Vertex source, Vertex target) {
  if (target >= tree.dist.size() || tree.dist[target] == kInfDist) return {};
  std::vector<Vertex> path;
  for (Vertex v = target; v != source; v = tree.parent[v]) {
    HUBLAB_ASSERT_MSG(v != kInvalidVertex, "broken parent chain");
    path.push_back(v);
  }
  path.push_back(source);
  std::reverse(path.begin(), path.end());
  return path;
}

Dist path_length(const Graph& g, const std::vector<Vertex>& path) {
  Dist total = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const Dist w = g.edge_weight(path[i], path[i + 1]);
    if (w == kInfDist) throw InvalidArgument("path_length: vertices not adjacent");
    total += w;
  }
  return total;
}

std::vector<std::uint64_t> count_shortest_paths(const Graph& g, Vertex source,
                                                const std::vector<Dist>& dist) {
  HUBLAB_ASSERT(dist.size() == g.num_vertices());
  constexpr std::uint64_t kSaturate = 1ULL << 63;
  const std::size_t n = g.num_vertices();

  // Process vertices in order of distance; count[v] = sum of counts of
  // shortest-path predecessors, saturating.
  std::vector<Vertex> order;
  order.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    if (dist[v] != kInfDist) order.push_back(v);
  }
  std::sort(order.begin(), order.end(),
            [&dist](Vertex a, Vertex b) { return dist[a] < dist[b]; });

  std::vector<std::uint64_t> count(n, 0);
  count[source] = 1;
  for (Vertex v : order) {
    if (v == source) continue;
    std::uint64_t total = 0;
    for (const Arc& a : g.arcs(v)) {
      // Predecessor on a shortest path: dist[u] + w(u,v) == dist[v].
      // Weight-0 edges make "predecessor" ambiguous within a distance
      // level; we forbid them here (counting is used on positive-weight
      // gadgets only).
      HUBLAB_ASSERT_MSG(a.weight > 0, "count_shortest_paths requires positive weights");
      if (dist[a.to] != kInfDist && dist[a.to] + a.weight == dist[v]) {
        const std::uint64_t c = count[a.to];
        total = (total > kSaturate - c) ? kSaturate : total + c;
      }
    }
    count[v] = total;
  }
  return count;
}

Dist eccentricity(const Graph& g, Vertex v) {
  const auto d = sssp_distances(g, v);
  Dist ecc = 0;
  for (Dist x : d) {
    if (x == kInfDist) return kInfDist;
    ecc = std::max(ecc, x);
  }
  return ecc;
}

Dist diameter_exact(const Graph& g) {
  Dist best = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const Dist e = eccentricity(g, v);
    if (e == kInfDist) return kInfDist;
    best = std::max(best, e);
  }
  return best;
}

Dist diameter_two_sweep(const Graph& g, Vertex seed) {
  if (g.num_vertices() == 0) return 0;
  HUBLAB_ASSERT(seed < g.num_vertices());
  const auto d1 = sssp_distances(g, seed);
  Vertex far = seed;
  Dist far_d = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (d1[v] != kInfDist && d1[v] >= far_d) {
      far_d = d1[v];
      far = v;
    }
  }
  return eccentricity(g, far);
}

}  // namespace hublab
