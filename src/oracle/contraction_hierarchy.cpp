#include "oracle/contraction_hierarchy.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <unordered_map>

#include "util/metrics.hpp"

namespace hublab {

namespace {

/// Mutable overlay graph during contraction: adjacency maps with min-weight
/// parallel-edge semantics, restricted to uncontracted vertices.
class Overlay {
 public:
  explicit Overlay(const Graph& g) : adj_(g.num_vertices()), contracted_(g.num_vertices(), false) {
    for (Vertex u = 0; u < g.num_vertices(); ++u) {
      for (const Arc& a : g.arcs(u)) {
        insert(u, a.to, a.weight);
      }
    }
  }

  void insert(Vertex u, Vertex v, Dist w) {
    auto [it, fresh] = adj_[u].try_emplace(v, w);
    if (!fresh && w < it->second) it->second = w;
  }

  void mark_contracted(Vertex v) {
    contracted_[v] = true;
    for (const auto& [u, w] : adj_[v]) {
      (void)w;
      adj_[u].erase(v);
    }
  }

  [[nodiscard]] bool contracted(Vertex v) const { return contracted_[v]; }
  [[nodiscard]] const std::map<Vertex, Dist>& neighbors(Vertex v) const { return adj_[v]; }
  [[nodiscard]] std::size_t degree(Vertex v) const { return adj_[v].size(); }

  /// Witness search: is there a u-w path avoiding `banned` of length
  /// <= limit_dist, using at most settle_limit settles?  Returns true if a
  /// witness is FOUND (shortcut unnecessary); false if none found or the
  /// search budget ran out (conservative).
  [[nodiscard]] bool has_witness(Vertex from, Vertex to, Vertex banned, Dist limit_dist,
                                 std::size_t settle_limit) const {
    std::unordered_map<Vertex, Dist> dist;
    using Item = std::pair<Dist, Vertex>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
    dist[from] = 0;
    pq.emplace(0, from);
    std::size_t settled = 0;
    while (!pq.empty() && settled < settle_limit) {
      const auto [d, u] = pq.top();
      pq.pop();
      const auto it = dist.find(u);
      if (it == dist.end() || it->second != d) continue;
      if (d > limit_dist) return false;  // everything further is too long
      if (u == to) return d <= limit_dist;
      ++settled;
      for (const auto& [v, w] : adj_[u]) {
        if (v == banned) continue;
        const Dist nd = d + w;
        if (nd > limit_dist) continue;
        auto [dit, fresh] = dist.try_emplace(v, nd);
        if (fresh || nd < dit->second) {
          dit->second = nd;
          pq.emplace(nd, v);
        }
      }
    }
    // Budget exhausted or frontier empty without reaching `to`.
    const auto it = dist.find(to);
    return it != dist.end() && it->second <= limit_dist;
  }

 private:
  std::vector<std::map<Vertex, Dist>> adj_;
  std::vector<bool> contracted_;
};

struct Shortcut {
  Vertex from;
  Vertex to;
  Dist weight;
};

/// Shortcuts needed to contract v right now.  Each candidate neighbor pair
/// costs one witness search; `witness_searches` accumulates that count.
std::vector<Shortcut> required_shortcuts(const Overlay& overlay, Vertex v,
                                         std::size_t settle_limit,
                                         std::uint64_t& witness_searches) {
  std::vector<Shortcut> shortcuts;
  const auto& nbrs = overlay.neighbors(v);
  for (auto it1 = nbrs.begin(); it1 != nbrs.end(); ++it1) {
    for (auto it2 = std::next(it1); it2 != nbrs.end(); ++it2) {
      const Dist via = it1->second + it2->second;
      ++witness_searches;
      if (!overlay.has_witness(it1->first, it2->first, v, via, settle_limit)) {
        shortcuts.push_back(Shortcut{it1->first, it2->first, via});
      }
    }
  }
  return shortcuts;
}

}  // namespace

ContractionHierarchy::ContractionHierarchy(const Graph& g, std::size_t witness_settle_limit) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  up_.resize(n);
  rank_.assign(n, 0);

  Overlay overlay(g);
  std::vector<std::uint32_t> deleted_neighbors(n, 0);
  std::uint64_t witness_searches = 0;

  // Lazy priority queue: (priority, vertex); re-evaluate on pop.
  auto priority_of = [&overlay, &deleted_neighbors, &witness_searches,
                      witness_settle_limit](Vertex v) {
    const auto shortcuts = required_shortcuts(overlay, v, witness_settle_limit, witness_searches);
    return static_cast<std::int64_t>(shortcuts.size()) * 4 -
           static_cast<std::int64_t>(overlay.degree(v)) * 2 +
           static_cast<std::int64_t>(deleted_neighbors[v]);
  };

  using Item = std::pair<std::int64_t, Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  for (Vertex v = 0; v < n; ++v) pq.emplace(priority_of(v), v);

  std::uint32_t next_rank = 0;
  while (!pq.empty()) {
    const auto [prio, v] = pq.top();
    pq.pop();
    if (overlay.contracted(v)) continue;
    // Lazy re-evaluation: if the priority rose, requeue.
    const std::int64_t fresh = priority_of(v);
    if (fresh > prio && !pq.empty() && fresh > pq.top().first) {
      pq.emplace(fresh, v);
      continue;
    }

    // Record upward arcs (current uncontracted neighbors), then contract.
    for (const auto& [u, w] : overlay.neighbors(v)) {
      up_[v].push_back(UpArc{u, w});
      ++deleted_neighbors[u];
    }
    const auto shortcuts = required_shortcuts(overlay, v, witness_settle_limit, witness_searches);
    overlay.mark_contracted(v);
    for (const Shortcut& s : shortcuts) {
      overlay.insert(s.from, s.to, s.weight);
      overlay.insert(s.to, s.from, s.weight);
      ++num_shortcuts_;
    }
    rank_[v] = next_rank++;
  }
  metrics::registry().counter("ch.contracted").add(next_rank);
  metrics::registry().counter("ch.shortcuts").add(num_shortcuts_);
  metrics::registry().counter("ch.witness_searches").add(witness_searches);

  // Sort upward arcs for cache friendliness.
  for (auto& arcs : up_) {
    std::sort(arcs.begin(), arcs.end(),
              [](const UpArc& a, const UpArc& b) { return a.to < b.to; });
  }
}

std::vector<std::pair<Vertex, Dist>> ContractionHierarchy::upward_search(Vertex source) const {
  // Exhaustive upward Dijkstra; the upward search spaces are small by
  // construction.
  std::unordered_map<Vertex, Dist> dist;
  using Item = std::pair<Dist, Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[source] = 0;
  pq.emplace(0, source);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (dist[u] != d) continue;
    for (const UpArc& a : up_[u]) {
      const Dist nd = d + a.weight;
      auto [it, fresh] = dist.try_emplace(a.to, nd);
      if (fresh || nd < it->second) {
        it->second = nd;
        pq.emplace(nd, a.to);
      }
    }
  }
  std::vector<std::pair<Vertex, Dist>> settled(dist.begin(), dist.end());
  std::sort(settled.begin(), settled.end());
  return settled;
}

template <class Stats>
Dist ContractionHierarchy::query(Vertex s, Vertex t, Stats& stats) const {
  HUBLAB_ASSERT(s < up_.size() && t < up_.size());
  if (s == t) {
    stats.meeting(s);
    return 0;
  }

  // Two-pointer intersection of the vertex-sorted upward search spaces.
  const auto from_s = upward_search(s);
  const auto from_t = upward_search(t);
  stats.labels(from_s.size(), from_t.size());
  Dist best = kInfDist;
  Vertex apex = kInvalidVertex;
  auto it_s = from_s.begin();
  auto it_t = from_t.begin();
  while (it_s != from_s.end() && it_t != from_t.end()) {
    stats.scanned();
    if (it_s->first < it_t->first) {
      ++it_s;
    } else if (it_t->first < it_s->first) {
      ++it_t;
    } else {
      stats.matched();
      if (it_s->second + it_t->second < best) {
        best = it_s->second + it_t->second;
        apex = it_s->first;
      }
      ++it_s;
      ++it_t;
    }
  }
  stats.meeting(apex);
  return best;
}

Dist ContractionHierarchy::distance(Vertex s, Vertex t) const {
  metrics::NoQueryStats none;
  return query(s, t, none);
}

Dist ContractionHierarchy::distance_with_stats(Vertex s, Vertex t,
                                               metrics::QueryStats& stats) const {
  return query(s, t, stats);
}

std::size_t ContractionHierarchy::space_bytes() const {
  std::size_t arcs = 0;
  for (const auto& a : up_) arcs += a.size();
  return arcs * sizeof(UpArc) + rank_.size() * sizeof(std::uint32_t);
}

HubLabeling ContractionHierarchy::extract_hub_labeling() const {
  const auto n = static_cast<Vertex>(up_.size());

  // Raw search spaces: may contain upward-distance overestimates, but the
  // CH correctness theorem guarantees the *query minimum* over them is the
  // exact distance.
  std::vector<std::vector<HubEntry>> rows(n);
  for (Vertex v = 0; v < n; ++v) {
    for (const auto& [w, d] : upward_search(v)) rows[v].push_back({w, d});
  }
  const HubLabeling raw(std::move(rows));

  // Keep only the exact entries: raw.query is the true distance, and the
  // apex of any shortest path survives the filter on both sides.
  std::vector<std::vector<HubEntry>> exact(n);
  for (Vertex v = 0; v < n; ++v) {
    const auto hubs = raw.hubs(v);
    const auto dists = raw.dists(v);
    for (std::size_t i = 0; i < hubs.size(); ++i) {
      if (raw.query(v, hubs[i]) == dists[i]) exact[v].push_back({hubs[i], dists[i]});
    }
  }
  return HubLabeling(std::move(exact));
}

double ContractionHierarchy::average_upward_degree() const {
  if (up_.empty()) return 0.0;
  std::size_t arcs = 0;
  for (const auto& a : up_) arcs += a.size();
  return static_cast<double>(arcs) / static_cast<double>(up_.size());
}

}  // namespace hublab
