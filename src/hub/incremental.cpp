#include "hub/incremental.hpp"

#include <algorithm>
#include <queue>
#include <unordered_map>

#include "util/error.hpp"

namespace hublab {

IncrementalPll::IncrementalPll(const Graph& g, const std::vector<Vertex>& order)
    : adj_(g.num_vertices()), order_(order), rank_of_(g.num_vertices()),
      labels_(g.num_vertices()) {
  HUBLAB_ASSERT_MSG(order_.size() == g.num_vertices(), "order must be a permutation");
  for (Vertex r = 0; r < order_.size(); ++r) rank_of_[order_[r]] = r;
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto arcs = g.arcs(u);
    adj_[u].assign(arcs.begin(), arcs.end());
  }
  // Initial labels: import from the static builder (same order).
  const HubLabeling initial = pruned_landmark_labeling(g, order_);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const auto hubs = initial.hubs(v);
    const auto dists = initial.dists(v);
    for (std::size_t i = 0; i < hubs.size(); ++i) {
      labels_[v].push_back(RankEntry{rank_of_[hubs[i]], dists[i]});
    }
    std::sort(labels_[v].begin(), labels_[v].end(),
              [](const RankEntry& a, const RankEntry& b) { return a.rank < b.rank; });
  }
}

IncrementalPll::IncrementalPll(const Graph& g)
    : IncrementalPll(g, make_vertex_order(g, VertexOrder::kDegreeDescending)) {}

Dist IncrementalPll::query_upto(Vertex u, Vertex v, Vertex rank_limit) const {
  const auto& a = labels_[u];
  const auto& b = labels_[v];
  Dist best = kInfDist;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].rank >= rank_limit || b[j].rank >= rank_limit) break;
    if (a[i].rank < b[j].rank) {
      ++i;
    } else if (a[i].rank > b[j].rank) {
      ++j;
    } else {
      best = std::min(best, a[i].dist + b[j].dist);
      ++i;
      ++j;
    }
  }
  return best;
}

Dist IncrementalPll::query(Vertex u, Vertex v) const {
  HUBLAB_ASSERT_RANGE(u, labels_.size());
  HUBLAB_ASSERT_RANGE(v, labels_.size());
  return query_upto(u, v, static_cast<Vertex>(order_.size()));
}

bool IncrementalPll::improve_entry(Vertex v, Vertex rank, Dist dist) {
  auto& label = labels_[v];
  const auto it = std::lower_bound(
      label.begin(), label.end(), rank,
      [](const RankEntry& e, Vertex r) { return e.rank < r; });
  if (it != label.end() && it->rank == rank) {
    if (it->dist <= dist) return false;
    it->dist = dist;
    return true;
  }
  label.insert(it, RankEntry{rank, dist});
  return true;
}

void IncrementalPll::resume(Vertex rank, Vertex seed, Dist seed_dist) {
  const Vertex hub_vertex = order_[rank];
  using Item = std::pair<Dist, Vertex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  pq.emplace(seed_dist, seed);
  // Local tentative distances for this resume wave only.
  std::unordered_map<Vertex, Dist> dist;
  dist[seed] = seed_dist;
  while (!pq.empty()) {
    const auto [d, x] = pq.top();
    pq.pop();
    const auto it = dist.find(x);
    if (it == dist.end() || it->second != d) continue;
    // Prune 1: an existing entry for this hub already at least as good.
    const auto& label = labels_[x];
    const auto eit = std::lower_bound(
        label.begin(), label.end(), rank,
        [](const RankEntry& e, Vertex r) { return e.rank < r; });
    if (eit != label.end() && eit->rank == rank && eit->dist <= d) continue;
    // Prune 2: covered by more important hubs (the static PLL rule).
    if (query_upto(hub_vertex, x, rank) <= d) continue;
    improve_entry(x, rank, d);
    for (const Arc& a : adj_[x]) {
      const Dist nd = d + a.weight;
      auto [dit, fresh] = dist.try_emplace(a.to, nd);
      if (fresh || nd < dit->second) {
        dit->second = nd;
        pq.emplace(nd, a.to);
      }
    }
  }
}

void IncrementalPll::insert_edge(Vertex a, Vertex b, Weight weight) {
  if (a >= adj_.size() || b >= adj_.size()) throw InvalidArgument("insert_edge: out of range");
  if (a == b) throw InvalidArgument("insert_edge: self-loop");
  adj_[a].push_back(Arc{b, weight});
  adj_[b].push_back(Arc{a, weight});

  // Resume for every hub of a (through the new edge into b) and of b.
  // Copy the hub lists first: resumes mutate labels_.
  const std::vector<RankEntry> hubs_a = labels_[a];
  const std::vector<RankEntry> hubs_b = labels_[b];
  for (const RankEntry& e : hubs_a) resume(e.rank, b, e.dist + weight);
  for (const RankEntry& e : hubs_b) resume(e.rank, a, e.dist + weight);
}

std::size_t IncrementalPll::total_hubs() const {
  std::size_t total = 0;
  for (const auto& label : labels_) total += label.size();
  return total;
}

HubLabeling IncrementalPll::labels() const {
  std::vector<std::vector<HubEntry>> rows(labels_.size());
  for (Vertex v = 0; v < labels_.size(); ++v) {
    for (const RankEntry& e : labels_[v]) rows[v].push_back({order_[e.rank], e.dist});
  }
  return HubLabeling(std::move(rows));
}

std::vector<Vertex> unpack_shortest_path(const Graph& g, const HubLabeling& labels, Vertex u,
                                         Vertex v) {
  HUBLAB_ASSERT_RANGE(u, g.num_vertices());
  HUBLAB_ASSERT_RANGE(v, g.num_vertices());
  Dist remaining = labels.query(u, v);
  if (remaining == kInfDist) return {};
  std::vector<Vertex> path{u};
  Vertex x = u;
  while (x != v) {
    bool stepped = false;
    for (const Arc& a : g.arcs(x)) {
      const Dist rest = labels.query(a.to, v);
      if (rest != kInfDist && a.weight + rest == remaining) {
        // Guard against weight-0 cycles: insist on progress in (dist,
        // vertex) lexicographic terms.
        if (a.weight == 0 && rest == remaining && a.to == x) continue;
        path.push_back(a.to);
        x = a.to;
        remaining = rest;
        stepped = true;
        break;
      }
    }
    HUBLAB_ASSERT_MSG(stepped, "unpack_shortest_path: labels are not exact");
    if (path.size() > g.num_vertices() * 2 + 2) {
      // Weight-0 plateaus could in principle loop; bail out defensively.
      throw Error("unpack_shortest_path: no simple progress (0-weight plateau)");
    }
  }
  return path;
}

}  // namespace hublab
