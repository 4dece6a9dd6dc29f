#include "hub/canonical.hpp"

#include <algorithm>
#include <vector>

namespace hublab {

namespace {

/// Distance answered for pair (a, b) when entry (v, hub) is ignored.
/// `a` must equal v; entries of b's label are all usable.
Dist query_without(const HubLabeling& labeling, Vertex v, Vertex hub, Vertex b) {
  const auto ha = labeling.hubs(v);
  const auto da = labeling.dists(v);
  const auto hb = labeling.hubs(b);
  const auto db = labeling.dists(b);
  Dist best = kInfDist;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ha.size() && j < hb.size()) {
    if (ha[i] < hb[j]) {
      ++i;
    } else if (ha[i] > hb[j]) {
      ++j;
    } else {
      if (ha[i] != hub) best = std::min(best, da[i] + db[j]);
      ++i;
      ++j;
    }
  }
  return best;
}

}  // namespace

bool entry_is_redundant(const Graph& g, const HubLabeling& labeling, const DistanceMatrix& truth,
                        Vertex v, Vertex hub) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  HUBLAB_ASSERT(labeling.has_hub(v, hub));
  // Removing (v, hub) can only affect pairs involving v.  The pair stays
  // covered iff the hub-less query still returns the true distance.
  for (Vertex u = 0; u < n; ++u) {
    const Dist actual = truth.at(v, u);
    if (actual == kInfDist) continue;
    if (query_without(labeling, v, hub, u) != actual) return false;
  }
  return true;
}

std::optional<std::pair<Vertex, Vertex>> find_redundant_entry(const Graph& g,
                                                              const HubLabeling& labeling,
                                                              const DistanceMatrix& truth) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  for (Vertex v = 0; v < n; ++v) {
    for (const Vertex hub : labeling.hubs(v)) {
      if (entry_is_redundant(g, labeling, truth, v, hub)) return std::make_pair(v, hub);
    }
  }
  return std::nullopt;
}

bool is_minimal(const Graph& g, const HubLabeling& labeling, const DistanceMatrix& truth) {
  return !find_redundant_entry(g, labeling, truth).has_value();
}

HubLabeling prune_to_minimal(const Graph& g, const HubLabeling& labeling,
                             const DistanceMatrix& truth) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  // Work on a mutable copy of the entry lists.
  std::vector<std::vector<HubEntry>> entries(n);
  for (Vertex v = 0; v < n; ++v) {
    const auto hubs = labeling.hubs(v);
    const auto dists = labeling.dists(v);
    for (std::size_t i = 0; i < hubs.size(); ++i) entries[v].push_back({hubs[i], dists[i]});
  }

  auto rebuild = [&entries] { return HubLabeling(entries); };

  HubLabeling current = rebuild();
  // Single pass per entry suffices: redundancy is monotone under removal
  // re-checks (an entry that became essential stays essential), but an
  // entry checked earlier may become essential later, so we re-verify each
  // candidate against the *current* labeling before dropping it.
  for (Vertex v = n; v-- > 0;) {
    for (std::size_t i = entries[v].size(); i-- > 0;) {
      const Vertex hub = entries[v][i].hub;
      if (entry_is_redundant(g, current, truth, v, hub)) {
        entries[v].erase(entries[v].begin() + static_cast<std::ptrdiff_t>(i));
        current = rebuild();
      }
    }
  }
  return current;
}

}  // namespace hublab
