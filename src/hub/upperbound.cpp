#include "hub/upperbound.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "graph/transforms.hpp"
#include "matching/bipartite.hpp"
#include "matching/induced_matching.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace hublab {

namespace {

/// Shared first half of the pipeline: sample S, color V, classify pairs.
struct PipelineState {
  std::size_t n = 0;
  std::size_t D = 0;
  std::vector<Vertex> sample;                 ///< sorted S
  std::vector<std::uint32_t> color;           ///< D^3 colors
  std::vector<std::vector<Vertex>> q_of;      ///< Q_v (plus distance-0 partners)
  std::vector<std::vector<Vertex>> r_of;      ///< R_v
  /// E^h_{a,b} keyed by ((h * (D+1)) + a) * (D+1) + b.
  std::map<std::uint64_t, std::vector<std::pair<Vertex, Vertex>>> groups;

  [[nodiscard]] std::uint64_t key(Vertex h, Dist a, Dist b) const {
    return (static_cast<std::uint64_t>(h) * (D + 1) + a) * (D + 1) + b;
  }
  [[nodiscard]] Vertex key_hub(std::uint64_t k) const {
    return static_cast<Vertex>(k / ((D + 1) * (D + 1)));
  }
  [[nodiscard]] Dist key_a(std::uint64_t k) const { return (k / (D + 1)) % (D + 1); }
};

PipelineState classify_pairs(const Graph& g, const DistanceMatrix& truth, std::size_t D,
                             Rng& rng) {
  if (D < 2) throw InvalidArgument("upper_bound_labeling needs D >= 2");
  if (g.max_weight() > 1) {
    throw InvalidArgument("upper_bound_labeling needs {0,1} edge weights");
  }
  PipelineState st;
  st.n = g.num_vertices();
  st.D = D;
  const auto n = static_cast<Vertex>(st.n);

  // (*) Random sample S of size ~ (n/D) ln D.
  const double target =
      static_cast<double>(n) / static_cast<double>(D) * std::log(static_cast<double>(D));
  const std::size_t sample_size =
      std::min<std::size_t>(n, std::max<std::size_t>(1, static_cast<std::size_t>(target) + 1));
  std::vector<Vertex> pool(n);
  for (Vertex v = 0; v < n; ++v) pool[v] = v;
  shuffle(pool, rng);
  st.sample.assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(sample_size));
  std::sort(st.sample.begin(), st.sample.end());

  // Random D^3-coloring.
  const std::uint64_t num_colors = static_cast<std::uint64_t>(D) * D * D;
  st.color.resize(n);
  for (Vertex v = 0; v < n; ++v) st.color[v] = static_cast<std::uint32_t>(rng.next_below(num_colors));

  st.q_of.resize(n);
  st.r_of.resize(n);

  std::vector<std::uint32_t> color_seen(num_colors, 0);
  std::uint32_t epoch = 0;

  for (Vertex u = 0; u < n; ++u) {
    const Dist* ru = truth.row(u);
    for (Vertex v = u + 1; v < n; ++v) {
      const Dist duv = truth.at(u, v);
      if (duv == kInfDist) continue;
      if (duv == 0) {
        // Distance-0 pair (possible with weight-0 edges): the partner itself
        // is a valid shared hub; route it through the Q mechanism.
        st.q_of[u].push_back(v);
        continue;
      }
      // Covered by the shared sample?
      const Dist* rv = truth.row(v);
      bool covered = false;
      for (Vertex h : st.sample) {
        if (ru[h] != kInfDist && rv[h] != kInfDist && ru[h] + rv[h] == duv) {
          covered = true;
          break;
        }
      }
      if (covered) continue;

      const auto hubs = truth.valid_hubs(u, v);
      if (hubs.size() >= D) {
        st.q_of[u].push_back(v);
        continue;
      }
      // Rainbow check over H_uv.
      ++epoch;
      bool conflict = false;
      for (Vertex h : hubs) {
        if (color_seen[st.color[h]] == epoch) {
          conflict = true;
          break;
        }
        color_seen[st.color[h]] = epoch;
      }
      if (conflict) {
        st.r_of[u].push_back(v);
        continue;
      }
      for (Vertex h : hubs) {
        const Dist a = ru[h];
        const Dist b = rv[h];
        HUBLAB_ASSERT(a + b == duv && duv <= D);
        st.groups[st.key(h, a, b)].emplace_back(u, v);
      }
    }
  }
  return st;
}

/// Compressed bipartite graph of one E^h_{a,b} group plus id mappings.
struct GroupGraph {
  BipartiteGraph bip;
  std::vector<Vertex> left_ids;
  std::vector<Vertex> right_ids;
};

GroupGraph build_group_graph(const std::vector<std::pair<Vertex, Vertex>>& pairs) {
  std::vector<Vertex> lefts;
  std::vector<Vertex> rights;
  lefts.reserve(pairs.size());
  rights.reserve(pairs.size());
  for (const auto& [u, v] : pairs) {
    lefts.push_back(u);
    rights.push_back(v);
  }
  std::sort(lefts.begin(), lefts.end());
  lefts.erase(std::unique(lefts.begin(), lefts.end()), lefts.end());
  std::sort(rights.begin(), rights.end());
  rights.erase(std::unique(rights.begin(), rights.end()), rights.end());

  auto index_of = [](const std::vector<Vertex>& ids, Vertex v) {
    return static_cast<std::uint32_t>(std::lower_bound(ids.begin(), ids.end(), v) - ids.begin());
  };

  GroupGraph gg{BipartiteGraph(lefts.size(), rights.size()), std::move(lefts), std::move(rights)};
  for (const auto& [u, v] : pairs) {
    gg.bip.add_edge(index_of(gg.left_ids, u), index_of(gg.right_ids, v));
  }
  return gg;
}

}  // namespace

HubLabeling upper_bound_labeling(const Graph& g, const DistanceMatrix& truth, std::size_t D,
                                 Rng& rng, UpperBoundStats* stats_out) {
  PipelineState st = classify_pairs(g, truth, D, rng);
  const auto n = static_cast<Vertex>(st.n);
  UpperBoundStats stats;
  stats.n = st.n;
  stats.D = D;
  stats.sample_size = st.sample.size();

  // Vertex covers -> F_v (seeded with v itself, as in the proof).
  std::vector<std::vector<Vertex>> f_of(n);
  for (Vertex v = 0; v < n; ++v) f_of[v].push_back(v);
  for (const auto& [key, pairs] : st.groups) {
    const Vertex h = st.key_hub(key);
    const GroupGraph gg = build_group_graph(pairs);
    const Matching mm = hopcroft_karp(gg.bip);
    const VertexCover vc = koenig_cover(gg.bip, mm);
    HUBLAB_ASSERT(vc.size() == mm.size());
    for (auto li : vc.left) f_of[gg.left_ids[li]].push_back(h);
    for (auto ri : vc.right) f_of[gg.right_ids[ri]].push_back(h);
    ++stats.num_groups;
    stats.sum_matchings += mm.size();
  }

  // Assemble final labels: S union Q_v union R_v union N(F_v).
  std::vector<std::vector<HubEntry>> rows(n);
  auto add_if_reachable = [&rows, &truth](Vertex v, Vertex hub) {
    const Dist d = truth.at(v, hub);
    if (d != kInfDist) rows[v].push_back({hub, d});
  };
  for (Vertex v = 0; v < n; ++v) {
    for (Vertex s : st.sample) add_if_reachable(v, s);
    for (Vertex w : st.q_of[v]) add_if_reachable(v, w);
    for (Vertex w : st.r_of[v]) add_if_reachable(v, w);
    for (Vertex x : f_of[v]) {
      add_if_reachable(v, x);
      for (const Arc& a : g.arcs(x)) add_if_reachable(v, a.to);
      // N(F_v) accounting: x and its neighbors.
      stats.sum_nf += 1 + g.degree(x);
    }
    stats.sum_q += st.q_of[v].size();
    stats.sum_r += st.r_of[v].size();
    stats.sum_f += f_of[v].size() - 1;  // exclude the seeded v
  }
  HubLabeling labeling(std::move(rows));
  stats.total_hubs = labeling.total_hubs();
  stats.average_label_size = labeling.average_label_size();
  if (stats_out != nullptr) *stats_out = stats;

  // Mirror the Theorem 4.1 stage sizes into the metrics registry so traces
  // and bench JSON pick them up without threading UpperBoundStats around.
  metrics::Registry& reg = metrics::registry();
  reg.gauge("thm41.sample_size").set(static_cast<std::int64_t>(stats.sample_size));
  reg.gauge("thm41.sum_q").set(static_cast<std::int64_t>(stats.sum_q));
  reg.gauge("thm41.sum_r").set(static_cast<std::int64_t>(stats.sum_r));
  reg.gauge("thm41.sum_f").set(static_cast<std::int64_t>(stats.sum_f));
  reg.gauge("thm41.sum_nf").set(static_cast<std::int64_t>(stats.sum_nf));
  reg.gauge("thm41.num_groups").set(static_cast<std::int64_t>(stats.num_groups));
  reg.gauge("thm41.cover_size").set(static_cast<std::int64_t>(stats.sum_matchings));
  reg.gauge("thm41.total_hubs").set(static_cast<std::int64_t>(stats.total_hubs));
  reg.counter("thm41.runs").add(1);
  return labeling;
}

HubLabeling upper_bound_labeling_sparse(const Graph& g, std::size_t D, Rng& rng,
                                        UpperBoundStats* stats_out) {
  if (g.is_weighted()) {
    throw InvalidArgument("upper_bound_labeling_sparse needs an unweighted graph");
  }
  const std::size_t n = g.num_vertices();
  const std::size_t m = g.num_edges();
  const std::size_t cap = n == 0 ? 1 : std::max<std::size_t>(1, (m + n - 1) / n);
  const DegreeReduction red = reduce_degree(g, cap);
  const DistanceMatrix truth = DistanceMatrix::compute(red.graph);
  const HubLabeling inner = upper_bound_labeling(red.graph, truth, D, rng, stats_out);

  // Project back: the label of v is the label of its representative copy,
  // with every hub copy mapped to its original vertex.  Weight-0 chains
  // preserve all the distances involved.
  std::vector<std::vector<HubEntry>> rows(n);
  for (Vertex v = 0; v < n; ++v) {
    const auto hubs = inner.hubs(red.representative[v]);
    const auto dists = inner.dists(red.representative[v]);
    for (std::size_t i = 0; i < hubs.size(); ++i) {
      rows[v].push_back({red.origin[hubs[i]], dists[i]});
    }
  }
  return HubLabeling(std::move(rows));
}

bool verify_lemma_4_2(const Graph& g, const DistanceMatrix& truth, std::size_t D, Rng& rng) {
  PipelineState st = classify_pairs(g, truth, D, rng);
  const auto n = static_cast<Vertex>(st.n);

  // Regroup the (h, a, b) classes by (color(h), a, b); within one class the
  // lemma asserts each MM^h_{a,b} is an induced matching of the union graph
  // G^c_{a,b} over the class.
  std::map<std::uint64_t, std::vector<std::uint64_t>> by_color_ab;
  for (const auto& [key, pairs] : st.groups) {
    const Vertex h = st.key_hub(key);
    const std::uint64_t cab = key - static_cast<std::uint64_t>(h) * (D + 1) * (D + 1) +
                              static_cast<std::uint64_t>(st.color[h]) * (D + 1) * (D + 1);
    by_color_ab[cab].push_back(key);
  }

  for (const auto& [cab, keys] : by_color_ab) {
    (void)cab;
    // Maximal matchings per hub, in original vertex ids (left u, right n+v).
    std::vector<EdgeList> matchings;
    GraphBuilder union_builder(2 * static_cast<std::size_t>(n));
    for (std::uint64_t key : keys) {
      const auto& pairs = st.groups.at(key);
      const GroupGraph gg = build_group_graph(pairs);
      const Matching mm = hopcroft_karp(gg.bip);
      EdgeList edges;
      for (std::uint32_t li = 0; li < gg.bip.num_left(); ++li) {
        if (mm.left_match[li] == kUnmatched) continue;
        const Vertex u = gg.left_ids[li];
        const Vertex v = gg.right_ids[mm.left_match[li]];
        edges.emplace_back(u, static_cast<Vertex>(n + v));
        union_builder.add_edge(u, static_cast<Vertex>(n + v));
      }
      matchings.push_back(std::move(edges));
    }
    const Graph union_graph = union_builder.build();
    for (const EdgeList& mm : matchings) {
      if (!is_induced_matching(union_graph, mm)) return false;
    }
  }
  return true;
}

}  // namespace hublab
