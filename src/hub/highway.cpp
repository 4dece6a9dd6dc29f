#include "hub/highway.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hublab {

std::vector<Vertex> greedy_sp_cover(const Graph& g, const DistanceMatrix& truth, Dist r) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  if (g.is_weighted()) throw InvalidArgument("greedy_sp_cover requires an unweighted graph");

  // Collect the target pairs.
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      const Dist d = truth.at(u, v);
      if (d != kInfDist && d > r && d <= 2 * r) pairs.emplace_back(u, v);
    }
  }

  std::vector<Vertex> cover;
  while (!pairs.empty()) {
    // Gain of candidate h = number of uncovered pairs it hits.
    std::vector<std::size_t> gain(n, 0);
    for (const auto& [u, v] : pairs) {
      const Dist d = truth.at(u, v);
      const Dist* ru = truth.row(u);
      const Dist* rv = truth.row(v);
      for (Vertex h = 0; h < n; ++h) {
        if (ru[h] != kInfDist && rv[h] != kInfDist && ru[h] + rv[h] == d) ++gain[h];
      }
    }
    const Vertex best =
        static_cast<Vertex>(std::max_element(gain.begin(), gain.end()) - gain.begin());
    HUBLAB_ASSERT(gain[best] > 0);
    cover.push_back(best);

    std::vector<std::pair<Vertex, Vertex>> still;
    still.reserve(pairs.size() - gain[best]);
    for (const auto& [u, v] : pairs) {
      const Dist d = truth.at(u, v);
      if (!(truth.at(u, best) != kInfDist && truth.at(best, v) != kInfDist &&
            truth.at(u, best) + truth.at(best, v) == d)) {
        still.emplace_back(u, v);
      }
    }
    pairs.swap(still);
  }
  std::sort(cover.begin(), cover.end());
  return cover;
}

bool is_sp_cover(const DistanceMatrix& truth, const std::vector<Vertex>& cover, Dist r) {
  const auto n = static_cast<Vertex>(truth.num_vertices());
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      const Dist d = truth.at(u, v);
      if (d == kInfDist || d <= r || d > 2 * r) continue;
      bool hit = false;
      for (Vertex h : cover) {
        if (truth.at(u, h) != kInfDist && truth.at(h, v) != kInfDist &&
            truth.at(u, h) + truth.at(h, v) == d) {
          hit = true;
          break;
        }
      }
      if (!hit) return false;
    }
  }
  return true;
}

std::size_t MultiscaleStats::highway_dimension_estimate() const {
  std::size_t best = 0;
  for (const auto& s : scales) best = std::max(best, s.max_ball_load);
  return best;
}

HubLabeling multiscale_cover_labeling(const Graph& g, const DistanceMatrix& truth,
                                      MultiscaleStats* stats_out) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  if (g.is_weighted()) {
    throw InvalidArgument("multiscale_cover_labeling requires an unweighted graph");
  }
  std::vector<std::vector<HubEntry>> rows(n);
  MultiscaleStats stats;

  // Base: self and neighbors (covers d <= 1).
  for (Vertex v = 0; v < n; ++v) {
    rows[v].push_back({v, 0});
    for (const Arc& a : g.arcs(v)) rows[v].push_back({a.to, truth.at(v, a.to)});
  }

  // Largest finite distance determines the number of scales.
  Dist max_d = 0;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      const Dist d = truth.at(u, v);
      if (d != kInfDist) max_d = std::max(max_d, d);
    }
  }

  for (Dist r = 1; r < max_d; r *= 2) {
    const std::vector<Vertex> cover = greedy_sp_cover(g, truth, r);
    ScaleStats scale;
    scale.r = r;
    scale.cover_size = cover.size();
    for (Vertex v = 0; v < n; ++v) {
      std::size_t load = 0;
      for (Vertex w : cover) {
        const Dist d = truth.at(v, w);
        if (d != kInfDist && d <= 2 * r) {
          rows[v].push_back({w, d});
          ++load;
        }
      }
      scale.max_ball_load = std::max(scale.max_ball_load, load);
    }
    stats.scales.push_back(scale);
  }

  if (stats_out != nullptr) *stats_out = stats;
  return HubLabeling(std::move(rows));
}

}  // namespace hublab
