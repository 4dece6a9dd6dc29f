#include "hub/constructions.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace hublab {

HubLabeling full_labeling(const Graph& g, const DistanceMatrix& truth) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  std::vector<std::vector<HubEntry>> rows(n);
  for (Vertex v = 0; v < n; ++v) {
    for (Vertex h = 0; h < n; ++h) {
      if (truth.at(v, h) != kInfDist) rows[v].push_back({h, truth.at(v, h)});
    }
  }
  return HubLabeling(std::move(rows));
}

HubLabeling greedy_cover(const Graph& g, const DistanceMatrix& truth) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  if (n > 400) throw InvalidArgument("greedy_cover limited to small graphs (n <= 400)");
  std::vector<std::vector<HubEntry>> rows(n);

  // Uncovered connected pairs (u <= v).
  std::vector<std::pair<Vertex, Vertex>> uncovered;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u; v < n; ++v) {
      if (truth.at(u, v) != kInfDist) uncovered.emplace_back(u, v);
    }
  }

  while (!uncovered.empty()) {
    // Pick the hub candidate covering the most uncovered pairs.
    std::vector<std::size_t> gain(n, 0);
    for (const auto& [u, v] : uncovered) {
      const Dist duv = truth.at(u, v);
      for (Vertex h = 0; h < n; ++h) {
        if (truth.at(u, h) != kInfDist && truth.at(h, v) != kInfDist &&
            truth.at(u, h) + truth.at(h, v) == duv) {
          ++gain[h];
        }
      }
    }
    const Vertex best =
        static_cast<Vertex>(std::max_element(gain.begin(), gain.end()) - gain.begin());
    HUBLAB_ASSERT(gain[best] > 0);

    std::vector<std::pair<Vertex, Vertex>> still;
    still.reserve(uncovered.size() - gain[best]);
    for (const auto& [u, v] : uncovered) {
      const Dist duv = truth.at(u, v);
      if (truth.at(u, best) != kInfDist && truth.at(best, v) != kInfDist &&
          truth.at(u, best) + truth.at(best, v) == duv) {
        rows[u].push_back({best, truth.at(u, best)});
        rows[v].push_back({best, truth.at(v, best)});
      } else {
        still.emplace_back(u, v);
      }
    }
    uncovered.swap(still);
  }
  return HubLabeling(std::move(rows));
}

HubLabeling random_distant_cover(const Graph& g, const DistanceMatrix& truth, std::size_t D,
                                 Rng& rng, DistantCoverStats* stats_out) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  if (D < 2) throw InvalidArgument("random_distant_cover needs D >= 2");
  std::vector<std::vector<HubEntry>> rows(n);
  DistantCoverStats stats;

  // Shared random sample S of size ~ (n/D) ln D (at least 1, at most n).
  const double target = static_cast<double>(n) / static_cast<double>(D) *
                        std::log(static_cast<double>(D));
  const std::size_t sample_size = std::min<std::size_t>(n, std::max<std::size_t>(1,
                                      static_cast<std::size_t>(target) + 1));
  std::vector<Vertex> pool(n);
  for (Vertex v = 0; v < n; ++v) pool[v] = v;
  shuffle(pool, rng);
  std::vector<Vertex> sample(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(sample_size));
  std::sort(sample.begin(), sample.end());
  stats.sample_size = sample_size;

  for (Vertex v = 0; v < n; ++v) {
    // S goes into every label (entries for unreachable hubs are dropped).
    for (Vertex s : sample) {
      if (truth.at(v, s) != kInfDist) rows[v].push_back({s, truth.at(v, s)});
    }
    // Ball of radius D-1: near pairs are covered by the far endpoint itself.
    for (Vertex x = 0; x < n; ++x) {
      const Dist d = truth.at(v, x);
      if (d != kInfDist && d < D) {
        rows[v].push_back({x, d});
        ++stats.ball_hubs;
      }
    }
  }
  const HubLabeling sampled(rows);

  // Patch far pairs that S happened to miss (collect first, apply once;
  // extra hubs never break coverage, so redundant patches are harmless).
  std::vector<std::pair<Vertex, Vertex>> misses;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      const Dist duv = truth.at(u, v);
      if (duv == kInfDist || duv < D) continue;
      if (sampled.query(u, v) != duv) misses.emplace_back(u, v);
    }
  }
  for (const auto& [u, v] : misses) {
    rows[u].push_back({v, truth.at(u, v)});  // far endpoint as explicit hub
    ++stats.patched_pairs;
  }
  if (stats_out != nullptr) *stats_out = stats;
  return HubLabeling(std::move(rows));
}

}  // namespace hublab
