#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algo/distance_matrix.hpp"
#include "graph/generators.hpp"
#include "hub/labeling.hpp"
#include "hub/pll.hpp"
#include "util/rng.hpp"

namespace hublab {
namespace {

/// Every pair must query to the definition: the distance is the graph
/// distance (PLL labels are a shortest-path cover), and the meeting hub is
/// the smallest common hub id attaining the minimum of d(u, w) + d(w, v),
/// found here by brute force over the two labels.
void expect_matches_definition(const Graph& g, const HubLabeling& labels) {
  const DistanceMatrix truth = DistanceMatrix::compute(g);
  ASSERT_EQ(labels.num_vertices(), g.num_vertices());
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      Dist best = kInfDist;
      Vertex hub = kInvalidVertex;
      for (std::size_t i = 0; i < labels.label_size(u); ++i) {
        for (std::size_t j = 0; j < labels.label_size(v); ++j) {
          if (labels.hubs(u)[i] != labels.hubs(v)[j]) continue;
          const Dist d = labels.dists(u)[i] + labels.dists(v)[j];
          if (d < best || (d == best && labels.hubs(u)[i] < hub)) {
            best = d;
            hub = labels.hubs(u)[i];
          }
        }
      }
      const HubQueryResult got = labels.query_with_hub(u, v);
      ASSERT_EQ(got.dist, truth.at(u, v)) << "query(" << u << "," << v << ")";
      ASSERT_EQ(got.dist, best) << "query(" << u << "," << v << ")";
      ASSERT_EQ(got.meeting_hub, hub) << "hub(" << u << "," << v << ")";
    }
  }
}

TEST(FlatHubLabeling, MatchesDefinitionOnGnm) {
  Rng rng(21);
  const Graph g = gen::connected_gnm(60, 120, rng);
  expect_matches_definition(g, pruned_landmark_labeling(g));
}

TEST(FlatHubLabeling, MatchesDefinitionOnGrid) {
  const Graph g = gen::grid(6, 6);
  expect_matches_definition(g, pruned_landmark_labeling(g));
}

TEST(FlatHubLabeling, MatchesDefinitionOnWeightedRoad) {
  Rng rng(24);
  const Graph g = gen::road_like(8, 8, 0.2, 10, rng);
  expect_matches_definition(g, pruned_landmark_labeling(g));
}

TEST(FlatHubLabeling, HandlesDisconnectedPairs) {
  // Two components: cross-component queries must stay kInfDist through the
  // sentinel-terminated merge.
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  b.add_edge(4, 5);
  const Graph g = b.build();
  const HubLabeling flat = pruned_landmark_labeling(g);
  EXPECT_EQ(flat.query(0, 5), kInfDist);
  EXPECT_EQ(flat.query_with_hub(2, 3).meeting_hub, kInvalidVertex);
  EXPECT_EQ(flat.query(0, 2), 2u);
  EXPECT_EQ(flat.query(3, 5), 2u);
}

TEST(FlatHubLabeling, PerVertexSpansMatchSource) {
  // The per-vertex spans are the source rows, sorted by hub id.
  const std::vector<std::vector<HubEntry>> rows{
      {{4, 2}, {0, 1}, {2, 0}}, {}, {{1, 5}}, {{3, 0}, {0, 9}}, {}};
  const HubLabeling flat(rows);
  ASSERT_EQ(flat.num_vertices(), rows.size());
  for (Vertex v = 0; v < rows.size(); ++v) {
    std::vector<HubEntry> src = rows[v];
    std::sort(src.begin(), src.end(),
              [](const HubEntry& a, const HubEntry& b) { return a.hub < b.hub; });
    const auto hubs = flat.hubs(v);
    const auto dists = flat.dists(v);
    ASSERT_EQ(flat.label_size(v), src.size());
    ASSERT_EQ(hubs.size(), src.size());
    ASSERT_EQ(dists.size(), src.size());
    for (std::size_t i = 0; i < src.size(); ++i) {
      EXPECT_EQ(hubs[i], src[i].hub);
      EXPECT_EQ(dists[i], src[i].dist);
    }
  }
}

TEST(FlatHubLabeling, EmptyLabelsQueryInfinite) {
  const HubLabeling flat(std::vector<std::vector<HubEntry>>(4));
  EXPECT_EQ(flat.num_vertices(), 4u);
  EXPECT_EQ(flat.total_hubs(), 0u);
  EXPECT_EQ(flat.label_size(2), 0u);
  EXPECT_EQ(flat.query(0, 3), kInfDist);
}

TEST(FlatHubLabeling, DefaultConstructedIsEmpty) {
  const HubLabeling flat;
  EXPECT_EQ(flat.num_vertices(), 0u);
  EXPECT_EQ(flat.total_hubs(), 0u);
  EXPECT_EQ(flat.memory_bytes(), 0u);
}

TEST(FlatHubLabeling, MemoryBytesCoversArrays) {
  Rng rng(23);
  const Graph g = gen::connected_gnm(40, 80, rng);
  const HubLabeling flat = pruned_landmark_labeling(g);
  // The exact payload of the three arrays (offsets n+1, one sentinel per
  // vertex after each label): the builder sizes them once.  An unweighted
  // graph's distances take the 4-byte column.
  const std::size_t n = g.num_vertices();
  const std::size_t slots = flat.total_hubs() + n;
  EXPECT_EQ(flat.dist_bytes(), 4u);
  EXPECT_EQ(flat.memory_bytes(),
            (n + 1) * sizeof(std::size_t) + slots * (sizeof(Vertex) + flat.dist_bytes()));
}

}  // namespace
}  // namespace hublab
