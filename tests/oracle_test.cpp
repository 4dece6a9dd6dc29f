#include <gtest/gtest.h>

#include "algo/distance_matrix.hpp"
#include "graph/generators.hpp"
#include "hub/pll.hpp"
#include "oracle/oracle.hpp"
#include "util/rng.hpp"

namespace hublab {
namespace {

class OracleAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleAgreement, AllExactOraclesAgree) {
  Rng rng(GetParam());
  Graph g = gen::connected_gnm(60, 130, rng);
  if (GetParam() % 2 == 0) g = gen::randomize_weights(g, 11, rng);
  const auto truth = DistanceMatrix::compute(g);

  const ApspOracle apsp(g);
  const SsspOracle sssp_oracle(g);
  const BidirectionalOracle bidir(g);
  const FlatHubLabelOracle hubs(pruned_landmark_labeling(g));

  Rng pick(GetParam() + 100);
  for (int i = 0; i < 60; ++i) {
    const auto u = static_cast<Vertex>(pick.next_below(60));
    const auto v = static_cast<Vertex>(pick.next_below(60));
    const Dist expected = truth.at(u, v);
    EXPECT_EQ(apsp.distance(u, v), expected);
    EXPECT_EQ(sssp_oracle.distance(u, v), expected);
    EXPECT_EQ(bidir.distance(u, v), expected);
    EXPECT_EQ(hubs.distance(u, v), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleAgreement, ::testing::Values(1, 2, 3, 4));

TEST(LandmarkOracle, IsUpperBound) {
  Rng rng(5);
  const Graph g = gen::connected_gnm(50, 110, rng);
  const auto truth = DistanceMatrix::compute(g);
  const LandmarkOracle lm(g, {0, 7, 13, 42});
  for (Vertex u = 0; u < 50; ++u) {
    for (Vertex v = 0; v < 50; ++v) {
      EXPECT_GE(lm.distance(u, v), truth.at(u, v));
    }
  }
}

TEST(LandmarkOracle, ExactThroughLandmark) {
  const Graph g = gen::star(10);
  const LandmarkOracle lm(g, {0});  // the center hits every shortest path
  EXPECT_EQ(lm.distance(1, 2), 2u);
  EXPECT_EQ(lm.distance(0, 5), 1u);
}

TEST(Oracles, SpaceAccounting) {
  const Graph g = gen::grid(6, 6);
  const ApspOracle apsp(g);
  EXPECT_EQ(apsp.space_bytes(), 36u * 36u * sizeof(Dist));
  const SsspOracle od(g);
  EXPECT_EQ(od.space_bytes(), 0u);
  // Hub-label space is the columns' real heap footprint, bounded below by
  // the entry payload the paper's bounds count.
  const FlatHubLabelOracle hubs(pruned_landmark_labeling(g));
  EXPECT_EQ(hubs.space_bytes(), hubs.labeling().memory_bytes());
  EXPECT_GE(hubs.space_bytes(),
            hubs.labeling().total_hubs() * (sizeof(Vertex) + hubs.labeling().dist_bytes()));
  const LandmarkOracle lm(g, {0, 1, 2});
  EXPECT_EQ(lm.space_bytes(), 3u * 36u * sizeof(Dist));
}

TEST(Oracles, Names) {
  const Graph g = gen::path(4);
  EXPECT_EQ(ApspOracle(g).name(), "apsp-table");
  EXPECT_EQ(SsspOracle(g).name(), "on-demand-sssp");
  EXPECT_EQ(BidirectionalOracle(g).name(), "bidirectional-dijkstra");
}

TEST(Oracles, DisconnectedPairs) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  const Graph g = b.build();
  const ApspOracle apsp(g);
  const FlatHubLabelOracle hubs(pruned_landmark_labeling(g));
  const LandmarkOracle lm(g, {0});
  EXPECT_EQ(apsp.distance(0, 2), kInfDist);
  EXPECT_EQ(hubs.distance(0, 2), kInfDist);
  EXPECT_EQ(lm.distance(0, 2), kInfDist);
}

}  // namespace
}  // namespace hublab
