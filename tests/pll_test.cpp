#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algo/distance_matrix.hpp"
#include "graph/generators.hpp"
#include "graph/transforms.hpp"
#include "hub/labeling.hpp"
#include "hub/pll.hpp"
#include "lowerbound/gadget.hpp"
#include "rs/rs_graph.hpp"
#include "util/rng.hpp"

namespace hublab {
namespace {

void expect_exact(const Graph& g, const HubLabeling& l) {
  const auto truth = DistanceMatrix::compute(g);
  const auto defect = verify_labeling(g, l, truth);
  EXPECT_FALSE(defect.has_value())
      << "defect at u=" << (defect ? defect->u : 0) << " v=" << (defect ? defect->v : 0)
      << " stored=" << (defect ? defect->stored : 0) << " actual=" << (defect ? defect->actual : 0);
}

TEST(Pll, PathGraph) { expect_exact(gen::path(12), pruned_landmark_labeling(gen::path(12))); }

TEST(Pll, CycleGraph) { expect_exact(gen::cycle(13), pruned_landmark_labeling(gen::cycle(13))); }

TEST(Pll, GridGraph) {
  const Graph g = gen::grid(5, 6);
  expect_exact(g, pruned_landmark_labeling(g));
}

TEST(Pll, StarGraph) {
  const Graph g = gen::star(20);
  const HubLabeling l = pruned_landmark_labeling(g);
  expect_exact(g, l);
  // Degree order processes the center first; every label then needs at most
  // the center plus itself.
  EXPECT_LE(l.average_label_size(), 2.1);
}

TEST(Pll, CompleteGraph) {
  const Graph g = gen::complete(9);
  expect_exact(g, pruned_landmark_labeling(g));
}

TEST(Pll, DisconnectedGraph) {
  GraphBuilder b(6);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(3, 4);
  const Graph g = b.build();
  const HubLabeling l = pruned_landmark_labeling(g);
  expect_exact(g, l);
  EXPECT_EQ(l.query(0, 3), kInfDist);
  EXPECT_EQ(l.query(0, 5), kInfDist);
}

TEST(Pll, SingleVertex) {
  const Graph g = gen::path(1);
  const HubLabeling l = pruned_landmark_labeling(g);
  EXPECT_EQ(l.query(0, 0), 0u);
}

TEST(Pll, WeightedRoadLike) {
  Rng rng(21);
  const Graph g = gen::road_like(6, 6, 0.25, 9, rng);
  expect_exact(g, pruned_landmark_labeling(g));
}

TEST(Pll, ZeroWeightEdges) {
  // Degree-reduction gadgets have weight-0 chains; PLL must stay exact.
  Rng rng(22);
  const Graph base = gen::connected_gnm(40, 120, rng);
  const DegreeReduction red = reduce_degree(base, 2);
  expect_exact(red.graph, pruned_landmark_labeling(red.graph));
}

TEST(Pll, DeterministicForFixedOrder) {
  Rng rng(23);
  const Graph g = gen::connected_gnm(50, 100, rng);
  const HubLabeling a = pruned_landmark_labeling(g, VertexOrder::kNatural);
  const HubLabeling b = pruned_landmark_labeling(g, VertexOrder::kNatural);
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  for (Vertex v = 0; v < 50; ++v) {
    ASSERT_EQ(a.label_size(v), b.label_size(v));
    for (std::size_t i = 0; i < a.label_size(v); ++i) {
      EXPECT_EQ(a.hubs(v)[i], b.hubs(v)[i]);
      EXPECT_EQ(a.dists(v)[i], b.dists(v)[i]);
    }
  }
}

TEST(Pll, FirstVertexInOrderIsUniversalHub) {
  Rng rng(24);
  const Graph g = gen::connected_gnm(40, 90, rng);
  const auto order = make_vertex_order(g, VertexOrder::kNatural);
  const HubLabeling l = pruned_landmark_labeling(g, order);
  for (Vertex v = 0; v < 40; ++v) EXPECT_TRUE(l.has_hub(v, order[0]));
}

TEST(Pll, EveryVertexHasItself) {
  Rng rng(25);
  const Graph g = gen::connected_gnm(40, 90, rng);
  const HubLabeling l = pruned_landmark_labeling(g);
  for (Vertex v = 0; v < 40; ++v) {
    EXPECT_TRUE(l.has_hub(v, v));
    EXPECT_EQ(l.query(v, v), 0u);
  }
}

TEST(MakeVertexOrder, DegreeDescending) {
  const Graph g = gen::star(10);
  const auto order = make_vertex_order(g, VertexOrder::kDegreeDescending);
  EXPECT_EQ(order[0], 0u);  // center has max degree
}

TEST(MakeVertexOrder, RandomIsSeededPermutation) {
  const Graph g = gen::path(30);
  const auto a = make_vertex_order(g, VertexOrder::kRandom, 5);
  const auto b = make_vertex_order(g, VertexOrder::kRandom, 5);
  const auto c = make_vertex_order(g, VertexOrder::kRandom, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  auto sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (Vertex v = 0; v < 30; ++v) EXPECT_EQ(sorted[v], v);
}

struct PllSweepCase {
  std::uint64_t seed;
  std::size_t n;
  std::size_t m;
  Weight max_weight;  // 1 = unweighted
  VertexOrder order;
};

class PllRandomSweep : public ::testing::TestWithParam<PllSweepCase> {};

TEST_P(PllRandomSweep, ExactOnRandomGraphs) {
  const auto& c = GetParam();
  Rng rng(c.seed);
  Graph g = gen::gnm(c.n, c.m, rng);
  if (c.max_weight > 1) g = gen::randomize_weights(g, c.max_weight, rng);
  expect_exact(g, pruned_landmark_labeling(g, c.order, c.seed));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PllRandomSweep,
    ::testing::Values(
        PllSweepCase{1, 30, 29, 1, VertexOrder::kDegreeDescending},
        PllSweepCase{2, 50, 100, 1, VertexOrder::kDegreeDescending},
        PllSweepCase{3, 50, 100, 1, VertexOrder::kNatural},
        PllSweepCase{4, 50, 100, 1, VertexOrder::kRandom},
        PllSweepCase{5, 80, 160, 1, VertexOrder::kDegreeDescending},
        PllSweepCase{6, 50, 100, 10, VertexOrder::kDegreeDescending},
        PllSweepCase{7, 50, 100, 10, VertexOrder::kRandom},
        PllSweepCase{8, 60, 240, 5, VertexOrder::kDegreeDescending},
        PllSweepCase{9, 40, 60, 100, VertexOrder::kNatural},
        PllSweepCase{10, 100, 150, 1, VertexOrder::kDegreeDescending},
        PllSweepCase{11, 100, 300, 3, VertexOrder::kRandom},
        PllSweepCase{12, 25, 40, 2, VertexOrder::kNatural}));

TEST(Pll, TreeLabelsAreSmall) {
  Rng rng(26);
  const Graph g = gen::random_tree(200, rng);
  const HubLabeling l = pruned_landmark_labeling(g);
  expect_exact(g, l);
  // Hub labelings of trees need only O(log n) average size; allow slack.
  EXPECT_LE(l.average_label_size(), 25.0);
}

/// The canonical labeling of `order`, built from its definition: rank k
/// puts (r_k, d(r_k, u)) into S(u) iff that distance is finite and no
/// i < k has d(r_i, u) + d(r_i, r_k) <= d(r_k, u).  Rows sorted by hub.
std::vector<std::vector<HubEntry>> canonical_labels(const DistanceMatrix& truth,
                                                    const std::vector<Vertex>& order) {
  const std::size_t n = truth.num_vertices();
  // by_rank[u * n + i] = d(r_i, u), so a cover test reads two contiguous rows.
  std::vector<Dist> by_rank(n * n);
  for (Vertex u = 0; u < n; ++u) {
    for (std::size_t i = 0; i < n; ++i) by_rank[u * n + i] = truth.at(order[i], u);
  }
  std::vector<std::vector<HubEntry>> labels(n);
  for (std::size_t k = 0; k < n; ++k) {
    const Dist* to_root = by_rank.data() + static_cast<std::size_t>(order[k]) * n;
    for (Vertex u = 0; u < n; ++u) {
      const Dist* to_u = by_rank.data() + static_cast<std::size_t>(u) * n;
      const Dist d = to_u[k];
      if (d == kInfDist) continue;
      bool covered = false;
      for (std::size_t i = 0; i < k && !covered; ++i) {
        covered = to_u[i] != kInfDist && to_root[i] != kInfDist && to_u[i] + to_root[i] <= d;
      }
      if (!covered) labels[u].push_back(HubEntry{order[k], d});
    }
  }
  for (auto& row : labels) {
    std::sort(row.begin(), row.end(),
              [](const HubEntry& a, const HubEntry& b) { return a.hub < b.hub; });
  }
  return labels;
}

/// The builder, at 1 and 4 threads, against the reference, entry for entry,
/// under every VertexOrder.
void expect_canonical(const Graph& g, const std::string& name) {
  const DistanceMatrix truth = DistanceMatrix::compute(g);
  for (const VertexOrder mode :
       {VertexOrder::kDegreeDescending, VertexOrder::kNatural, VertexOrder::kRandom}) {
    const std::vector<Vertex> order = make_vertex_order(g, mode, 7);
    const std::vector<std::vector<HubEntry>> reference = canonical_labels(truth, order);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      const std::string what = name + " order=" + std::to_string(static_cast<int>(mode)) +
                               " threads=" + std::to_string(threads);
      const HubLabeling labels = pruned_landmark_labeling(g, order, PllConfig{threads});
      ASSERT_EQ(labels.num_vertices(), g.num_vertices()) << what;
      for (Vertex v = 0; v < g.num_vertices(); ++v) {
        const auto hubs = labels.hubs(v);
        const auto dists = labels.dists(v);
        ASSERT_EQ(hubs.size(), reference[v].size()) << what << ": label size at v=" << v;
        for (std::size_t i = 0; i < hubs.size(); ++i) {
          ASSERT_EQ(hubs[i], reference[v][i].hub) << what << ": v=" << v << " entry " << i;
          ASSERT_EQ(dists[i], reference[v][i].dist) << what << ": v=" << v << " entry " << i;
        }
      }
    }
  }
}

TEST(PllCanonical, StructuredFamilies) {
  expect_canonical(gen::path(40), "path40");
  expect_canonical(gen::cycle(33), "cycle33");
  expect_canonical(gen::grid(7, 9), "grid7x9");
  expect_canonical(gen::star(24), "star24");
  expect_canonical(gen::binary_tree(63), "btree63");
  // K_{8,600}: 600-vertex BFS levels with non-empty labels exceed the
  // builder's inline-scan threshold, so the 4-thread builds run the
  // parallel prune scan.
  GraphBuilder b(608);
  for (Vertex hub = 0; hub < 8; ++hub) {
    for (Vertex leaf = 8; leaf < 608; ++leaf) b.add_edge(hub, leaf);
  }
  expect_canonical(b.build(), "K_{8,600}");
}

TEST(PllCanonical, RandomSparse) {
  Rng rng(42);
  expect_canonical(gen::connected_gnm(160, 320, rng), "gnm160");
  expect_canonical(gen::barabasi_albert(150, 3, rng), "ba150");
  expect_canonical(gen::random_regular(120, 3, rng), "reg120");
}

TEST(PllCanonical, Fig1GadgetAndBehrendRsGraph) {
  // The unweighted degree-3 expansion G_{2,1} of the paper's Fig-1 gadget.
  const lb::LayeredGadget h(lb::GadgetParams{2, 1});
  const lb::Degree3Gadget g(h);
  expect_canonical(g.graph(), "G_{2,1}");
  expect_canonical(rs::behrend_rs_graph(40).graph, "rs40");
}

TEST(PllCanonical, DisconnectedAndTinyGraphs) {
  GraphBuilder b(40);
  for (Vertex v = 0; v + 1 < 20; ++v) b.add_edge(v, v + 1);
  for (Vertex v = 21; v + 1 < 40; ++v) b.add_edge(v, v + 1);
  expect_canonical(b.build(), "two-paths");
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}}) {
    expect_canonical(gen::path(n), "path" + std::to_string(n));
  }
}

TEST(PllCanonical, WeightedAndZeroWeightEdges) {
  Rng rng(5);
  const Graph road = gen::road_like(8, 8, 0.2, 10, rng);
  ASSERT_TRUE(road.is_weighted());
  expect_canonical(road, "road-like 8x8");
  // Degree reduction joins each vertex's copies by weight-0 edges.
  const DegreeReduction red = reduce_degree(gen::connected_gnm(40, 120, rng), 2);
  expect_canonical(red.graph, "degree-reduced gnm40");
}

TEST(PllCanonical, DistanceWidthBoundary) {
  // (n - 1) * max_weight = 0xFFFFFFFE: 32-bit rows, holding the largest
  // distance below their "absent" value.  One weight unit more needs the
  // 64-bit rows, with a distance of 2^32 between the ends.
  for (const Weight w : {Weight{0x7FFFFFFF}, Weight{0x80000000}}) {
    GraphBuilder b(3);
    b.add_edge(0, 1, w);
    b.add_edge(1, 2, w);
    const Graph g = b.build();
    expect_canonical(g, "path3 w=" + std::to_string(w));
    const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kNatural);
    EXPECT_EQ(pruned_landmark_labeling(g, order).query(0, 2), Dist{2} * w);
  }
}

TEST(Pll, Fig1GadgetG22SampledExact) {
  // G_{2,2} (24400 vertices) is too large for a DistanceMatrix.
  const lb::LayeredGadget h(lb::GadgetParams{2, 2});
  const lb::Degree3Gadget g(h);
  const HubLabeling l = pruned_landmark_labeling(g.graph(), VertexOrder::kDegreeDescending, 0,
                                                 PllConfig{4});
  EXPECT_FALSE(verify_labeling_sampled(g.graph(), l, 200, 1, 4).has_value());
}

}  // namespace
}  // namespace hublab
