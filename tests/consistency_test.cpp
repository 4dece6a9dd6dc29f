#include <gtest/gtest.h>

#include <memory>

#include "algo/distance_matrix.hpp"
#include "algo/shortest_paths.hpp"
#include "graph/generators.hpp"
#include "hub/constructions.hpp"
#include "hub/pll.hpp"
#include "hub/structured.hpp"
#include "labeling/distance_labeling.hpp"
#include "oracle/alt.hpp"
#include "oracle/arc_flags.hpp"
#include "oracle/contraction_hierarchy.hpp"
#include "oracle/oracle.hpp"
#include "util/rng.hpp"

/// Cross-implementation consistency matrix: every exact method in the
/// library must return the same distance on the same pair.  With ~8
/// independent implementations, a silent bug in any one of them loses the
/// vote and fails loudly here.

namespace hublab {
namespace {

HubLabeling pll_natural(const Graph& g) {
  return pruned_landmark_labeling(g, VertexOrder::kNatural);
}

struct FamilyCase {
  std::string name;
  Graph graph;
};

std::vector<FamilyCase> families() {
  std::vector<FamilyCase> out;
  out.push_back({"grid6x7", gen::grid(6, 7)});
  {
    Rng rng(1);
    out.push_back({"gnm", gen::connected_gnm(60, 130, rng)});
  }
  {
    Rng rng(2);
    out.push_back({"weighted-road", gen::road_like(6, 6, 0.25, 9, rng)});
  }
  {
    Rng rng(3);
    out.push_back({"disconnected", gen::gnm(50, 45, rng)});
  }
  {
    Rng rng(4);
    out.push_back({"scale-free", gen::barabasi_albert(60, 2, rng)});
  }
  return out;
}

class ConsistencyMatrix : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ConsistencyMatrix, AllExactMethodsAgree) {
  const FamilyCase fc = families()[GetParam()];
  const Graph& g = fc.graph;
  const auto n = static_cast<Vertex>(g.num_vertices());
  const DistanceMatrix truth = DistanceMatrix::compute(g);

  // Oracles.
  std::vector<std::unique_ptr<DistanceOracle>> oracles;
  oracles.push_back(std::make_unique<ApspOracle>(g));
  oracles.push_back(std::make_unique<SsspOracle>(g));
  oracles.push_back(std::make_unique<BidirectionalOracle>(g));
  oracles.push_back(std::make_unique<FlatHubLabelOracle>(pruned_landmark_labeling(g)));
  oracles.push_back(std::make_unique<ContractionHierarchy>(g));
  oracles.push_back(std::make_unique<ArcFlagsOracle>(g, 5));
  oracles.push_back(std::make_unique<AltOracle>(g, farthest_landmarks(g, 4)));

  // Labelings queried directly.
  std::vector<HubLabeling> labelings;
  labelings.push_back(pruned_landmark_labeling(g, VertexOrder::kRandom, 9));
  labelings.push_back(bfs_separator_labeling(g));
  {
    Rng rng(5);
    labelings.push_back(random_distant_cover(g, truth, 3, rng));
  }

  // Bit-level schemes.
  const HubDistanceLabeling scheme(&pll_natural);
  const EncodedLabels encoded = scheme.encode(g);

  Rng pick(6);
  for (int trial = 0; trial < 150; ++trial) {
    const auto u = static_cast<Vertex>(pick.next_below(n));
    const auto v = static_cast<Vertex>(pick.next_below(n));
    const Dist expected = truth.at(u, v);
    for (const auto& oracle : oracles) {
      ASSERT_EQ(oracle->distance(u, v), expected)
          << fc.name << " " << oracle->name() << " " << u << "-" << v;
    }
    for (const auto& labeling : labelings) {
      ASSERT_EQ(labeling.query(u, v), expected) << fc.name << " labeling " << u << "-" << v;
    }
    ASSERT_EQ(scheme.decode(encoded.labels[u], encoded.labels[v]), expected)
        << fc.name << " bit-scheme " << u << "-" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ConsistencyMatrix, ::testing::Values(0, 1, 2, 3, 4));

TEST(Consistency, QueriesAreSymmetric) {
  Rng rng(7);
  const Graph g = gen::connected_gnm(50, 100, rng);
  const HubLabeling pll = pruned_landmark_labeling(g);
  const ContractionHierarchy ch(g);
  for (Vertex u = 0; u < 50; u += 3) {
    for (Vertex v = 0; v < 50; v += 7) {
      EXPECT_EQ(pll.query(u, v), pll.query(v, u));
      EXPECT_EQ(ch.distance(u, v), ch.distance(v, u));
    }
  }
}

TEST(Consistency, TruthMatrixTriangleInequality) {
  Rng rng(8);
  Graph g = gen::connected_gnm(40, 90, rng);
  g = gen::randomize_weights(g, 9, rng);
  const DistanceMatrix m = DistanceMatrix::compute(g);
  for (Vertex u = 0; u < 40; ++u) {
    for (Vertex v = 0; v < 40; ++v) {
      for (Vertex w = 0; w < 40; w += 5) {
        if (m.at(u, w) != kInfDist && m.at(w, v) != kInfDist) {
          EXPECT_LE(m.at(u, v), m.at(u, w) + m.at(w, v));
        }
      }
    }
  }
}

TEST(Consistency, MonotoneClosureIsIdempotent) {
  Rng rng(9);
  const Graph g = gen::connected_gnm(30, 60, rng);
  const HubLabeling pll = pruned_landmark_labeling(g);
  const HubLabeling once = monotone_closure(g, pll);
  const HubLabeling twice = monotone_closure(g, once);
  // A second closure may pick different tree paths, but sizes must not
  // change if the first result was already ancestor-closed w.r.t. the
  // same deterministic trees.
  EXPECT_EQ(once.total_hubs(), twice.total_hubs());
}

}  // namespace
}  // namespace hublab
