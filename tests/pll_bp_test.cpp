#include <gtest/gtest.h>

#include <vector>

#include "algo/distance_matrix.hpp"
#include "graph/generators.hpp"
#include "hub/pll.hpp"
#include "util/rng.hpp"

/// \file pll_bp_test.cpp
/// BitParallelRoots, the standalone bit-parallel root tables: exact rows,
/// an upper-bound estimate exact at the roots, the inactive corners, and
/// tables invariant in the thread count.  (The PLL builder's labels are
/// checked against their definition in tests/pll_test.cpp.)

namespace hublab {
namespace {

TEST(PllBp, EstimateIsUpperBoundAndExactAtRoots) {
  Rng rng(11);
  const Graph g = gen::connected_gnm(90, 200, rng);
  const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kDegreeDescending, 0);
  const BitParallelRoots bp(g, order, 32, 1);
  ASSERT_TRUE(bp.active());
  const auto truth = DistanceMatrix::compute(g);
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_GE(bp.estimate(u, v), truth.at(u, v)) << "u=" << u << " v=" << v;
    }
  }
  for (std::size_t i = 0; i < bp.num_roots(); ++i) {
    const Vertex root = order[i];
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(bp.estimate(root, v, i), truth.at(root, v)) << "root=" << root;
    }
  }
}

TEST(PllBp, TableRowsMatchBfsDistances) {
  const Graph g = gen::grid(6, 7);
  const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kNatural, 0);
  const BitParallelRoots bp(g, order, 8, 1);
  ASSERT_EQ(bp.num_roots(), 8u);
  const auto truth = DistanceMatrix::compute(g);
  for (std::size_t i = 0; i < bp.num_roots(); ++i) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(bp.dist_row(v)[i], truth.at(order[i], v));
    }
  }
}

TEST(PllBp, ZeroRootsAndTinyGraphs) {
  const Graph path5 = gen::path(5);
  EXPECT_FALSE(
      BitParallelRoots(path5, make_vertex_order(path5, VertexOrder::kNatural, 0), 0, 1).active());
  // Weighted graphs get no tables either.
  Rng rng(5);
  const Graph road = gen::road_like(8, 8, 0.15, 9, rng);
  ASSERT_TRUE(road.is_weighted());
  EXPECT_FALSE(
      BitParallelRoots(road, make_vertex_order(road, VertexOrder::kDegreeDescending, 0), 64, 1)
          .active());
  // n = 1 and n = 2: the root count clamps to n and the rows stay exact.
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}}) {
    const Graph g = gen::path(n);
    const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kNatural, 0);
    const BitParallelRoots bp(g, order, 64, 1);
    ASSERT_EQ(bp.num_roots(), n);
    for (std::size_t i = 0; i < n; ++i) {
      for (Vertex v = 0; v < n; ++v) {
        EXPECT_EQ(bp.dist_row(v)[i], v > order[i] ? v - order[i] : order[i] - v);
        EXPECT_EQ(bp.estimate(order[i], v, i), bp.dist_row(v)[i]);
      }
    }
  }
}

TEST(ParallelDeterminism, PllBpTablesThreadCountInvariant) {
  Rng rng(23);
  const Graph g = gen::barabasi_albert(180, 3, rng);
  const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kDegreeDescending, 0);
  const BitParallelRoots one(g, order, 48, 1);
  const BitParallelRoots four(g, order, 48, 4);
  ASSERT_EQ(one.num_roots(), four.num_roots());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (std::size_t i = 0; i < one.num_roots(); ++i) {
      ASSERT_EQ(one.dist_row(v)[i], four.dist_row(v)[i]);
      ASSERT_EQ(one.sm1_row(v)[i], four.sm1_row(v)[i]);
      ASSERT_EQ(one.s0_row(v)[i], four.s0_row(v)[i]);
    }
  }
}

}  // namespace
}  // namespace hublab
