#include <gtest/gtest.h>

#include <sstream>

#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "util/error.hpp"

namespace hublab {
namespace {

Graph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(0, 2);
  return b.build();
}

TEST(GraphBuilder, EmptyGraph) {
  GraphBuilder b(0);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilder, IsolatedVertices) {
  GraphBuilder b(5);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(3), 0u);
}

TEST(GraphBuilder, BasicTriangle) {
  const Graph g = triangle();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_arcs(), 6u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.is_weighted());
}

TEST(GraphBuilder, SelfLoopRejected) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), InvalidArgument);
}

TEST(GraphBuilder, OutOfRangeRejected) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), InvalidArgument);
  EXPECT_THROW(b.add_edge(7, 0), InvalidArgument);
}

TEST(GraphBuilder, ParallelEdgesCollapseToMinWeight) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 7);
  b.add_edge(1, 0, 3);
  b.add_edge(0, 1, 9);
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge_weight(0, 1), 3u);
  EXPECT_EQ(g.edge_weight(1, 0), 3u);
}

TEST(GraphBuilder, AdjacencySorted) {
  GraphBuilder b(5);
  b.add_edge(2, 4);
  b.add_edge(2, 0);
  b.add_edge(2, 3);
  b.add_edge(2, 1);
  const Graph g = b.build();
  const auto arcs = g.arcs(2);
  ASSERT_EQ(arcs.size(), 4u);
  for (std::size_t i = 0; i + 1 < arcs.size(); ++i) EXPECT_LT(arcs[i].to, arcs[i + 1].to);
}

TEST(GraphBuilder, AddVertexExtends) {
  GraphBuilder b(1);
  const Vertex v = b.add_vertex();
  EXPECT_EQ(v, 1u);
  b.add_edge(0, v, 5);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_TRUE(g.is_weighted());
  EXPECT_EQ(g.max_weight(), 5u);
}

TEST(Graph, EdgeWeightAbsent) {
  const Graph g = triangle();
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const Graph h = b.build();
  EXPECT_EQ(h.edge_weight(0, 2), kInfDist);
  EXPECT_EQ(g.edge_weight(0, 1), 1u);
}

TEST(Graph, WeightZeroCountsAsWeighted) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 0);
  const Graph g = b.build();
  EXPECT_TRUE(g.is_weighted());
  EXPECT_EQ(g.max_weight(), 1u);  // max over {0} clamps at the documented floor of 1
}

TEST(Graph, DegreeStatistics) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(0, 2);
  b.add_edge(0, 3);
  const Graph g = b.build();
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.average_degree(), 6.0 / 4.0);
}

TEST(GraphIo, EdgeListRoundTrip) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 2, 1);
  b.add_edge(2, 3, 9);
  const Graph g = b.build();
  std::stringstream ss;
  io::write_edge_list(g, ss);
  const Graph h = io::read_edge_list(ss);
  EXPECT_EQ(h.num_vertices(), 4u);
  EXPECT_EQ(h.num_edges(), 3u);
  EXPECT_EQ(h.edge_weight(2, 3), 9u);
  EXPECT_EQ(h.edge_weight(1, 2), 1u);
}

TEST(GraphIo, EdgeListDefaultWeight) {
  std::stringstream ss("3 2\n0 1\n1 2\n");
  const Graph g = io::read_edge_list(ss);
  EXPECT_FALSE(g.is_weighted());
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphIo, EdgeListCommentsSkipped) {
  std::stringstream ss("3 1\n# hello\n0 2 4\n");
  const Graph g = io::read_edge_list(ss);
  EXPECT_EQ(g.edge_weight(0, 2), 4u);
}

TEST(GraphIo, EdgeListMissingHeaderThrows) {
  std::stringstream ss("garbage");
  EXPECT_THROW(io::read_edge_list(ss), ParseError);
}

TEST(GraphIo, EdgeListTruncatedThrows) {
  std::stringstream ss("3 5\n0 1\n");
  EXPECT_THROW(io::read_edge_list(ss), ParseError);
}

TEST(GraphIo, EdgeListVertexOutOfRangeThrows) {
  std::stringstream ss("2 1\n0 5\n");
  EXPECT_THROW(io::read_edge_list(ss), ParseError);
}

TEST(GraphIo, EdgeListVertexCountPastVertexRangeThrows) {
  // 2^32 + 1 vertices: ids up to 2^32 would pass `u < n` and truncate.
  std::stringstream ss("4294967297 1\n0 1\n");
  EXPECT_THROW(io::read_edge_list(ss), ParseError);
}

TEST(GraphIo, DimacsRoundTrip) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 4);
  b.add_edge(1, 2, 2);
  const Graph g = b.build();
  std::stringstream ss;
  io::write_dimacs(g, ss);
  const Graph h = io::read_dimacs(ss);
  EXPECT_EQ(h.num_vertices(), 3u);
  EXPECT_EQ(h.num_edges(), 2u);
  EXPECT_EQ(h.edge_weight(0, 1), 4u);
}

TEST(GraphIo, DimacsArcBeforeHeaderThrows) {
  std::stringstream ss("a 1 2 3\n");
  EXPECT_THROW(io::read_dimacs(ss), ParseError);
}

TEST(GraphIo, DimacsVertexCountPastVertexRangeThrows) {
  std::stringstream ss("p sp 4294967297 1\na 1 2 1\n");
  EXPECT_THROW(io::read_dimacs(ss), ParseError);
}

TEST(GraphIo, DimacsUnknownLineThrows) {
  std::stringstream ss("p sp 2 1\nx nope\n");
  EXPECT_THROW(io::read_dimacs(ss), ParseError);
}

TEST(GraphIo, DotContainsEdgesAndWeights) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 12);
  const Graph g = b.build();
  std::stringstream ss;
  io::write_dot(g, ss, "fig1");
  const std::string s = ss.str();
  EXPECT_NE(s.find("graph fig1"), std::string::npos);
  EXPECT_NE(s.find("0 -- 1"), std::string::npos);
  EXPECT_NE(s.find("12"), std::string::npos);
}

TEST(GraphIo, FileHelpersFailGracefully) {
  EXPECT_THROW(io::load_edge_list("/nonexistent/path/file.txt"), Error);
}

}  // namespace
}  // namespace hublab
