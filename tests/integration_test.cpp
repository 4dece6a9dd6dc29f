#include <gtest/gtest.h>

#include <memory>

#include "algo/distance_matrix.hpp"
#include "algo/shortest_paths.hpp"
#include "graph/generators.hpp"
#include "graph/transforms.hpp"
#include "hub/constructions.hpp"
#include "hub/pll.hpp"
#include "hub/upperbound.hpp"
#include "labeling/distance_labeling.hpp"
#include "lowerbound/certify.hpp"
#include "lowerbound/gadget.hpp"
#include "oracle/oracle.hpp"
#include "rs/rs_graph.hpp"
#include "sumindex/sumindex.hpp"
#include "util/rng.hpp"

namespace hublab {
namespace {

HubLabeling pll_natural(const Graph& g) {
  return pruned_landmark_labeling(g, VertexOrder::kNatural);
}

/// End-to-end: road-like network -> PLL oracle -> agrees with Dijkstra.
TEST(Integration, RoadNetworkOracle) {
  Rng rng(1);
  const Graph g = gen::road_like(12, 12, 0.2, 9, rng);
  const FlatHubLabelOracle oracle(pruned_landmark_labeling(g));
  Rng pick(2);
  for (int i = 0; i < 50; ++i) {
    const auto u = static_cast<Vertex>(pick.next_below(g.num_vertices()));
    const auto v = static_cast<Vertex>(pick.next_below(g.num_vertices()));
    EXPECT_EQ(oracle.distance(u, v), bidirectional_distance(g, u, v));
  }
}

/// End-to-end lower-bound workflow: gadget -> PLL -> measured average
/// exceeds the certified counting bound (Theorem 2.1 (iii) on H).
TEST(Integration, GadgetCertifiedBoundRespected) {
  for (const lb::GadgetParams p : {lb::GadgetParams{2, 1}, lb::GadgetParams{2, 2},
                                   lb::GadgetParams{3, 1}}) {
    const lb::LayeredGadget h(p);
    const HubLabeling pll = pruned_landmark_labeling(h.graph());
    const auto truth = DistanceMatrix::compute(h.graph());
    EXPECT_FALSE(verify_labeling(h.graph(), pll, truth).has_value());
    const Dist hop_diam = diameter_exact(unweighted_copy(h.graph()));
    EXPECT_LE(hop_diam, p.hop_diameter_bound());
    const double bound =
        lb::certified_avg_hub_lower_bound(p.num_triplets(), p.num_h_vertices(), hop_diam);
    EXPECT_GE(pll.average_label_size(), bound);
  }
}

/// The Theorem 1.4 pipeline end to end on a sparse graph, compared to PLL.
TEST(Integration, SparsePipelineVsPll) {
  Rng rng(3);
  const Graph g = gen::connected_gnm(60, 180, rng);
  const auto truth = DistanceMatrix::compute(g);
  const HubLabeling ub = upper_bound_labeling_sparse(g, 3, rng);
  const HubLabeling pll = pruned_landmark_labeling(g);
  EXPECT_FALSE(verify_labeling(g, ub, truth).has_value());
  EXPECT_FALSE(verify_labeling(g, pll, truth).has_value());
  // Both exact; PLL is the practical yardstick and should not be worse.
  EXPECT_LE(pll.average_label_size(), ub.average_label_size() * 10 + 10);
}

/// Sum-Index protocol driven by the degree-3 gadget distance labels,
/// wired through the full stack (gadget -> PLL -> bit encoding -> referee).
TEST(Integration, SumIndexThroughDegree3Gadget) {
  const auto scheme = std::make_shared<HubDistanceLabeling>(&pll_natural, "pll");
  const si::GadgetProtocol protocol(lb::GadgetParams{2, 2}, scheme, /*use_degree3=*/false);
  const si::ProtocolStats stats = si::evaluate_protocol(protocol, 40, 9, 10);
  EXPECT_TRUE(stats.all_correct());
}

/// The monotone closure of any exact labeling of the gadget must pay for
/// all counting triplets (the heart of the Theorem 1.1 proof).
TEST(Integration, ClosureChargesAllTriplets) {
  const lb::GadgetParams p{2, 2};
  const lb::LayeredGadget h(p);
  const auto truth = DistanceMatrix::compute(h.graph());
  // Use two very different exact labelings.
  const HubLabeling pll = pruned_landmark_labeling(h.graph());
  Rng rng(4);
  DistantCoverStats unused;
  const HubLabeling rdc = random_distant_cover(h.graph(), truth, 4, rng, &unused);
  for (const HubLabeling* l : {&pll, &rdc}) {
    const lb::ClosureAudit audit = lb::audit_closure_bound(h.graph(), *l, p.num_triplets());
    EXPECT_TRUE(audit.ok());
  }
}

/// RS machinery feeding the hub upper bound story: the per-color matchings
/// extracted by the pipeline form valid induced matchings (Lemma 4.2), and
/// standalone RS graphs verify end to end.
TEST(Integration, RsGraphAndLemma42) {
  const rs::RsGraph rsg = rs::behrend_rs_graph(50);
  EXPECT_TRUE(is_valid_induced_partition(rsg.graph, rsg.partition));

  Rng rng(5);
  const Graph g = gen::random_regular(40, 3, rng);
  const auto truth = DistanceMatrix::compute(g);
  EXPECT_TRUE(verify_lemma_4_2(g, truth, 3, rng));
}

/// Degree reduction plus PLL: distances on the reduced graph projected back.
TEST(Integration, DegreeReductionPreservesPllAnswers) {
  Rng rng(6);
  const Graph g = gen::barabasi_albert(70, 3, rng);
  const DegreeReduction red = reduce_degree(g, 3);
  const HubLabeling pll_red = pruned_landmark_labeling(red.graph);
  const auto truth = DistanceMatrix::compute(g);
  for (Vertex u = 0; u < g.num_vertices(); u += 5) {
    for (Vertex v = 0; v < g.num_vertices(); v += 7) {
      EXPECT_EQ(pll_red.query(red.representative[u], red.representative[v]), truth.at(u, v));
    }
  }
}

/// The two halves of the paper meet: run the Theorem 4.1 upper-bound
/// pipeline on the Theorem 2.1 lower-bound instance (the degree-3 gadget).
/// It must still be exact -- and its size is forced up by the counting
/// bound like any other labeling.
TEST(Integration, UpperBoundPipelineOnLowerBoundGadget) {
  const lb::GadgetParams p{1, 1};
  const lb::LayeredGadget h(p);
  const lb::Degree3Gadget g3(h);
  const Graph& g = g3.graph();
  const auto truth = DistanceMatrix::compute(g);
  Rng rng(11);
  UpperBoundStats stats;
  const HubLabeling l = upper_bound_labeling(g, truth, 3, rng, &stats);
  EXPECT_FALSE(verify_labeling(g, l, truth).has_value());
  const double bound = lb::certified_bound_g(p, g.num_vertices());
  EXPECT_GE(l.average_label_size(), bound);
}

/// Degree reduction then Theorem 4.1 on a scale-free graph: the full
/// Theorem 1.4 statement on the paper's "hard case" of sparse graphs with
/// high-degree vertices.
TEST(Integration, Theorem14OnHeavyTails) {
  Rng rng(12);
  const Graph g = gen::barabasi_albert(80, 2, rng);
  EXPECT_GT(g.max_degree(), 8u);  // genuinely heavy-tailed
  const auto truth = DistanceMatrix::compute(g);
  const HubLabeling l = upper_bound_labeling_sparse(g, 3, rng);
  EXPECT_FALSE(verify_labeling(g, l, truth).has_value());
}

/// Full-stack size comparison mirroring the paper's framing: the gadget
/// forces large labels while a random sparse graph of the same size allows
/// much smaller ones.
TEST(Integration, GadgetIsHarderThanRandomSparse) {
  const lb::GadgetParams p{3, 2};
  const lb::LayeredGadget h(p);
  const HubLabeling gadget_pll = pruned_landmark_labeling(h.graph());

  Rng rng(7);
  const std::size_t n = h.graph().num_vertices();
  const Graph random_sparse = gen::connected_gnm(n, h.graph().num_edges(), rng);
  const HubLabeling random_pll = pruned_landmark_labeling(random_sparse);

  // The layered gadget is built to defeat hub labelings; PLL labels on it
  // should be clearly larger than on an unstructured graph of equal size.
  EXPECT_GT(gadget_pll.average_label_size(), random_pll.average_label_size());
}

}  // namespace
}  // namespace hublab
