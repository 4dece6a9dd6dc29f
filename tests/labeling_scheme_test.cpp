#include <gtest/gtest.h>

#include "algo/distance_matrix.hpp"
#include "graph/generators.hpp"
#include "hub/pll.hpp"
#include "labeling/distance_labeling.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hublab {
namespace {

HubLabeling pll_natural(const Graph& g) {
  return pruned_landmark_labeling(g, VertexOrder::kNatural);
}

void expect_scheme_exact(const DistanceLabelingScheme& scheme, const Graph& g) {
  const EncodedLabels labels = scheme.encode(g);
  ASSERT_EQ(labels.num_vertices(), g.num_vertices());
  const auto truth = DistanceMatrix::compute(g);
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(scheme.decode(labels.labels[u], labels.labels[v]), truth.at(u, v))
          << scheme.name() << " " << u << "-" << v;
    }
  }
}

TEST(HubScheme, ExactOnGrid) {
  const HubDistanceLabeling scheme(&pll_natural);
  expect_scheme_exact(scheme, gen::grid(4, 5));
}

TEST(HubScheme, ExactOnWeighted) {
  Rng rng(1);
  const HubDistanceLabeling scheme(&pll_natural);
  expect_scheme_exact(scheme, gen::road_like(4, 4, 0.2, 7, rng));
}

TEST(HubScheme, ExactOnDisconnected) {
  Rng rng(2);
  const HubDistanceLabeling scheme(&pll_natural);
  expect_scheme_exact(scheme, gen::gnm(30, 25, rng));
}

TEST(HubScheme, NameAndDeterminism) {
  const HubDistanceLabeling scheme(&pll_natural, "pll-natural");
  EXPECT_EQ(scheme.name(), "pll-natural");
  const Graph g = gen::grid(3, 3);
  const EncodedLabels a = scheme.encode(g);
  const EncodedLabels b = scheme.encode(g);
  for (Vertex v = 0; v < 9; ++v) EXPECT_EQ(a.labels[v], b.labels[v]);
}

TEST(HubScheme, EncodeExistingLabelingMatchesQueries) {
  Rng rng(3);
  const Graph g = gen::connected_gnm(40, 80, rng);
  const HubLabeling pll = pruned_landmark_labeling(g);
  const EncodedLabels enc = HubDistanceLabeling::encode_labeling(pll);
  const HubDistanceLabeling scheme(&pll_natural);
  for (Vertex u = 0; u < 40; u += 3) {
    for (Vertex v = 0; v < 40; v += 5) {
      EXPECT_EQ(scheme.decode(enc.labels[u], enc.labels[v]), pll.query(u, v));
    }
  }
}

TEST(HubScheme, BitSizeMatchesEntryCodes) {
  // One label with known entries (vertices 1-4 only make hub 4 a vertex):
  // its size must equal the sum of the gamma code lengths.
  const HubLabeling l({{{4, 7}}, {}, {}, {}, {}});
  const EncodedLabels enc = HubDistanceLabeling::encode_labeling(l);
  const std::size_t expected = 2                          // codec tag
                               + gamma_code_length(1 + 1)  // count 1 -> gamma0
                               + gamma_code_length(5)      // hub gap 4+1
                               + gamma_code_length(8);     // dist 7 -> gamma0
  EXPECT_EQ(enc.labels[0].size_bits(), expected);
}

TEST(HubScheme, MalformedLabelThrows) {
  const HubDistanceLabeling scheme(&pll_natural);
  BitWriter w;
  w.put_bits(0, 2);    // gamma codec tag
  w.put_gamma0(1000);  // claims 1000 entries, then nothing
  const BitString bogus = w.take();
  BitWriter w2;
  w2.put_bits(0, 2);
  w2.put_gamma0(0);
  const BitString empty_label = w2.take();
  EXPECT_THROW((void)scheme.decode(bogus, empty_label), ParseError);
}

TEST(HubScheme, BadCodecTagThrows) {
  const HubDistanceLabeling scheme(&pll_natural);
  BitWriter w;
  w.put_bits(3, 2);  // reserved codec tag
  w.put_gamma0(0);
  const BitString bad = w.take();
  EXPECT_THROW((void)scheme.decode(bad, bad), ParseError);
}

TEST(HubScheme, EmptyLabelsDecodeToInfinity) {
  const HubDistanceLabeling scheme(&pll_natural);
  BitWriter w;
  w.put_bits(0, 2);
  w.put_gamma0(0);
  const BitString a = w.take();
  BitWriter w2;
  w2.put_bits(0, 2);
  w2.put_gamma0(0);
  const BitString b = w2.take();
  EXPECT_EQ(scheme.decode(a, b), kInfDist);
}

class CodecSweep : public ::testing::TestWithParam<DistCodec> {};

TEST_P(CodecSweep, RoundTripsOnWeightedGraph) {
  Rng rng(9);
  Graph g = gen::connected_gnm(40, 80, rng);
  g = gen::randomize_weights(g, 1000, rng);
  const HubLabeling pll = pruned_landmark_labeling(g);
  const EncodedLabels enc = HubDistanceLabeling::encode_labeling(pll, GetParam());
  const HubDistanceLabeling scheme(&pll_natural);
  for (Vertex u = 0; u < 40; u += 3) {
    for (Vertex v = 0; v < 40; v += 2) {
      EXPECT_EQ(scheme.decode(enc.labels[u], enc.labels[v]), pll.query(u, v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, CodecSweep,
                         ::testing::Values(DistCodec::kGamma, DistCodec::kDelta,
                                           DistCodec::kFixed32));

TEST(Codecs, DeltaWinsOnLargeDistances) {
  // The weighted gadget has distances ~ 2lA; delta codes beat gamma there.
  const HubLabeling l({{{0, Dist{1} << 20}}});
  const auto gamma = HubDistanceLabeling::encode_labeling(l, DistCodec::kGamma);
  const auto delta = HubDistanceLabeling::encode_labeling(l, DistCodec::kDelta);
  EXPECT_LT(delta.total_bits(), gamma.total_bits());
}

TEST(Codecs, GammaWinsOnSmallDistances) {
  std::vector<std::vector<HubEntry>> rows(20);
  for (Vertex h = 0; h < 20; ++h) rows[0].push_back({h, h % 4});
  const HubLabeling l(std::move(rows));
  const auto gamma = HubDistanceLabeling::encode_labeling(l, DistCodec::kGamma);
  const auto fixed = HubDistanceLabeling::encode_labeling(l, DistCodec::kFixed32);
  EXPECT_LT(gamma.total_bits(), fixed.total_bits());
}

TEST(CorrectedApprox, ExactOnUnweightedGraphs) {
  const CorrectedApproxLabeling scheme(&pll_natural);
  expect_scheme_exact(scheme, gen::grid(4, 4));
  Rng rng(10);
  expect_scheme_exact(scheme, gen::connected_gnm(35, 70, rng));
}

TEST(CorrectedApprox, ExactOnDisconnected) {
  Rng rng(11);
  const CorrectedApproxLabeling scheme(&pll_natural);
  expect_scheme_exact(scheme, gen::gnm(30, 25, rng));
}

TEST(CorrectedApprox, BeatsFlatRowsOnBoundedDiameter) {
  // Flat rows pay ceil(log2 diam) per vertex; corrections pay 2.
  Rng rng(12);
  const Graph g = gen::barabasi_albert(120, 3, rng);  // tiny diameter, n cells
  const CorrectedApproxLabeling corrected(&pll_natural);
  const FlatDistanceLabeling flat;
  EXPECT_LT(corrected.encode(g).total_bits(), flat.encode(g).total_bits());
}

TEST(CorrectedApprox, HeaderMismatchThrows) {
  const CorrectedApproxLabeling scheme(&pll_natural);
  const EncodedLabels a = scheme.encode(gen::grid(3, 3));
  const EncodedLabels b = scheme.encode(gen::grid(4, 4));
  EXPECT_THROW((void)scheme.decode(a.labels[0], b.labels[0]), ParseError);
}

TEST(FlatScheme, ExactOnGrid) {
  const FlatDistanceLabeling scheme;
  expect_scheme_exact(scheme, gen::grid(4, 4));
}

TEST(FlatScheme, ExactOnWeightedAndDisconnected) {
  Rng rng(4);
  const FlatDistanceLabeling scheme;
  Graph g = gen::gnm(25, 30, rng);
  g = gen::randomize_weights(g, 9, rng);
  expect_scheme_exact(scheme, g);
}

TEST(FlatScheme, HeaderMismatchThrows) {
  const FlatDistanceLabeling scheme;
  const EncodedLabels a = scheme.encode(gen::grid(3, 3));
  const EncodedLabels b = scheme.encode(gen::grid(4, 4));
  EXPECT_THROW((void)scheme.decode(a.labels[0], b.labels[0]), ParseError);
}

TEST(FlatScheme, LabelSizeIsLinear) {
  const FlatDistanceLabeling scheme;
  const Graph g = gen::path(50);
  const EncodedLabels enc = scheme.encode(g);
  // Each label: header + 50 cells of ceil(log2(50)) = 6 bits.
  EXPECT_GE(enc.average_bits(), 300.0);
  EXPECT_LE(enc.average_bits(), 400.0);
}

TEST(Schemes, HubBeatsFlatOnStars) {
  // On a star PLL labels are tiny, flat labels are linear in n.
  const Graph g = gen::star(60);
  const HubDistanceLabeling hub(&pll_natural);
  const FlatDistanceLabeling flat;
  EXPECT_LT(hub.encode(g).total_bits(), flat.encode(g).total_bits());
}

TEST(EncodedLabels, Accounting) {
  EncodedLabels e;
  BitWriter w1;
  w1.put_bits(0, 10);
  e.labels.push_back(w1.take());
  BitWriter w2;
  w2.put_bits(0, 30);
  e.labels.push_back(w2.take());
  EXPECT_EQ(e.total_bits(), 40u);
  EXPECT_DOUBLE_EQ(e.average_bits(), 20.0);
  EXPECT_EQ(e.max_bits(), 30u);
}

}  // namespace
}  // namespace hublab
