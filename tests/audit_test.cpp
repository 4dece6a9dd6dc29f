// Randomized deep-invariant self-check (see util/audit.hpp and
// docs/correctness.md).  Every structure the certification pipeline relies
// on is audited from scratch on randomized instances, and each audit is
// shown to actually *catch* planted corruption.  Running this suite under
// the asan-ubsan preset exercises the deep read paths of every module.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "hub/labeling.hpp"
#include "hub/pll.hpp"
#include "lowerbound/gadget.hpp"
#include "rs/rs_graph.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"

namespace hublab {
namespace {

TEST(AuditReport, StartsClean) {
  AuditReport report;
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.num_issues(), 0u);
  EXPECT_EQ(report.to_string(), "audit: ok\n");
}

TEST(AuditReport, RecordsAndFormatsIssues) {
  AuditReport report;
  report.fail("graph", "offsets not monotone at vertex 3: 7 > 5");
  EXPECT_FALSE(report.ok());
  ASSERT_EQ(report.issues().size(), 1u);
  EXPECT_EQ(report.issues()[0].context, "graph");
  EXPECT_NE(report.to_string().find("offsets not monotone"), std::string::npos);
}

TEST(AuditReport, RequireReturnsConditionAndRecordsFailures) {
  AuditReport report;
  EXPECT_TRUE(report.require(true, "ctx", "never recorded"));
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.require(false, "ctx", "recorded"));
  EXPECT_EQ(report.num_issues(), 1u);
}

TEST(AuditReport, CapsRecordedIssuesButCountsAll) {
  AuditReport report;
  for (int i = 0; i < 200; ++i) report.fail("ctx", "issue " + std::to_string(i));
  EXPECT_EQ(report.num_issues(), 200u);
  EXPECT_EQ(report.issues().size(), AuditReport::kMaxRecorded);
  EXPECT_NE(report.to_string().find("and 136 more"), std::string::npos);
}

TEST(AuditReport, MergeCombinesCounts) {
  AuditReport a;
  AuditReport b;
  a.fail("a", "x");
  b.fail("b", "y");
  b.fail("b", "z");
  a.merge(b);
  EXPECT_EQ(a.num_issues(), 3u);
  EXPECT_EQ(a.issues().size(), 3u);
}

// ---------------------------------------------------------------------------
// Graph CSR audit
// ---------------------------------------------------------------------------

TEST(GraphAudit, EmptyGraphIsClean) {
  const Graph g;
  EXPECT_TRUE(g.audit().ok());
}

TEST(GraphAudit, RandomizedGraphsAreClean) {
  Rng rng(0xA0D17ULL);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 2 + rng.next_below(60);
    const std::size_t max_m = n * (n - 1) / 2;
    const std::size_t m = rng.next_below(max_m + 1);
    const Graph g = gen::gnm(n, m, rng);
    const AuditReport report = g.audit();
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(GraphAudit, WeightedAndStructuredGraphsAreClean) {
  Rng rng(7);
  const Graph weighted = gen::randomize_weights(gen::grid(5, 7), 50, rng);
  EXPECT_TRUE(weighted.audit().ok()) << weighted.audit().to_string();
  EXPECT_TRUE(gen::complete(9).audit().ok());
  EXPECT_TRUE(gen::star(12).audit().ok());
  const Graph ba = gen::barabasi_albert(80, 3, rng);
  EXPECT_TRUE(ba.audit().ok()) << ba.audit().to_string();
}

TEST(GraphAudit, BuilderCollapsesParallelEdgesToAuditCleanForm) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 5);
  b.add_edge(1, 0, 3);  // parallel, min weight 3 must win on both sides
  b.add_edge(2, 3);
  const Graph g = b.build();
  const AuditReport report = g.audit();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(g.edge_weight(0, 1), 3u);
}

// ---------------------------------------------------------------------------
// Hub labeling audit
// ---------------------------------------------------------------------------

TEST(LabelingAudit, PllLabelingsAuditCleanOnRandomGraphs) {
  Rng rng(0x1AB5EEDULL);
  for (int round = 0; round < 8; ++round) {
    const std::size_t n = 8 + rng.next_below(40);
    const Graph g = gen::connected_gnm(n, n + rng.next_below(2 * n), rng);
    const HubLabeling labels = pruned_landmark_labeling(g);
    const AuditReport report = labels.audit(g, 16, rng());
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

TEST(LabelingAudit, CatchesWrongDistanceEntry) {
  const Graph g = gen::path(5);
  // All-pairs-through-vertex-0 cover, but one distance is off by one.
  std::vector<std::vector<HubEntry>> rows(5);
  for (Vertex v = 0; v < 5; ++v) rows[v].push_back({0, v == 3 ? 4 : Dist{v}});
  const HubLabeling labels(std::move(rows));
  const AuditReport report = labels.audit(g, 64, 42);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("true distance"), std::string::npos);
}

TEST(LabelingAudit, CatchesUncoveredPair) {
  const Graph g = gen::path(4);
  std::vector<std::vector<HubEntry>> rows(4);
  for (Vertex v = 0; v < 4; ++v) rows[v].push_back({v, 0});  // self-hubs only
  const HubLabeling labels(std::move(rows));
  const AuditReport report = labels.audit(g, 64, 7);
  EXPECT_FALSE(report.ok());
  EXPECT_NE(report.to_string().find("uncovered"), std::string::npos);
}

TEST(LabelingAudit, UnsortedDuplicateRowsAuditCleanOnceConstructed) {
  // Exact rows for the path 0-1-2, each out of hub order and with a
  // duplicate hub at a larger distance: the rows constructor sorts every
  // row and keeps each hub's minimum, so the result passes both the
  // structural pass and the sampled cover check.
  const Graph g = gen::path(3);
  const HubLabeling labels({{{2, 2}, {0, 0}, {1, 1}, {2, 7}},
                            {{2, 1}, {0, 5}, {1, 0}, {0, 1}},
                            {{1, 4}, {2, 0}, {0, 2}, {1, 1}}});
  const AuditReport report = labels.audit(g, 16, 1);
  EXPECT_TRUE(report.ok()) << report.to_string();
  for (Vertex v = 0; v < 3; ++v) {
    ASSERT_EQ(labels.label_size(v), 3u);
    for (Vertex h = 0; h < 3; ++h) {
      EXPECT_EQ(labels.hubs(v)[h], h);
      EXPECT_EQ(labels.dists(v)[h], v > h ? v - h : h - v);
    }
  }
}

TEST(LabelingAudit, CatchesBadSelfDistance) {
  const Graph g = gen::path(3);
  const HubLabeling labels({{{0, 0}}, {{1, 2}} /* self-hub with nonzero distance */, {}});
  const AuditReport report = labels.audit(g, 0, 1);
  EXPECT_EQ(report.num_issues(), 1u) << report.to_string();
}

// A hub id beyond n cannot be built at all (S(v) is a subset of V), so the
// audit's own range check is a second line of defence.  The suite name
// keeps these forks out of the ThreadSanitizer stage's test selection.
TEST(LabelingDeathTest, OutOfRangeHubAbortsConstruction) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  using Rows = std::vector<std::vector<HubEntry>>;
  // The batched kernel's stamp table has n slots, so hub 7 of a 3-vertex
  // labeling would be written past it.
  EXPECT_DEATH(HubLabeling(Rows{{{7, 1}}, {{1, 0}}, {}}), "bounds check failed");
  EXPECT_DEATH(HubLabeling(Rows{{}, {{0, 1}, {2, 1}}}), "bounds check failed");
  EXPECT_DEATH(HubLabeling(Rows{{{kInvalidVertex, 0}}}), "bounds check failed");
  EXPECT_DEATH(HubLabeling(2, 1, [](Vertex v, std::vector<HubEntry>& row) {
                 if (v == 1) row.push_back({2, 0});
               }),
               "bounds check failed");
}

TEST(LabelingAudit, SizeMismatchIsReported) {
  const Graph g = gen::path(4);
  const HubLabeling labels(std::vector<std::vector<HubEntry>>(3));
  EXPECT_FALSE(labels.audit(g, 0, 1).ok());
}

// ---------------------------------------------------------------------------
// H_{b,l} gadget audit
// ---------------------------------------------------------------------------

TEST(GadgetAudit, SmallGadgetsAuditCleanIncludingLemma22Samples) {
  constexpr std::pair<std::uint32_t, std::uint32_t> kCases[] = {{1, 1}, {1, 2}, {2, 1}, {2, 2}};
  for (const auto& [b, ell] : kCases) {
    const lb::LayeredGadget h(lb::GadgetParams{b, ell});
    const AuditReport report = h.audit(4, 0x9ADU + b + ell);
    EXPECT_TRUE(report.ok()) << "b=" << b << " ell=" << ell << "\n" << report.to_string();
  }
}

TEST(GadgetAudit, MaskedGadgetAuditsClean) {
  const lb::GadgetParams params{2, 1};
  std::vector<bool> mask(params.layer_size(), false);
  mask[1] = mask[2] = true;
  const lb::LayeredGadget h(params, &mask);
  const AuditReport report = h.audit(/*num_samples=*/4, 11);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(GadgetAudit, UnderlyingGraphAlsoAuditsClean) {
  const lb::LayeredGadget h(lb::GadgetParams{2, 2});
  const AuditReport report = h.graph().audit();
  EXPECT_TRUE(report.ok()) << report.to_string();
}

// ---------------------------------------------------------------------------
// RS graph audit
// ---------------------------------------------------------------------------

TEST(RsAudit, BehrendRsGraphsAuditClean) {
  for (const std::uint64_t M : {5ULL, 17ULL, 40ULL, 101ULL}) {
    const rs::RsGraph graph = rs::behrend_rs_graph(M);
    const AuditReport report = rs::audit_rs_graph(graph);
    EXPECT_TRUE(report.ok()) << "M=" << M << "\n" << report.to_string();
    EXPECT_TRUE(graph.graph.audit().ok());
  }
}

TEST(RsAudit, CatchesCorruptedMetadata) {
  rs::RsGraph graph = rs::behrend_rs_graph(20);
  graph.M += 1;  // vertex count no longer matches 3M
  EXPECT_FALSE(rs::audit_rs_graph(graph).ok());
}

TEST(RsAudit, CatchesBrokenPartition) {
  rs::RsGraph graph = rs::behrend_rs_graph(20);
  ASSERT_FALSE(graph.partition.matchings.empty());
  ASSERT_FALSE(graph.partition.matchings[0].empty());
  // Drop one edge from its class: the partition no longer covers E(g).
  graph.partition.matchings[0].pop_back();
  const AuditReport report = rs::audit_rs_graph(graph);
  EXPECT_FALSE(report.ok());
}

// ---------------------------------------------------------------------------
// Randomized cross-module sweep: one audit pass over everything the
// certification pipeline touches, with fresh randomness per run.
// ---------------------------------------------------------------------------

TEST(AuditSweep, RandomizedEndToEnd) {
  Rng rng(0xC0FFEEULL);
  AuditReport combined;
  for (int round = 0; round < 5; ++round) {
    const std::size_t n = 10 + rng.next_below(30);
    const Graph g = gen::connected_gnm(n, 2 * n, rng);
    combined.merge(g.audit());
    const HubLabeling labels = pruned_landmark_labeling(g, VertexOrder::kRandom, rng());
    combined.merge(labels.audit(g, 8, rng()));
  }
  const lb::LayeredGadget h(lb::GadgetParams{2, 1});
  combined.merge(h.audit(2, rng()));
  combined.merge(rs::audit_rs_graph(rs::behrend_rs_graph(30)));
  EXPECT_TRUE(combined.ok()) << combined.to_string();
}

}  // namespace
}  // namespace hublab
