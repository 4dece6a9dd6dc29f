#include <gtest/gtest.h>

#include "algo/distance_matrix.hpp"
#include "algo/shortest_paths.hpp"
#include "graph/generators.hpp"
#include "hub/constructions.hpp"
#include "hub/labeling.hpp"
#include "hub/pll.hpp"
#include "hub/simd_kernel.hpp"
#include "util/audit.hpp"
#include "util/rng.hpp"

namespace hublab {
namespace {

/// Every vertex is its own only hub: exact for s = t, uncovered otherwise.
HubLabeling self_hubs_only(Vertex n) {
  std::vector<std::vector<HubEntry>> rows(n);
  for (Vertex v = 0; v < n; ++v) rows[v].push_back({v, 0});
  return HubLabeling(std::move(rows));
}

TEST(HubLabeling, EmptyQueryIsInfinite) {
  const HubLabeling l(std::vector<std::vector<HubEntry>>(2));
  EXPECT_EQ(l.query(0, 1), kInfDist);
  EXPECT_EQ(l.query_with_hub(0, 1).meeting_hub, kInvalidVertex);
}

TEST(HubLabeling, HandBuiltQuery) {
  // Path 0-1-2, hub = vertex 1 for everyone.
  const HubLabeling l({{{1, 1}}, {{1, 0}}, {{1, 1}}});
  EXPECT_EQ(l.query(0, 2), 2u);
  EXPECT_EQ(l.query(0, 1), 1u);
  EXPECT_EQ(l.query_with_hub(0, 2).meeting_hub, 1u);
}

TEST(HubLabeling, PicksMinimumOverCommonHubs) {
  const HubLabeling l({{{0, 0}, {1, 9}}, {{0, 4}, {1, 0}}});
  EXPECT_EQ(l.query(0, 1), 4u);
  EXPECT_EQ(l.query_with_hub(0, 1).meeting_hub, 0u);
}

TEST(HubLabeling, RowsConstructorKeepsTheMinimumPerDuplicateHub) {
  // Duplicates in any position: the row keeps one entry per hub, at its
  // minimum distance, and queries see that minimum.  Vertices 2-5 have
  // empty labels, so hubs 2 and 5 are vertices.
  std::vector<std::vector<HubEntry>> rows(6);
  rows[0] = {{5, 10}, {2, 4}, {5, 3}, {2, 6}, {5, 7}};
  rows[1] = {{5, 0}, {2, 1}, {2, 0}};
  const HubLabeling l(std::move(rows));
  ASSERT_EQ(l.label_size(0), 2u);
  EXPECT_EQ(l.hubs(0)[0], 2u);
  EXPECT_EQ(l.dists(0)[0], 4u);
  EXPECT_EQ(l.hubs(0)[1], 5u);
  EXPECT_EQ(l.dists(0)[1], 3u);
  ASSERT_EQ(l.label_size(1), 2u);
  EXPECT_EQ(l.dists(1)[0], 0u);
  EXPECT_EQ(l.query(0, 1), 3u);
  EXPECT_EQ(l.query_with_hub(0, 1).meeting_hub, 5u);
}

TEST(HubLabeling, RowsConstructorSortsEachRowByHub) {
  std::vector<std::vector<HubEntry>> rows(10);
  rows[0] = {{9, 1}, {2, 1}, {5, 1}};
  rows[2] = {{7, 2}, {3, 0}};
  const HubLabeling l(std::move(rows));
  const std::vector<Vertex> row0(l.hubs(0).begin(), l.hubs(0).end());
  EXPECT_EQ(row0, (std::vector<Vertex>{2, 5, 9}));
  EXPECT_EQ(l.label_size(1), 0u);
  const std::vector<Vertex> row2(l.hubs(2).begin(), l.hubs(2).end());
  EXPECT_EQ(row2, (std::vector<Vertex>{3, 7}));
  const std::vector<Dist> dist2(l.dists(2).begin(), l.dists(2).end());
  EXPECT_EQ(dist2, (std::vector<Dist>{0, 2}));
  EXPECT_EQ(l.total_hubs(), 5u);
}

TEST(HubLabeling, HasHub) {
  const HubLabeling l({{{3, 1}}, {}, {}, {}});
  EXPECT_TRUE(l.has_hub(0, 3));
  EXPECT_FALSE(l.has_hub(0, 2));
  EXPECT_FALSE(l.has_hub(1, 3));
}

TEST(HubLabeling, Statistics) {
  const HubLabeling l({{{0, 0}}, {{0, 1}, {1, 0}}, {}});
  EXPECT_EQ(l.total_hubs(), 3u);
  EXPECT_DOUBLE_EQ(l.average_label_size(), 1.0);
  EXPECT_EQ(l.max_label_size(), 2u);
  // The rows constructor sizes the columns exactly: n + 1 offsets and one
  // hub and one distance per entry and per sentinel.
  EXPECT_EQ(l.memory_bytes(), 4 * sizeof(std::size_t) + 6 * (sizeof(Vertex) + l.dist_bytes()));
}

TEST(HubLabeling, WidensOnceForALateWideDistance) {
  // Only the last vertex holds the distance under test, so the column
  // starts narrow and, past kMaxNarrowDist, widens once after n - 1 rows.
  for (const Dist late : {Dist{0xFFFFFFFE}, Dist{0xFFFFFFFF}, Dist{1} << 40, kInfDist}) {
    SCOPED_TRACE("late distance " + std::to_string(late));
    const std::vector<std::vector<HubEntry>> rows = {
        {{0, 0}, {1, 5}}, {{1, 0}}, {{1, 7}, {2, 1}}, {{2, late}, {3, 0}}};
    const HubLabeling l(rows);
    const bool wide = late > HubLabeling::kMaxNarrowDist;
    EXPECT_EQ(l.dist_bytes(), wide ? 8u : 4u);
    // n + 1 offsets, and one hub and one distance per entry and sentinel.
    EXPECT_EQ(l.memory_bytes(), 5 * sizeof(std::size_t) + 11 * (sizeof(Vertex) + l.dist_bytes()));
    for (Vertex v = 0; v < rows.size(); ++v) {
      ASSERT_EQ(l.label_size(v), rows[v].size());
      for (std::size_t i = 0; i < rows[v].size(); ++i) {
        EXPECT_EQ(l.hubs(v)[i], rows[v][i].hub) << "v=" << v << " i=" << i;
        EXPECT_EQ(l.dists(v)[i], rows[v][i].dist) << "v=" << v << " i=" << i;
      }
    }
    std::vector<std::pair<Vertex, Vertex>> pairs;
    for (Vertex u = 0; u < rows.size(); ++u) {
      for (Vertex v = 0; v < rows.size(); ++v) {
        // The reference merge: the first common hub, in ascending order,
        // with the smallest sum.  Sums wrap in 64 bits on every path.
        HubQueryResult want;
        for (const HubEntry& a : rows[u]) {
          for (const HubEntry& b : rows[v]) {
            if (a.hub == b.hub && a.dist + b.dist < want.dist) want = {a.dist + b.dist, a.hub};
          }
        }
        const HubQueryResult got = l.query_with_hub(u, v);
        EXPECT_EQ(got.dist, want.dist) << "(" << u << "," << v << ")";
        EXPECT_EQ(got.meeting_hub, want.meeting_hub) << "(" << u << "," << v << ")";
        pairs.emplace_back(u, v);
      }
    }
    std::vector<HubQueryResult> out(pairs.size());
    for (const simd::Tier tier : simd::supported_tiers()) {
      l.query_batch_tier(pairs, out, tier);
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const HubQueryResult ref = l.query_with_hub(pairs[i].first, pairs[i].second);
        EXPECT_EQ(out[i].dist, ref.dist) << simd::tier_name(tier) << " pair#" << i;
        EXPECT_EQ(out[i].meeting_hub, ref.meeting_hub) << simd::tier_name(tier) << " pair#" << i;
      }
    }
  }
}

TEST(VerifyLabeling, AcceptsCorrectCover) {
  const Graph g = gen::grid(3, 3);
  const auto truth = DistanceMatrix::compute(g);
  const HubLabeling full = full_labeling(g, truth);
  EXPECT_FALSE(verify_labeling(g, full, truth).has_value());
}

TEST(VerifyLabeling, DetectsWrongDistance) {
  const Graph g = gen::path(3);
  const auto truth = DistanceMatrix::compute(g);
  // An undercutting wrong distance (true dist(0,2) is 2, stored 1).
  const HubLabeling bad({{{2, 1} /* true distance is 2 */, {0, 0}},
                         {{0, 1}, {1, 0}},
                         {{2, 0}, {1, 1}}});
  const auto defect = verify_labeling(g, bad, truth);
  ASSERT_TRUE(defect.has_value());
  EXPECT_EQ(defect->kind, LabelingDefect::Kind::kWrongDistance);
}

TEST(VerifyLabeling, DetectsUncoveredPair) {
  const Graph g = gen::path(3);
  const auto truth = DistanceMatrix::compute(g);
  const HubLabeling l = self_hubs_only(3);
  const auto defect = verify_labeling(g, l, truth);
  ASSERT_TRUE(defect.has_value());
  EXPECT_EQ(defect->kind, LabelingDefect::Kind::kUncoveredPair);
}

TEST(VerifyLabelingSampled, AcceptsCorrectCover) {
  Rng rng(1);
  const Graph g = gen::connected_gnm(60, 120, rng);
  const HubLabeling pll = pruned_landmark_labeling(g);
  EXPECT_FALSE(verify_labeling_sampled(g, pll, 200, 7).has_value());
}

TEST(VerifyLabelingSampled, CatchesPlantedDefect) {
  const Graph g = gen::path(10);
  const HubLabeling l = self_hubs_only(10);
  // With many samples the sampled verifier must find an uncovered pair.
  EXPECT_TRUE(verify_labeling_sampled(g, l, 500, 3).has_value());
}

TEST(MonotoneClosure, StillACover) {
  Rng rng(2);
  const Graph g = gen::connected_gnm(40, 80, rng);
  const auto truth = DistanceMatrix::compute(g);
  const HubLabeling pll = pruned_landmark_labeling(g);
  const HubLabeling closed = monotone_closure(g, pll);
  EXPECT_FALSE(verify_labeling(g, closed, truth).has_value());
}

TEST(MonotoneClosure, ContainsOriginalHubs) {
  Rng rng(3);
  const Graph g = gen::connected_gnm(30, 60, rng);
  const HubLabeling pll = pruned_landmark_labeling(g);
  const HubLabeling closed = monotone_closure(g, pll);
  for (Vertex v = 0; v < 30; ++v) {
    for (const Vertex hub : pll.hubs(v)) EXPECT_TRUE(closed.has_hub(v, hub));
  }
  EXPECT_GE(closed.total_hubs(), pll.total_hubs());
}

TEST(MonotoneClosure, BoundedByDiameterFactor) {
  const Graph g = gen::grid(5, 5);
  const HubLabeling pll = pruned_landmark_labeling(g);
  const HubLabeling closed = monotone_closure(g, pll);
  const Dist diam = diameter_exact(g);
  EXPECT_LE(closed.total_hubs(), (diam + 1) * pll.total_hubs() + g.num_vertices());
}

TEST(MonotoneClosure, ClosedUnderTreeAncestors) {
  // On a path with natural PLL order, the closure of any label must contain
  // every vertex between v and its furthest hub.
  const Graph g = gen::path(8);
  const HubLabeling pll = pruned_landmark_labeling(g, VertexOrder::kNatural);
  const HubLabeling closed = monotone_closure(g, pll);
  for (Vertex v = 0; v < 8; ++v) {
    for (const Vertex hub : closed.hubs(v)) {
      // Every vertex strictly between v and hub on the path is a hub too.
      const Vertex lo = std::min(v, hub);
      const Vertex hi = std::max(v, hub);
      for (Vertex x = lo; x <= hi; ++x) EXPECT_TRUE(closed.has_hub(v, x));
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism across thread counts: every parallel entry point must return
// bit-identical results for threads = 1 and threads = 4 (the contract of
// util/parallel.hpp / docs/performance.md).
// ---------------------------------------------------------------------------

void expect_same_labels(const HubLabeling& a, const HubLabeling& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.label_size(v), b.label_size(v)) << "label size differs at v=" << v;
    for (std::size_t i = 0; i < a.label_size(v); ++i) {
      EXPECT_EQ(a.hubs(v)[i], b.hubs(v)[i]) << "entry " << i << " of v=" << v;
      EXPECT_EQ(a.dists(v)[i], b.dists(v)[i]) << "entry " << i << " of v=" << v;
    }
  }
}

TEST(ParallelDeterminism, DistanceMatrixMatchesSequential) {
  Rng rng(11);
  const Graph g = gen::connected_gnm(50, 100, rng);
  const auto seq = DistanceMatrix::compute(g, 1);
  const auto par4 = DistanceMatrix::compute(g, 4);
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(seq.at(u, v), par4.at(u, v)) << "dist(" << u << "," << v << ")";
    }
  }
}

TEST(ParallelDeterminism, VerifyLabelingFindsSameFirstDefect) {
  const Graph g = gen::path(9);
  const auto truth = DistanceMatrix::compute(g);
  // Two planted wrong distances; the reported defect must be the first in
  // sequential scan order regardless of which chunk scans it.
  std::vector<std::vector<HubEntry>> rows(9);
  for (Vertex v = 0; v < 9; ++v) rows[v].push_back({0, v});  // hub 0 covers all
  rows[3].push_back({8, 1});  // true dist(3,8) = 5
  rows[7].push_back({8, 9});  // true dist(7,8) = 1
  const HubLabeling bad(std::move(rows));
  const auto seq = verify_labeling(g, bad, truth, 1);
  const auto par4 = verify_labeling(g, bad, truth, 4);
  ASSERT_TRUE(seq.has_value());
  ASSERT_TRUE(par4.has_value());
  EXPECT_EQ(seq->kind, par4->kind);
  EXPECT_EQ(seq->u, par4->u);
  EXPECT_EQ(seq->v, par4->v);
  EXPECT_EQ(seq->stored, par4->stored);
  EXPECT_EQ(seq->actual, par4->actual);
}

TEST(ParallelDeterminism, VerifyLabelingAcceptsCoverAtAnyThreadCount) {
  Rng rng(12);
  const Graph g = gen::connected_gnm(40, 80, rng);
  const auto truth = DistanceMatrix::compute(g);
  const HubLabeling pll = pruned_landmark_labeling(g);
  EXPECT_FALSE(verify_labeling(g, pll, truth, 1).has_value());
  EXPECT_FALSE(verify_labeling(g, pll, truth, 4).has_value());
}

TEST(ParallelDeterminism, SampledVerifierDrawsSameSamples) {
  const Graph g = gen::path(12);
  const HubLabeling l = self_hubs_only(12);
  const auto seq = verify_labeling_sampled(g, l, 300, 5, 1);
  const auto par4 = verify_labeling_sampled(g, l, 300, 5, 4);
  ASSERT_TRUE(seq.has_value());
  ASSERT_TRUE(par4.has_value());
  EXPECT_EQ(seq->u, par4->u);
  EXPECT_EQ(seq->v, par4->v);
  EXPECT_EQ(static_cast<int>(seq->kind), static_cast<int>(par4->kind));
}

TEST(ParallelDeterminism, MonotoneClosureIsThreadCountInvariant) {
  Rng rng(13);
  const Graph g = gen::connected_gnm(45, 90, rng);
  const HubLabeling pll = pruned_landmark_labeling(g);
  const HubLabeling seq = monotone_closure(g, pll, 1);
  const HubLabeling par4 = monotone_closure(g, pll, 4);
  expect_same_labels(seq, par4);
}

TEST(ParallelDeterminism, AuditReportIsThreadCountInvariant) {
  Rng rng(14);
  const Graph g = gen::connected_gnm(40, 80, rng);
  // A corrupted labeling so the report actually carries issues.
  const HubLabeling bad = pruned_landmark_labeling(g);
  std::vector<std::vector<HubEntry>> rows(g.num_vertices());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (std::size_t i = 0; i < bad.label_size(v); ++i) {
      rows[v].push_back({bad.hubs(v)[i], bad.dists(v)[i] + (v % 3 == 0 ? 1 : 0)});
    }
  }
  const HubLabeling twisted(std::move(rows));
  const AuditReport seq = twisted.audit(g, 24, 9, 1);
  const AuditReport par4 = twisted.audit(g, 24, 9, 4);
  EXPECT_EQ(seq.ok(), par4.ok());
  EXPECT_EQ(seq.num_issues(), par4.num_issues());
  EXPECT_EQ(seq.to_string(), par4.to_string());

  // And a clean labeling audits clean at every thread count.
  const AuditReport clean1 = bad.audit(g, 24, 9, 1);
  const AuditReport clean4 = bad.audit(g, 24, 9, 4);
  EXPECT_TRUE(clean1.ok());
  EXPECT_EQ(clean1.to_string(), clean4.to_string());
}

}  // namespace
}  // namespace hublab
