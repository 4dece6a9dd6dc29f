#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "algo/distance_matrix.hpp"
#include "graph/generators.hpp"
#include "graph/transforms.hpp"
#include "hub/labeling.hpp"
#include "hub/pll.hpp"
#include "hub/simd_kernel.hpp"
#include "lowerbound/gadget.hpp"
#include "rs/rs_graph.hpp"
#include "util/metrics.hpp"
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
  // distance below their "absent" value, and the 4-byte served column.
  // One weight unit more needs the 64-bit rows and the 8-byte column, with
  // a distance of 2^32 between the ends.
  for (const Weight w : {Weight{0x7FFFFFFF}, Weight{0x80000000}}) {
    GraphBuilder b(3);
    b.add_edge(0, 1, w);
    b.add_edge(1, 2, w);
    const Graph g = b.build();
    expect_canonical(g, "path3 w=" + std::to_string(w));
    const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kNatural);
    const HubLabeling labels = pruned_landmark_labeling(g, order);
    EXPECT_EQ(labels.query(0, 2), Dist{2} * w);
    EXPECT_EQ(labels.dist_bytes(), w == 0x7FFFFFFF ? 4u : 8u) << "w=" << w;
  }
}

TEST(PllCanonical, WeightsSpanningThirtyOneBits) {
  // Log-uniform weights in [1, 2^31 - 1] on a sparse graph: the rows are
  // the wide ones, and the search queue's keys first differ from the last
  // popped key anywhere from bit 0 to bit ~36, so every radix-heap bucket
  // range is exercised, low buckets and high.
  Rng rng(31);
  const Graph base = gen::connected_gnm(80, 200, rng);
  // Two extra vertices hang off vertex 0 by the extreme weights.
  const auto n = static_cast<Vertex>(base.num_vertices());
  GraphBuilder b(n + 2);
  b.add_edge(0, n, 1);
  b.add_edge(n, n + 1, 0x7FFFFFFF);
  for (Vertex u = 0; u < n; ++u) {
    for (const Arc& a : base.arcs(u)) {
      if (u >= a.to) continue;
      const std::uint64_t span = std::uint64_t{1} << (1 + rng.next_below(31));
      b.add_edge(u, a.to, static_cast<Weight>(std::max<std::uint64_t>(1, rng.next_below(span))));
    }
  }
  const Graph g = b.build();
  ASSERT_EQ(g.max_weight(), Weight{0x7FFFFFFF});
  expect_canonical(g, "gnm80 log-uniform weights");
}

// --- The cover kernels (simd::CoverFn): every tier against a reference
// --- that states the predicate in 64 bits, with no wrap to guard.

using CoverEntry = simd::RankEntry<std::uint32_t>;
constexpr std::uint32_t kAbsentRank = 0xFFFFFFFF;  ///< root_dist of a rank not in the root's label

bool cover_reference(const std::vector<CoverEntry>& row,
                     const std::vector<std::uint32_t>& root_dist, std::uint32_t d) {
  for (const CoverEntry& e : row) {
    if (std::uint64_t{root_dist[e.rank]} + e.dist <= d) return true;
  }
  return false;
}

/// Every supported tier's kernel returns `expected` on the row.
void expect_cover(const std::vector<CoverEntry>& row, const std::vector<std::uint32_t>& root_dist,
                  std::uint32_t d, bool expected, const std::string& what) {
  ASSERT_EQ(cover_reference(row, root_dist, d), expected) << what << ": reference";
  for (const simd::Tier tier : simd::supported_tiers()) {
    EXPECT_EQ(simd::cover_for(tier)(row.data(), row.size(), root_dist.data(), d), expected)
        << what << " tier=" << simd::tier_name(tier);
  }
}

TEST(PllCover, EveryRowSizeAndHitPosition) {
  // Sizes 0..40 cover every tail length of the AVX2 kernel's 8-entry step
  // and the scalar scan's 16-entry block.
  // Each miss has rd + dist == d + 1; the one hit has rd + dist == d
  // exactly, at every position: lanes 7 and 15 of a step and the first
  // tail slot included.
  constexpr std::uint32_t d = 100;
  constexpr std::size_t kRanks = 64;
  std::vector<std::uint32_t> root_dist(kRanks);
  for (std::size_t r = 0; r < kRanks; ++r) root_dist[r] = static_cast<std::uint32_t>(r % 50);
  for (std::size_t size = 0; size <= 40; ++size) {
    std::vector<CoverEntry> row(size);
    for (std::size_t i = 0; i < size; ++i) {
      const auto rank = static_cast<std::uint32_t>((i * 7) % kRanks);
      row[i] = CoverEntry{rank, d + 1 - root_dist[rank]};
    }
    expect_cover(row, root_dist, d, false, "size " + std::to_string(size) + " no hit");
    for (std::size_t hit = 0; hit < size; ++hit) {
      std::vector<CoverEntry> one = row;
      --one[hit].dist;
      expect_cover(one, root_dist, d, true,
                   "size " + std::to_string(size) + " hit at " + std::to_string(hit));
    }
  }
}

TEST(PllCover, AbsentRankNeverHits) {
  // An absent rank reads 0xFFFFFFFF, above the largest d a search passes.
  const std::vector<std::uint32_t> root_dist(48, kAbsentRank);
  for (std::size_t size = 0; size <= 40; ++size) {
    std::vector<CoverEntry> row(size);
    for (std::size_t i = 0; i < size; ++i) row[i] = CoverEntry{static_cast<std::uint32_t>(i), 0};
    expect_cover(row, root_dist, 0xFFFFFFFE, false, "absent, size " + std::to_string(size));
  }
}

TEST(PllCover, WrappedSlackNeverHits) {
  // rd = d + 1 makes d - rd wrap to 0xFFFFFFFF, which a distance of
  // 0xFFFFFFFF would meet: only the rd <= d half of the test rejects it.
  constexpr std::uint32_t d = 5;
  const std::vector<std::uint32_t> root_dist(48, d + 1);
  for (std::size_t size = 0; size <= 40; ++size) {
    std::vector<CoverEntry> row(size);
    for (std::size_t i = 0; i < size; ++i) {
      row[i] = CoverEntry{static_cast<std::uint32_t>(i), 0xFFFFFFFF};
    }
    expect_cover(row, root_dist, d, false, "wrapped, size " + std::to_string(size));
  }
}

TEST(PllCover, RandomSweepMatchesReference) {
  // Rows of 0..70 entries whose sums land near d (hits and misses by
  // one), plus absent ranks and wrapping root distances.
  Rng rng(2323);
  constexpr std::size_t kRanks = 256;
  std::vector<std::uint32_t> root_dist(kRanks);
  std::size_t hits = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    const auto d = static_cast<std::uint32_t>(rng.next_below(0xFFFFFFFF));
    for (std::uint32_t& rd : root_dist) {
      const std::uint64_t kind = rng.next_below(8);
      rd = kind == 0 ? kAbsentRank
           : kind == 1 ? static_cast<std::uint32_t>(rng.next_below(std::uint64_t{1} << 32))
                       : static_cast<std::uint32_t>(rng.next_below(std::uint64_t{d} + 1));
    }
    std::vector<CoverEntry> row(rng.next_below(71));
    for (CoverEntry& e : row) {
      e.rank = static_cast<std::uint32_t>(rng.next_below(kRanks));
      const std::uint32_t rd = root_dist[e.rank];
      // Mostly a near miss, d - rd + 1 (when that fits); now and then a
      // near hit or an arbitrary distance.
      const std::uint64_t kind = rng.next_below(64);
      if (kind == 0 && rd <= d) {
        e.dist = d - rd;
      } else if (kind == 1) {
        e.dist = static_cast<std::uint32_t>(rng.next_below(std::uint64_t{1} << 32));
      } else {
        e.dist = rd < d ? d - rd + 1 : static_cast<std::uint32_t>(rng.next_below(16));
      }
    }
    const bool expected = cover_reference(row, root_dist, d);
    hits += expected ? 1 : 0;
    expect_cover(row, root_dist, d, expected, "trial " + std::to_string(trial));
  }
  // Both outcomes are well represented.
  EXPECT_GT(hits, 300u);
  EXPECT_LT(hits, 2700u);
}

#if HUBLAB_METRICS_ENABLED

struct PllCounts {
  std::uint64_t visited = 0;
  std::uint64_t cover_entries = 0;
  std::uint64_t pruned = 0;
  std::uint64_t label_pushes = 0;
};

PllCounts pll_counts(const Graph& g, const std::vector<Vertex>& order, std::size_t threads) {
  metrics::registry().reset();
  (void)pruned_landmark_labeling(g, order, PllConfig{threads});
  PllCounts counts;
  for (const auto& c : metrics::registry().counters()) {
    if (c.name == "pll.visited") counts.visited = c.value;
    if (c.name == "pll.cover_entries") counts.cover_entries = c.value;
    if (c.name == "pll.pruned") counts.pruned = c.value;
    if (c.name == "pll.label_pushes") counts.label_pushes = c.value;
  }
  return counts;
}

TEST(PllCounters, CoverEntriesOnThePathByHand) {
  // Path 0 - 1 - 2 in natural order, by hand.  Root 0 settles all three
  // vertices over empty rows (0 entries).  Root 1 settles 1 (row {0}),
  // prunes 0 (row {0}: 1 + 0 <= 1) and labels 2 (row {0}: 1 + 2 > 1):
  // 3 entries.  Root 2 settles 2 (row {0, 1}) and prunes 1 (row {0, 1}:
  // rank 1 gives 1 + 0 <= 1): 4 entries.  The weighted path 0 -2- 1 -3- 2
  // runs the Dijkstra through the same steps.
  GraphBuilder weighted(3);
  weighted.add_edge(0, 1, 2);
  weighted.add_edge(1, 2, 3);
  for (const Graph& g : {gen::path(3), weighted.build()}) {
    const PllCounts counts = pll_counts(g, make_vertex_order(g, VertexOrder::kNatural), 1);
    EXPECT_EQ(counts.cover_entries, 7u) << "weighted=" << g.is_weighted();
    EXPECT_EQ(counts.visited, 8u) << "weighted=" << g.is_weighted();
    EXPECT_EQ(counts.pruned, 2u) << "weighted=" << g.is_weighted();
    EXPECT_EQ(counts.label_pushes, 6u) << "weighted=" << g.is_weighted();
  }
}

TEST(PllCounters, CoverEntriesIndependentOfThreads) {
  // K_{8,600}: the 600-leaf BFS levels run the parallel prune scan at 4
  // threads (see PllCanonical.StructuredFamilies).
  GraphBuilder b(608);
  for (Vertex hub = 0; hub < 8; ++hub) {
    for (Vertex leaf = 8; leaf < 608; ++leaf) b.add_edge(hub, leaf);
  }
  const Graph g = b.build();
  const std::vector<Vertex> order = make_vertex_order(g, VertexOrder::kRandom, 3);
  const PllCounts one = pll_counts(g, order, 1);
  const PllCounts four = pll_counts(g, order, 4);
  EXPECT_GT(one.cover_entries, 0u);
  EXPECT_EQ(one.cover_entries, four.cover_entries);
  EXPECT_EQ(one.visited, four.visited);
  EXPECT_EQ(one.pruned, four.pruned);
  EXPECT_EQ(one.label_pushes, four.label_pushes);
}

#endif  // HUBLAB_METRICS_ENABLED

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
