#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "hub/flat_labeling.hpp"
#include "hub/labeling.hpp"
#include "hub/pll.hpp"
#include "hub/simd_kernel.hpp"
#include "lowerbound/gadget.hpp"
#include "oracle/oracle.hpp"
#include "oracle/server.hpp"
#include "oracle/workload.hpp"
#include "rs/rs_graph.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace hublab {
namespace {

/// Block sizes from a lone pair (the server's common drained block) through
/// sub-vector and multi-group blocks to the offline 4096-pair block: every
/// one runs the same stamp-table probe over the caller's per-thread tables.
constexpr std::size_t kBlockSizes[] = {1, 7, 64, 4096};

/// The batched-query contract: for every host-reachable ISA tier and every
/// block size, `query_batch_tier` answers byte-identically — distance AND
/// meeting hub — to the per-query reference `query_with_hub`.
void expect_batch_identity(const Graph& g) {
  const HubLabeling labels = pruned_landmark_labeling(g);
  const FlatHubLabeling flat(labels);
  for (const std::size_t block : kBlockSizes) {
    const std::vector<std::pair<Vertex, Vertex>> pairs =
        serve::WorkloadGenerator(g, serve::WorkloadKind::kUniform, 7 + block).block(block);
    std::vector<HubQueryResult> out(block);
    for (const simd::Tier tier : simd::supported_tiers()) {
      flat.query_batch_tier(pairs, out, tier);
      for (std::size_t i = 0; i < block; ++i) {
        const HubQueryResult ref = flat.query_with_hub(pairs[i].first, pairs[i].second);
        ASSERT_EQ(out[i].dist, ref.dist)
            << "tier=" << simd::tier_name(tier) << " block=" << block << " pair#" << i << " ("
            << pairs[i].first << "," << pairs[i].second << ")";
        ASSERT_EQ(out[i].meeting_hub, ref.meeting_hub)
            << "tier=" << simd::tier_name(tier) << " block=" << block << " pair#" << i << " ("
            << pairs[i].first << "," << pairs[i].second << ")";
      }
    }
    // The public entry point resolves the active tier (honouring
    // HUBLAB_FORCE_SCALAR) and must agree as well.
    flat.query_batch(pairs, out);
    for (std::size_t i = 0; i < block; ++i) {
      const HubQueryResult ref = flat.query_with_hub(pairs[i].first, pairs[i].second);
      ASSERT_EQ(out[i].dist, ref.dist) << "active tier, block=" << block << " pair#" << i;
      ASSERT_EQ(out[i].meeting_hub, ref.meeting_hub)
          << "active tier, block=" << block << " pair#" << i;
    }
  }
}

TEST(BatchQuery, ByteIdenticalOnDegree3Gadget) {
  // The Figure 1 hard instance: the unweighted max-degree-3 expansion of
  // the layered gadget.
  const lb::LayeredGadget h(lb::GadgetParams{2, 1});
  expect_batch_identity(lb::Degree3Gadget(h).graph());
}

TEST(BatchQuery, ByteIdenticalOnBehrendRsGraph) {
  expect_batch_identity(rs::behrend_rs_graph(40).graph);
}

TEST(BatchQuery, ByteIdenticalOnDisconnectedGraph) {
  // Cross-component pairs exercise the no-common-hub outcome: kInfDist
  // with the kInvalidVertex meeting hub through every tier and both the
  // merge and stamp paths.
  GraphBuilder b(24);
  for (Vertex v = 0; v + 1 < 12; ++v) b.add_edge(v, v + 1);
  for (Vertex v = 12; v + 1 < 24; ++v) b.add_edge(v, v + 1);
  expect_batch_identity(b.build());
}

TEST(BatchQuery, ByteIdenticalOnWeightedRoadGraph) {
  // Weighted distances: the fold is over 64-bit sums, and ties between
  // different weighted paths exercise the lexicographic (dist, hub) rule.
  Rng rng(31);
  expect_batch_identity(gen::road_like(6, 6, 0.2, 9, rng));
}

TEST(BatchQuery, OracleBatchEntryPointsAgree) {
  // distance_batch through the oracle interface: the flat oracle's SIMD
  // batch kernel, the vector oracle's per-pair merges, and the base-class
  // default (distance() loop, no hubs) must all report the same distances.
  Rng rng(33);
  const Graph g = gen::connected_gnm(80, 160, rng);
  const HubLabeling labels = pruned_landmark_labeling(g);
  const HubLabelOracle vec(g, labels);
  const FlatHubLabelOracle flat(labels);
  const BidirectionalOracle bidij(g);

  const std::vector<std::pair<Vertex, Vertex>> pairs =
      serve::WorkloadGenerator(g, serve::WorkloadKind::kZipf, 9).block(128);
  std::vector<HubQueryResult> from_vec(pairs.size());
  std::vector<HubQueryResult> from_flat(pairs.size());
  std::vector<HubQueryResult> from_bidij(pairs.size());
  vec.distance_batch(pairs, from_vec);
  flat.distance_batch(pairs, from_flat);
  bidij.distance_batch(pairs, from_bidij);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    ASSERT_EQ(from_flat[i].dist, from_vec[i].dist) << "pair#" << i;
    ASSERT_EQ(from_flat[i].meeting_hub, from_vec[i].meeting_hub) << "pair#" << i;
    ASSERT_EQ(from_flat[i].dist, from_bidij[i].dist) << "pair#" << i;
  }
}

#if HUBLAB_METRICS_ENABLED

TEST(BatchQuery, MetricsCountBlocksPairsAndGroups) {
  Rng rng(35);
  const Graph g = gen::connected_gnm(50, 100, rng);
  const FlatHubLabeling flat(pruned_landmark_labeling(g));
  const std::vector<std::pair<Vertex, Vertex>> pairs =
      serve::WorkloadGenerator(g, serve::WorkloadKind::kUniform, 3).block(64);
  std::vector<HubQueryResult> out(pairs.size());
  metrics::registry().reset();
  flat.query_batch(pairs, out);
  std::uint64_t calls = 0;
  std::uint64_t batched = 0;
  std::uint64_t groups = 0;
  for (const auto& c : metrics::registry().counters()) {
    if (c.name == "query.batch.calls") calls = c.value;
    if (c.name == "query.batch.pairs") batched = c.value;
    if (c.name == "query.batch.source_groups") groups = c.value;
  }
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(batched, 64u);
  EXPECT_GE(groups, 1u);
  EXPECT_LE(groups, 64u);
}

#endif  // HUBLAB_METRICS_ENABLED

/// First disagreement between `query_batch_tier` on `tier` and per-query
/// `query_with_hub` over `pairs`, or "" when every answer is byte-identical.
std::string batch_mismatch(const FlatHubLabeling& flat,
                           std::span<const std::pair<Vertex, Vertex>> pairs, simd::Tier tier) {
  std::vector<HubQueryResult> out(pairs.size());
  flat.query_batch_tier(pairs, out, tier);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const HubQueryResult ref = flat.query_with_hub(pairs[i].first, pairs[i].second);
    if (out[i].dist != ref.dist || out[i].meeting_hub != ref.meeting_hub) {
      return std::string("tier=") + simd::tier_name(tier) + " n=" +
             std::to_string(flat.num_vertices()) + " block=" + std::to_string(pairs.size()) +
             " pair#" + std::to_string(i);
    }
  }
  return "";
}

TEST(BatchQuery, ScratchSurvivesAlternatingLabelings) {
  // The stamp tables are per thread and kept across calls.  A fresh thread
  // (empty tables) alternates blocks between a 40- and a 300-vertex
  // labeling: the tables grow on the first large block, and stamps left by
  // the other labeling or an earlier block must never match.
  Rng rng(41);
  const Graph small_g = gen::connected_gnm(40, 80, rng);
  const Graph large_g = gen::connected_gnm(300, 600, rng);
  const FlatHubLabeling small_flat(pruned_landmark_labeling(small_g));
  const FlatHubLabeling large_flat(pruned_landmark_labeling(large_g));
  std::vector<std::string> failures;
  std::thread worker([&] {
    std::uint64_t seed = 100;
    for (int round = 0; round < 2; ++round) {
      for (const std::size_t block : {1, 7, 64}) {
        for (const auto& [g, flat] : {std::pair{&small_g, &small_flat},
                                      std::pair{&large_g, &large_flat}}) {
          const std::vector<std::pair<Vertex, Vertex>> pairs =
              serve::WorkloadGenerator(*g, serve::WorkloadKind::kUniform, ++seed).block(block);
          for (const simd::Tier tier : simd::supported_tiers()) {
            std::string mismatch = batch_mismatch(*flat, pairs, tier);
            if (!mismatch.empty()) failures.push_back(std::move(mismatch));
          }
        }
      }
    }
  });
  worker.join();
  EXPECT_TRUE(failures.empty()) << failures.size() << " mismatches, first: " << failures.front();
}

TEST(BatchQuery, ConcurrentThreadsUseTheirOwnScratch) {
  // Four pool threads query one labeling at once, each with its own block
  // size, so their epochs and scattered labels interleave in time; every
  // thread's answers must stay byte-identical to the per-query reference.
  Rng rng(43);
  const Graph g = gen::connected_gnm(200, 400, rng);
  const FlatHubLabeling flat(pruned_landmark_labeling(g));
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kThreadBlocks[kThreads] = {1, 7, 64, 512};
  std::vector<std::string> failures(kThreads);
  par::run_chunks(par::static_chunks(0, kThreads, kThreads), kThreads,
                  [&](const par::ChunkRange& chunk) {
                    const std::size_t block = kThreadBlocks[chunk.index];
                    serve::WorkloadGenerator workload(g, serve::WorkloadKind::kZipf,
                                                      50 + chunk.index);
                    for (int rep = 0; rep < 40 && failures[chunk.index].empty(); ++rep) {
                      failures[chunk.index] =
                          batch_mismatch(flat, workload.block(block), simd::active_tier());
                    }
                  });
  for (std::size_t t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], "") << "thread chunk " << t;
}

TEST(BatchQuery, ByteIdenticalOnNearPairsOverLongLabels) {
  // Local pairs on a weighted road graph: target labels average about 47
  // hubs (up to about 100), about 39 of them also in the source label, so
  // the SIMD probes fold many hits per step, often in every lane.
  Rng rng(37);
  const Graph g = gen::road_like(20, 20, 0.2, 10, rng);
  const FlatHubLabeling flat(pruned_landmark_labeling(g));
  for (const std::size_t block : kBlockSizes) {
    const std::vector<std::pair<Vertex, Vertex>> pairs =
        serve::WorkloadGenerator(g, serve::WorkloadKind::kNear, 11 + block).block(block);
    for (const simd::Tier tier : simd::supported_tiers()) {
      EXPECT_EQ(batch_mismatch(flat, pairs, tier), "");
    }
  }
}

/// Hand-built labelings for the SIMD probes' lane fold, one target vertex
/// per case.  Position i of a target label holds hub 2i, which the source
/// label holds at distance kSourceDist, or, where the case says kMiss,
/// hub 2i + 1, which no source label holds.
class LaneFoldCases {
 public:
  static constexpr std::size_t kMaxSize = 40;
  static constexpr Dist kMiss = kInfDist;
  static constexpr Dist kSourceDist = 7;

  /// The expected answer when the minimum sits at target position `pos`,
  /// at target distance `dist`.
  static HubQueryResult meet(std::size_t pos, Dist dist) {
    return {kSourceDist + dist, static_cast<Vertex>(2 * pos)};
  }

  void add(std::string what, std::vector<Dist> dists, HubQueryResult want) {
    HUBLAB_ASSERT(dists.size() <= kMaxSize);
    cases_.push_back({std::move(what), std::move(dists), want});
  }

  /// Answers every case as one block on every supported tier; each answer
  /// must equal the case's and query_with_hub's.
  void check() const {
    const FlatHubLabeling flat = build();
    const auto source = static_cast<Vertex>(2 * kMaxSize);
    std::vector<std::pair<Vertex, Vertex>> pairs;
    for (std::size_t c = 0; c < cases_.size(); ++c) {
      pairs.emplace_back(source, static_cast<Vertex>(source + 1 + c));
    }
    std::vector<HubQueryResult> out(pairs.size());
    for (const simd::Tier tier : simd::supported_tiers()) {
      flat.query_batch_tier(pairs, out, tier);
      for (std::size_t c = 0; c < cases_.size(); ++c) {
        const Case& want = cases_[c];
        const HubQueryResult ref = flat.query_with_hub(pairs[c].first, pairs[c].second);
        ASSERT_EQ(ref.dist, want.want.dist) << "query_with_hub, " << want.what;
        ASSERT_EQ(ref.meeting_hub, want.want.meeting_hub) << "query_with_hub, " << want.what;
        ASSERT_EQ(out[c].dist, want.want.dist)
            << "tier=" << simd::tier_name(tier) << ", " << want.what;
        ASSERT_EQ(out[c].meeting_hub, want.want.meeting_hub)
            << "tier=" << simd::tier_name(tier) << ", " << want.what;
      }
    }
  }

 private:
  struct Case {
    std::string what;
    std::vector<Dist> dists;
    HubQueryResult want;
  };

  /// Vertices [0, 2 * kMaxSize) are the hubs (empty labels), the next one
  /// is the source (every even hub), and then one target per case.
  [[nodiscard]] FlatHubLabeling build() const {
    const std::size_t hubs = 2 * kMaxSize;
    std::vector<std::size_t> offsets;
    std::vector<Vertex> hub_col;
    std::vector<Dist> dist_col;
    const auto push = [&](std::size_t hub, Dist dist) {
      hub_col.push_back(static_cast<Vertex>(hub));
      dist_col.push_back(dist);
    };
    for (std::size_t v = 0; v < hubs; ++v) {
      offsets.push_back(hub_col.size());
      push(kInvalidVertex, kInfDist);
    }
    offsets.push_back(hub_col.size());
    for (std::size_t h = 0; h < hubs; h += 2) push(h, kSourceDist);
    push(kInvalidVertex, kInfDist);
    for (const Case& c : cases_) {
      offsets.push_back(hub_col.size());
      for (std::size_t i = 0; i < c.dists.size(); ++i) {
        if (c.dists[i] == kMiss) push(2 * i + 1, 1);
        else push(2 * i, c.dists[i]);
      }
      push(kInvalidVertex, kInfDist);
    }
    offsets.push_back(hub_col.size());
    return {hubs + 1 + cases_.size(), std::move(offsets), std::move(hub_col),
            std::move(dist_col)};
  }

  std::vector<Case> cases_;
};

TEST(BatchQuery, LaneFoldTiesAndBoundaries) {
  // Target sizes 0-40 cover every 8- and 16-hub step and every tail length
  // of both SIMD probes.  Positions a case does not name are hits whose
  // sums exceed the case's minimum.
  constexpr Dist kFar = 1000;
  const auto far_hits = [](std::size_t size) {
    std::vector<Dist> dists(size);
    for (std::size_t i = 0; i < size; ++i) dists[i] = kFar + i;
    return dists;
  };
  LaneFoldCases cases;
  for (std::size_t size = 0; size <= LaneFoldCases::kMaxSize; ++size) {
    const std::string label = "size=" + std::to_string(size);
    // No target hub hit: kInfDist and kInvalidVertex.
    cases.add(label + " no hit", std::vector<Dist>(size, LaneFoldCases::kMiss), HubQueryResult{});
    // Every target hub hit, the one minimum at each position: every lane
    // of every step, and minima only in the tail.
    for (std::size_t p = 0; p < size; ++p) {
      std::vector<Dist> dists = far_hits(size);
      dists[p] = 1;
      cases.add(label + " min@" + std::to_string(p), std::move(dists),
                LaneFoldCases::meet(p, 1));
    }
    // Equal minima at every two positions a < b — one lane across two
    // steps (b - a a multiple of 8 or 16), two lanes of one step, the last
    // vector slot and the first tail slot: the smaller hub, at a, wins.
    for (std::size_t b = 1; b < size; ++b) {
      for (std::size_t a = 0; a < b; ++a) {
        std::vector<Dist> dists = far_hits(size);
        dists[a] = 1;
        dists[b] = 1;
        cases.add(label + " tie@" + std::to_string(a) + "," + std::to_string(b),
                  std::move(dists), LaneFoldCases::meet(a, 1));
      }
    }
    // One lane first sees a sum >= 2^63, then a smaller one 16 positions
    // on (the same lane of both probes): a signed 64-bit lane compare
    // would keep the first.
    for (std::size_t p = 0; p + 16 < size; ++p) {
      std::vector<Dist> dists(size, LaneFoldCases::kMiss);
      dists[p] = Dist{1} << 63;
      dists[p + 16] = 3;
      cases.add(label + " 2^63@" + std::to_string(p), std::move(dists),
                LaneFoldCases::meet(p + 16, 3));
    }
  }
  cases.check();
}

TEST(BatchQuery, EpochWrapZeroesStampsAndRestartsAtOne) {
  std::vector<std::uint32_t> stamp = {7, 0xFFFFFFFFU, 3};
  EXPECT_EQ(simd::detail::next_epoch(0, stamp), 1U);
  EXPECT_EQ(simd::detail::next_epoch(41, stamp), 42U);
  EXPECT_EQ(stamp, (std::vector<std::uint32_t>{7, 0xFFFFFFFFU, 3}));  // no wrap: untouched
  EXPECT_EQ(simd::detail::next_epoch(0xFFFFFFFFU, stamp), 1U);
  EXPECT_EQ(stamp, (std::vector<std::uint32_t>{0, 0, 0}));
}

TEST(BatchQuery, ServeSimBatchedLoopIsDeterministic) {
  // The closed-loop server with --batch 4: the batched blocks must
  // reproduce the per-query loop's checksum/reachability, and stay
  // worker-count invariant (the tsan job runs this suite at 1 and 4
  // workers).
  const Graph g = lb::LayeredGadget(lb::GadgetParams{1, 1}).graph();
  const auto oracle = serve::make_oracle(g, serve::OracleKind::kPllFlat);
  serve::ServerConfig base;
  base.arrival = serve::ArrivalKind::kClosed;
  base.workload = serve::WorkloadKind::kUniform;
  base.num_queries = 300;
  base.seed = 5;
  base.workers = 1;
  base.batch = 1;
  base.register_metrics = false;
  const serve::ServerResult unbatched = serve::run_server_on(g, *oracle, base);

  serve::ServerConfig batched = base;
  batched.batch = 4;
  const serve::ServerResult b1 = serve::run_server_on(g, *oracle, batched);

  serve::ServerConfig batched4 = batched;
  batched4.workers = 4;
  const serve::ServerResult b4 = serve::run_server_on(g, *oracle, batched4);

  EXPECT_EQ(b1.checksum, unbatched.checksum);
  EXPECT_EQ(b1.reachable, unbatched.reachable);
  EXPECT_EQ(b1.completed, unbatched.completed);
  EXPECT_EQ(b4.checksum, b1.checksum);
  EXPECT_EQ(b4.reachable, b1.reachable);
  EXPECT_EQ(b4.completed, b1.completed);
  EXPECT_EQ(b4.latency_ns.count(), b1.latency_ns.count());
}

TEST(BatchQuery, SupportedTiersAlwaysIncludeScalar) {
  const std::vector<simd::Tier> tiers = simd::supported_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), simd::Tier::kScalar);
  // The active tier must be one the host can actually run.
  bool active_supported = false;
  for (const simd::Tier tier : tiers) {
    if (tier == simd::active_tier()) active_supported = true;
  }
  EXPECT_TRUE(active_supported);
}

}  // namespace
}  // namespace hublab
