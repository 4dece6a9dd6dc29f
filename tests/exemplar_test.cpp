#include "util/exemplar.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "algo/shortest_paths.hpp"
#include "graph/generators.hpp"
#include "hub/labeling.hpp"
#include "hub/pll.hpp"
#include "lowerbound/gadget.hpp"
#include "oracle/contraction_hierarchy.hpp"
#include "oracle/oracle.hpp"
#include "util/heavyhitter.hpp"
#include "util/querystats.hpp"
#include "util/rng.hpp"

namespace hublab::metrics {
namespace {

Exemplar make_exemplar(std::uint64_t seq, std::uint64_t latency_ns) {
  Exemplar e;
  e.seq = seq;
  e.s = static_cast<std::uint32_t>(seq * 3 + 1);
  e.t = static_cast<std::uint32_t>(seq * 7 + 2);
  e.latency_ns = latency_ns;
  e.scan_cost = seq + 10;
  e.meeting_hub = static_cast<std::uint32_t>(seq % 5);
  return e;
}

// --- ExemplarReservoir ----------------------------------------------------

TEST(ExemplarReservoir, SameSeedAndOfferOrderReproduceTheReservoir) {
  ExemplarReservoir a(42, 2);
  ExemplarReservoir b(42, 2);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const Exemplar e = make_exemplar(i, (i % 13) * 100 + 1);
    a.offer(e);
    b.offer(e);
  }
  const auto sa = a.snapshot();
  const auto sb = b.snapshot();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].le, sb[i].le);
    EXPECT_EQ(sa[i].count, sb[i].count);
    ASSERT_EQ(sa[i].exemplars.size(), sb[i].exemplars.size());
    for (std::size_t j = 0; j < sa[i].exemplars.size(); ++j) {
      EXPECT_EQ(sa[i].exemplars[j].seq, sb[i].exemplars[j].seq);
    }
  }
  EXPECT_EQ(a.count(), 500U);
}

TEST(ExemplarReservoir, BucketsArePow2UpperBoundsAndCountsAreExact) {
  ExemplarReservoir r(1, 4);
  // Latencies 0, 1, 2, 3, 7, 8 land in buckets le=0, le=1, le=3, le=3,
  // le=7, le=15.
  for (const std::uint64_t lat : {0ULL, 1ULL, 2ULL, 3ULL, 7ULL, 8ULL}) {
    r.offer(make_exemplar(lat, lat));
  }
  const auto snap = r.snapshot();
  std::map<std::uint64_t, std::uint64_t> counts;
  for (const ExemplarBucket& b : snap) counts[b.le] = b.count;
  const std::map<std::uint64_t, std::uint64_t> expected = {
      {0, 1}, {1, 1}, {3, 2}, {7, 1}, {15, 1}};
  EXPECT_EQ(counts, expected);
  // Ascending le, retained exemplars ascending by seq.
  for (std::size_t i = 1; i < snap.size(); ++i) EXPECT_LT(snap[i - 1].le, snap[i].le);
  for (const ExemplarBucket& b : snap) {
    EXPECT_LE(b.exemplars.size(), 4U);
    for (std::size_t j = 1; j < b.exemplars.size(); ++j) {
      EXPECT_LT(b.exemplars[j - 1].seq, b.exemplars[j].seq);
    }
  }
}

TEST(ExemplarReservoir, RetentionIsBoundedPerBucket) {
  ExemplarReservoir r(7, 3);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    r.offer(make_exemplar(i, 100));  // all in one bucket
  }
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.size(), 1U);
  EXPECT_EQ(snap[0].count, 1000U);
  EXPECT_EQ(snap[0].exemplars.size(), 3U);
}

TEST(ExemplarReservoir, MergePreservesCountsAndDeterminism) {
  // Chunked capture merged in chunk order must be reproducible and must
  // keep exact offer counts.
  ExemplarReservoir merged_a(9, 2);
  ExemplarReservoir merged_b(9, 2);
  for (int round = 0; round < 2; ++round) {
    ExemplarReservoir* merged = round == 0 ? &merged_a : &merged_b;
    for (std::uint64_t chunk = 0; chunk < 4; ++chunk) {
      ExemplarReservoir part(9 ^ (chunk + 1), 2);
      for (std::uint64_t i = 0; i < 50; ++i) {
        part.offer(make_exemplar(chunk * 50 + i, (chunk * 50 + i) % 300));
      }
      merged->merge(part);
    }
  }
  EXPECT_EQ(merged_a.count(), 200U);
  const auto sa = merged_a.snapshot();
  const auto sb = merged_b.snapshot();
  ASSERT_EQ(sa.size(), sb.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].count, sb[i].count);
    total += sa[i].count;
    ASSERT_EQ(sa[i].exemplars.size(), sb[i].exemplars.size());
    for (std::size_t j = 0; j < sa[i].exemplars.size(); ++j) {
      EXPECT_EQ(sa[i].exemplars[j].seq, sb[i].exemplars[j].seq);
      EXPECT_EQ(sa[i].exemplars[j].latency_ns, sb[i].exemplars[j].latency_ns);
    }
  }
  EXPECT_EQ(total, 200U);
}

TEST(ExemplarReservoir, ResetDropsCapturesButKeepsCapacity) {
  ExemplarReservoir r(3, 5);
  for (std::uint64_t i = 0; i < 20; ++i) r.offer(make_exemplar(i, i));
  r.reset();
  EXPECT_EQ(r.count(), 0U);
  EXPECT_TRUE(r.snapshot().empty());
  EXPECT_EQ(r.per_bucket(), 5U);
}

// --- SlowQueryLog ---------------------------------------------------------

TEST(SlowQueryLog, ZeroThresholdDisablesCapture) {
  SlowQueryLog log(0, 8);
  log.offer(make_exemplar(1, 1'000'000'000));
  EXPECT_EQ(log.total_slow(), 0U);
  EXPECT_TRUE(log.entries().empty());
}

TEST(SlowQueryLog, CapturesAtOrOverThresholdWorstFirst) {
  SlowQueryLog log(100, 8);
  log.offer(make_exemplar(0, 99));    // below: dropped
  log.offer(make_exemplar(1, 100));   // at threshold: kept
  log.offer(make_exemplar(2, 500));
  log.offer(make_exemplar(3, 300));
  EXPECT_EQ(log.total_slow(), 3U);
  ASSERT_EQ(log.entries().size(), 3U);
  EXPECT_EQ(log.entries()[0].latency_ns, 500U);
  EXPECT_EQ(log.entries()[1].latency_ns, 300U);
  EXPECT_EQ(log.entries()[2].latency_ns, 100U);
}

TEST(SlowQueryLog, CapacityKeepsTheSlowestAndTiesBreakBySeq) {
  SlowQueryLog log(1, 3);
  log.offer(make_exemplar(5, 10));
  log.offer(make_exemplar(1, 40));
  log.offer(make_exemplar(2, 40));
  log.offer(make_exemplar(3, 30));
  log.offer(make_exemplar(4, 20));
  EXPECT_EQ(log.total_slow(), 5U);  // every match counts, evicted or not
  ASSERT_EQ(log.entries().size(), 3U);
  EXPECT_EQ(log.entries()[0].seq, 1U);  // 40ns, earlier seq first
  EXPECT_EQ(log.entries()[1].seq, 2U);  // 40ns
  EXPECT_EQ(log.entries()[2].seq, 3U);  // 30ns
}

TEST(SlowQueryLog, MergeCombinesEntriesAndTotals) {
  SlowQueryLog a(50, 4);
  SlowQueryLog b(50, 4);
  a.offer(make_exemplar(0, 60));
  a.offer(make_exemplar(1, 300));
  b.offer(make_exemplar(2, 200));
  b.offer(make_exemplar(3, 55));
  a.merge(b);
  EXPECT_EQ(a.total_slow(), 4U);
  ASSERT_EQ(a.entries().size(), 4U);
  EXPECT_EQ(a.entries()[0].latency_ns, 300U);
  EXPECT_EQ(a.entries()[1].latency_ns, 200U);
}

// --- SpaceSavingSketch ----------------------------------------------------

TEST(SpaceSavingSketch, ExactUnderCapacity) {
  SpaceSavingSketch s(8);
  s.add(3, 10);
  s.add(1, 5);
  s.add(3, 10);
  s.add(2, 7);
  EXPECT_EQ(s.total_weight(), 32U);
  const auto top = s.top();
  ASSERT_EQ(top.size(), 3U);
  EXPECT_EQ(top[0].key, 3U);
  EXPECT_EQ(top[0].weight, 20U);
  EXPECT_EQ(top[0].error, 0U);
  EXPECT_EQ(top[1].key, 2U);
  EXPECT_EQ(top[2].key, 1U);
}

TEST(SpaceSavingSketch, HeavyKeysSurviveEvictionWithBoundedError) {
  // Capacity 4, one dominant key plus a stream of singletons.  The classic
  // guarantee: any key with weight > W/m is retained, and `weight - error`
  // never exceeds the true weight.
  SpaceSavingSketch s(4);
  for (std::uint64_t i = 0; i < 100; ++i) {
    s.add(1000, 10);      // true weight 1000 by the end
    s.add(2000 + i, 1);   // 100 distinct light keys
  }
  EXPECT_EQ(s.total_weight(), 1100U);
  const auto top = s.top(1);
  ASSERT_EQ(top.size(), 1U);
  EXPECT_EQ(top[0].key, 1000U);
  EXPECT_GE(top[0].weight, 1000U);                    // overestimate
  EXPECT_LE(top[0].weight - top[0].error, 1000U);     // lower bound is sound
  EXPECT_EQ(s.size(), 4U);
}

TEST(SpaceSavingSketch, IdenticalStreamsProduceIdenticalSketches) {
  SpaceSavingSketch a(4);
  SpaceSavingSketch b(4);
  for (std::uint64_t i = 0; i < 200; ++i) {
    a.add(i % 17, (i % 3) + 1);
    b.add(i % 17, (i % 3) + 1);
  }
  const auto ta = a.top();
  const auto tb = b.top();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].key, tb[i].key);
    EXPECT_EQ(ta[i].weight, tb[i].weight);
    EXPECT_EQ(ta[i].error, tb[i].error);
  }
}

TEST(SpaceSavingSketch, MergeKeepsTotalsExact) {
  SpaceSavingSketch a(4);
  SpaceSavingSketch b(4);
  a.add(1, 100);
  a.add(2, 50);
  b.add(1, 30);
  b.add(3, 70);
  a.merge(b);
  EXPECT_EQ(a.total_weight(), 250U);
  const auto top = a.top(1);
  ASSERT_EQ(top.size(), 1U);
  EXPECT_EQ(top[0].key, 1U);
  EXPECT_GE(top[0].weight, 130U);
}

TEST(SpaceSavingSketch, ZeroWeightAddsAreIgnored) {
  SpaceSavingSketch s(4);
  s.add(7, 0);
  EXPECT_EQ(s.total_weight(), 0U);
  EXPECT_EQ(s.size(), 0U);
}

// --- QueryStats -----------------------------------------------------------

TEST(QueryStats, RecordsAndClampsWhenEnabled) {
  QueryStats stats;
  stats.labels(4, 9);
  stats.scanned(10);
  stats.matched(3);
  stats.meeting(12);
  if (QueryStats::kEnabled) {
    EXPECT_EQ(stats.hubs_scanned(), 10U);
    EXPECT_EQ(stats.hubs_matched(), 3U);
    EXPECT_EQ(stats.hubs_pruned(), 7U);
    EXPECT_EQ(stats.scan_cost(), 10U);
    EXPECT_EQ(stats.label_size_s(), 4U);
    EXPECT_EQ(stats.label_size_t(), 9U);
    EXPECT_EQ(stats.meeting_hub(), 12U);
  } else {
    EXPECT_EQ(stats.hubs_scanned(), 0U);
    EXPECT_EQ(stats.meeting_hub(), kNoMeetingHub);
  }
  stats.reset();
  EXPECT_EQ(stats.hubs_scanned(), 0U);
  EXPECT_EQ(stats.meeting_hub(), kNoMeetingHub);
}

TEST(QueryStats, PrunedNeverUnderflows) {
  QueryStats stats;
  stats.matched(5);  // matched without scanned: clamp, don't wrap
  EXPECT_EQ(stats.hubs_pruned(), 0U);
}

// Each instrumented kernel is one loop run with either probe; these pin
// what its QueryStats run must report.  The graphs: the Fig-1 gadget
// G_{2,1}, a weighted road grid, a sparse random graph, and two disjoint
// paths (unreachable pairs).
std::vector<Graph> attribution_graphs() {
  Rng rng(41);
  std::vector<Graph> graphs;
  graphs.push_back(lb::Degree3Gadget(lb::LayeredGadget(lb::GadgetParams{2, 1})).graph());
  graphs.push_back(gen::road_like(8, 8, 0.2, 10, rng));
  graphs.push_back(gen::connected_gnm(200, 400, rng));
  GraphBuilder b(24);
  for (Vertex v = 0; v + 1 < 12; ++v) b.add_edge(v, v + 1);
  for (Vertex v = 12; v + 1 < 24; ++v) b.add_edge(v, v + 1);
  graphs.push_back(b.build());
  return graphs;
}

/// s = t pairs, the (first, last) pair and random pairs.
std::vector<std::pair<Vertex, Vertex>> attribution_pairs(std::size_t n, Rng& rng) {
  const auto last = static_cast<Vertex>(n - 1);
  std::vector<std::pair<Vertex, Vertex>> pairs = {{0, 0}, {last, last}, {0, last}};
  for (int i = 0; i < 40; ++i) {
    pairs.emplace_back(static_cast<Vertex>(rng.next_below(n)),
                       static_cast<Vertex>(rng.next_below(n)));
  }
  return pairs;
}

TEST(QueryStats, FlatMergeCountsMatchTheLabels) {
  Rng rng(43);
  for (const Graph& g : attribution_graphs()) {
    const HubLabeling flat = pruned_landmark_labeling(g);
    for (const auto& [s, t] : attribution_pairs(g.num_vertices(), rng)) {
      QueryStats stats;
      const HubQueryResult got = flat.query_with_stats(s, t, stats);
      const HubQueryResult want = flat.query_with_hub(s, t);
      EXPECT_EQ(got.dist, want.dist) << s << "-" << t;
      EXPECT_EQ(got.meeting_hub, want.meeting_hub) << s << "-" << t;
      if (!QueryStats::kEnabled) {
        EXPECT_EQ(stats.hubs_scanned(), 0U);
        EXPECT_EQ(stats.meeting_hub(), kNoMeetingHub);
        continue;
      }
      const auto hs = flat.hubs(s);
      const auto ht = flat.hubs(t);
      std::vector<Vertex> common;
      std::set_intersection(hs.begin(), hs.end(), ht.begin(), ht.end(),
                            std::back_inserter(common));
      EXPECT_EQ(stats.label_size_s(), flat.label_size(s));
      EXPECT_EQ(stats.label_size_t(), flat.label_size(t));
      EXPECT_EQ(stats.hubs_matched(), common.size()) << s << "-" << t;
      EXPECT_EQ(stats.hubs_scanned(), hs.size() + ht.size() - common.size()) << s << "-" << t;
      EXPECT_EQ(stats.meeting_hub(), want.meeting_hub);
    }
  }
}

TEST(QueryStats, ChAndBidijMeetOnAShortestPath) {
  Rng rng(47);
  for (const Graph& g : attribution_graphs()) {
    const ContractionHierarchy ch(g);
    const BidirectionalOracle bidij(g);
    for (const auto& [s, t] : attribution_pairs(g.num_vertices(), rng)) {
      const std::vector<Dist> from_s = sssp_distances(g, s);
      const std::vector<Dist> from_t = sssp_distances(g, t);
      const Dist want = from_s[t];
      for (const DistanceOracle* oracle : {static_cast<const DistanceOracle*>(&ch),
                                           static_cast<const DistanceOracle*>(&bidij)}) {
        QueryStats stats;
        EXPECT_EQ(oracle->distance_with_stats(s, t, stats), want) << oracle->name();
        EXPECT_EQ(oracle->distance(s, t), want) << oracle->name();
        const std::uint32_t m = stats.meeting_hub();
        if (!QueryStats::kEnabled) {
          EXPECT_EQ(stats.hubs_scanned(), 0U);
          EXPECT_EQ(m, kNoMeetingHub);
        } else if (s == t) {
          EXPECT_EQ(m, s) << oracle->name();
        } else if (want == kInfDist) {
          EXPECT_EQ(m, kNoMeetingHub) << oracle->name() << " " << s << "-" << t;
        } else {
          ASSERT_LT(m, g.num_vertices()) << oracle->name() << " " << s << "-" << t;
          EXPECT_EQ(from_s[m] + from_t[m], want) << oracle->name() << " " << s << "-" << t;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hublab::metrics
