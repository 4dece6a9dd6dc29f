#include "util/qsketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace hublab {
namespace {

/// Check the certified guarantee on every standard quantile: the returned
/// value's rank interval [#(< value) + 1, #(<= value)] (an interval because
/// of duplicates) comes within rank_error_bound() of the nearest-rank
/// target.
void expect_quantiles_within_bound(const QuantileSketch& sketch,
                                   const std::vector<std::uint64_t>& data) {
  const std::uint64_t bound = sketch.rank_error_bound();
  for (const double p : {0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}) {
    const std::uint64_t value = sketch.quantile(p);
    const double exact = p * static_cast<double>(data.size());
    auto target = static_cast<std::uint64_t>(exact);
    if (static_cast<double>(target) < exact) ++target;
    if (target == 0) target = 1;
    const auto below = static_cast<std::uint64_t>(
        std::count_if(data.begin(), data.end(), [&](std::uint64_t v) { return v < value; }));
    const auto at_or_below = static_cast<std::uint64_t>(
        std::count_if(data.begin(), data.end(), [&](std::uint64_t v) { return v <= value; }));
    const std::uint64_t rank_lo = below + 1;
    const std::uint64_t rank_hi = at_or_below;
    EXPECT_LE(rank_lo, target + bound) << "p=" << p << " value=" << value << " bound=" << bound;
    EXPECT_GE(rank_hi + bound, target) << "p=" << p << " value=" << value << " bound=" << bound;
  }
}

TEST(QuantileSketch, EmptyAndSingleValue) {
  QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.quantile(0.5), 0u);
  EXPECT_EQ(s.min(), 0u);
  EXPECT_EQ(s.max(), 0u);
  EXPECT_EQ(s.rank_error_bound(), 0u);

  s.record(42);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.sum(), 42u);
  EXPECT_EQ(s.min(), 42u);
  EXPECT_EQ(s.max(), 42u);
  for (const double p : {0.0, 0.5, 1.0}) EXPECT_EQ(s.quantile(p), 42u);
}

TEST(QuantileSketch, ExactBelowCapacity) {
  QuantileSketch s(64);
  for (std::uint64_t v = 1; v <= 63; ++v) s.record(v);
  EXPECT_EQ(s.rank_error_bound(), 0u);  // no compaction yet
  EXPECT_EQ(s.quantile(0.5), 32u);
  EXPECT_EQ(s.quantile(1.0), 63u);
  EXPECT_EQ(s.quantile(0.0), 1u);  // nearest-rank: ceil(0) clamps to rank 1
}

TEST(QuantileSketch, CapacityIsRoundedUpToEvenFloorEight) {
  EXPECT_EQ(QuantileSketch(0).buffer_capacity(), 8u);
  EXPECT_EQ(QuantileSketch(7).buffer_capacity(), 8u);
  EXPECT_EQ(QuantileSketch(9).buffer_capacity(), 10u);
  EXPECT_EQ(QuantileSketch(256).buffer_capacity(), 256u);
}

TEST(QuantileSketch, DeterministicAcrossIdenticalStreams) {
  QuantileSketch a(32);
  QuantileSketch b(32);
  Rng rng(7);
  std::vector<std::uint64_t> stream;
  for (int i = 0; i < 5000; ++i) stream.push_back(rng.next_below(1u << 20));
  for (const std::uint64_t v : stream) a.record(v);
  for (const std::uint64_t v : stream) b.record(v);
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.rank_error_bound(), b.rank_error_bound());
  EXPECT_EQ(a.stored_items(), b.stored_items());
  for (const double p : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.quantile(p), b.quantile(p)) << "p=" << p;
  }
}

TEST(QuantileSketch, RankErrorBoundOnUniformStream) {
  QuantileSketch s(128);
  Rng rng(13);
  std::vector<std::uint64_t> data;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = rng.next_below(1'000'000);
    data.push_back(v);
    s.record(v);
  }
  EXPECT_EQ(s.count(), data.size());
  // The bound must be a small fraction of the stream, or the sketch is
  // useless: with k=128 the certified bound stays well under 10% here.
  EXPECT_LT(s.rank_error_bound(), data.size() / 10);
  expect_quantiles_within_bound(s, data);
}

TEST(QuantileSketch, RankErrorBoundOnAdversarialStreams) {
  // Sorted, reverse-sorted, sawtooth and constant streams are the classic
  // compaction adversaries; the certified bound must hold on all of them.
  const std::size_t n = 10000;
  std::vector<std::vector<std::uint64_t>> streams;
  std::vector<std::uint64_t> sorted(n);
  for (std::size_t i = 0; i < n; ++i) sorted[i] = i;
  streams.push_back(sorted);
  std::vector<std::uint64_t> reversed(sorted.rbegin(), sorted.rend());
  streams.push_back(reversed);
  std::vector<std::uint64_t> sawtooth(n);
  for (std::size_t i = 0; i < n; ++i) sawtooth[i] = i % 97;
  streams.push_back(sawtooth);
  streams.push_back(std::vector<std::uint64_t>(n, 5));

  for (const auto& data : streams) {
    QuantileSketch s(64);
    for (const std::uint64_t v : data) s.record(v);
    EXPECT_LT(s.rank_error_bound(), data.size() / 4);
    expect_quantiles_within_bound(s, data);
  }
}

TEST(QuantileSketch, MergePreservesCountSumMinMax) {
  QuantileSketch a(32);
  QuantileSketch b(32);
  Rng rng(99);
  std::uint64_t sum = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t v = 1 + rng.next_below(1000);
    sum += v;
    (i % 2 == 0 ? a : b).record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), 3000u);
  EXPECT_EQ(a.sum(), sum);
  EXPECT_GE(a.min(), 1u);
  EXPECT_LE(a.max(), 1000u);
}

TEST(QuantileSketch, MergeIsAssociativeWithinCertifiedBounds) {
  // Bitwise associativity is not promised (compaction order differs), but
  // both associations must certify bounds that hold against the union.
  Rng rng(3);
  std::vector<std::uint64_t> data;
  QuantileSketch parts[3] = {QuantileSketch(32), QuantileSketch(32), QuantileSketch(32)};
  for (int i = 0; i < 9000; ++i) {
    const std::uint64_t v = rng.next_below(1u << 16);
    data.push_back(v);
    parts[i % 3].record(v);
  }

  QuantileSketch left(32);   // (p0 + p1) + p2
  left.merge(parts[0]);
  left.merge(parts[1]);
  left.merge(parts[2]);
  QuantileSketch right(32);  // p0 + (p1 + p2)
  QuantileSketch inner(32);
  inner.merge(parts[1]);
  inner.merge(parts[2]);
  right.merge(parts[0]);
  right.merge(inner);

  EXPECT_EQ(left.count(), right.count());
  EXPECT_EQ(left.sum(), right.sum());
  expect_quantiles_within_bound(left, data);
  expect_quantiles_within_bound(right, data);
}

TEST(QuantileSketch, MergeIntoEmptyMatchesSource) {
  QuantileSketch src(16);
  for (std::uint64_t v = 0; v < 500; ++v) src.record(v * 3);
  QuantileSketch dst(16);
  dst.merge(src);
  EXPECT_EQ(dst.count(), src.count());
  EXPECT_EQ(dst.sum(), src.sum());
  EXPECT_EQ(dst.min(), src.min());
  EXPECT_EQ(dst.max(), src.max());
  for (const double p : {0.1, 0.5, 0.9}) EXPECT_EQ(dst.quantile(p), src.quantile(p));
}

TEST(QuantileSketch, QuantileReturnsRecordedValues) {
  // The sketch keeps real samples (never interpolates), so every reported
  // quantile must be a value that was actually recorded.
  QuantileSketch s(16);
  std::vector<std::uint64_t> data;
  Rng rng(21);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t v = rng.next_below(1u << 30);
    data.push_back(v);
    s.record(v);
  }
  std::sort(data.begin(), data.end());
  for (const double p : {0.05, 0.5, 0.95, 0.999}) {
    EXPECT_TRUE(std::binary_search(data.begin(), data.end(), s.quantile(p))) << "p=" << p;
  }
}

TEST(QuantileSketch, ChunkMergeIsExecutionOrderInvariant) {
  // The fixed-chunk reduction pattern: the stream is cut into a *fixed*
  // number of chunks, each chunk builds its own sketch, and the chunks
  // are merged into the result in chunk-index order (the server merges
  // its per-worker sketches the same way, in worker order).  Workers
  // may *execute* chunks in any order, so the merged sketch must depend
  // only on the chunk contents and the merge order — not on when each
  // chunk sketch was built.
  constexpr std::size_t kChunks = 16;
  Rng rng(31);
  std::vector<std::uint64_t> stream;
  for (int i = 0; i < 8000; ++i) stream.push_back(rng.next_below(1u << 24));
  const std::size_t per = stream.size() / kChunks;

  auto build_chunk = [&](std::size_t c) {
    QuantileSketch s(64);
    for (std::size_t i = c * per; i < (c + 1) * per; ++i) s.record(stream[i]);
    return s;
  };

  // Execution order 0,1,2,...  vs reversed; slots keyed by chunk index.
  std::vector<QuantileSketch> forward(kChunks, QuantileSketch(64));
  for (std::size_t c = 0; c < kChunks; ++c) forward[c] = build_chunk(c);
  std::vector<QuantileSketch> backward(kChunks, QuantileSketch(64));
  for (std::size_t c = kChunks; c-- > 0;) backward[c] = build_chunk(c);

  QuantileSketch a(64);
  for (std::size_t c = 0; c < kChunks; ++c) a.merge(forward[c]);
  QuantileSketch b(64);
  for (std::size_t c = 0; c < kChunks; ++c) b.merge(backward[c]);

  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.stored_items(), b.stored_items());
  EXPECT_EQ(a.rank_error_bound(), b.rank_error_bound());
  for (const double p : {0.01, 0.1, 0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(a.quantile(p), b.quantile(p)) << "p=" << p;
  }
}

TEST(QuantileSketch, ResetClearsEverything) {
  QuantileSketch s(16);
  for (std::uint64_t v = 0; v < 1000; ++v) s.record(v);
  ASSERT_GT(s.rank_error_bound(), 0u);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.sum(), 0u);
  EXPECT_EQ(s.stored_items(), 0u);
  EXPECT_EQ(s.rank_error_bound(), 0u);
  EXPECT_EQ(s.quantile(0.5), 0u);
  s.record(7);  // usable again after reset
  EXPECT_EQ(s.quantile(0.5), 7u);
}

}  // namespace
}  // namespace hublab
