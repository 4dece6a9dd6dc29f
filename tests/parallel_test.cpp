#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/parallel.hpp"

namespace hublab {
namespace {

// ---------------------------------------------------------------------------
// static_chunks: the chunking is the determinism anchor — boundaries must
// depend only on (range, chunk count), cover the range exactly, and differ
// in size by at most one.
// ---------------------------------------------------------------------------

void expect_valid_partition(std::size_t begin, std::size_t end, std::size_t chunks) {
  const auto parts = par::static_chunks(begin, end, chunks);
  const std::size_t size = end - begin;
  ASSERT_EQ(parts.size(), std::min(chunks, size));
  std::size_t cursor = begin;
  std::size_t min_len = size;
  std::size_t max_len = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i].index, i);
    EXPECT_EQ(parts[i].begin, cursor);
    EXPECT_LT(parts[i].begin, parts[i].end) << "empty chunk emitted";
    const std::size_t len = parts[i].end - parts[i].begin;
    min_len = std::min(min_len, len);
    max_len = std::max(max_len, len);
    cursor = parts[i].end;
  }
  EXPECT_EQ(cursor, end);
  if (!parts.empty()) {
    EXPECT_LE(max_len - min_len, 1u);
  }
}

TEST(StaticChunks, PartitionsExactlyAndEvenly) {
  expect_valid_partition(0, 10, 3);
  expect_valid_partition(0, 10, 10);
  expect_valid_partition(0, 3, 10);  // more chunks than items: no empties
  expect_valid_partition(5, 25, 4);
  expect_valid_partition(0, 1, 1);
  expect_valid_partition(7, 1000, 64);
}

TEST(StaticChunks, EmptyRangeYieldsNoChunks) {
  EXPECT_TRUE(par::static_chunks(0, 0, 4).empty());
  EXPECT_TRUE(par::static_chunks(9, 9, 1).empty());
}

TEST(StaticChunks, LargerChunksComeFirst) {
  // 10 items over 3 chunks: 4, 3, 3.
  const auto parts = par::static_chunks(0, 10, 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0].end - parts[0].begin, 4u);
  EXPECT_EQ(parts[1].end - parts[1].begin, 3u);
  EXPECT_EQ(parts[2].end - parts[2].begin, 3u);
}

TEST(StaticChunks, DependsOnlyOnRangeAndCount) {
  const auto a = par::static_chunks(3, 77, 5);
  const auto b = par::static_chunks(3, 77, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].begin, b[i].begin);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

// ---------------------------------------------------------------------------
// resolve_threads
// ---------------------------------------------------------------------------

TEST(ResolveThreads, ExplicitRequestWins) {
  ::setenv("HUBLAB_THREADS", "8", 1);
  EXPECT_EQ(par::resolve_threads(3), 3u);
  ::unsetenv("HUBLAB_THREADS");
}

TEST(ResolveThreads, FallsBackToEnvironmentThenOne) {
  ::unsetenv("HUBLAB_THREADS");
  EXPECT_EQ(par::resolve_threads(0), 1u);
  ::setenv("HUBLAB_THREADS", "6", 1);
  EXPECT_EQ(par::resolve_threads(0), 6u);
  ::setenv("HUBLAB_THREADS", "not-a-number", 1);
  EXPECT_EQ(par::resolve_threads(0), 1u);
  ::setenv("HUBLAB_THREADS", "0", 1);
  EXPECT_EQ(par::resolve_threads(0), 1u);
  ::unsetenv("HUBLAB_THREADS");
}

TEST(ResolveThreads, ClampsToMaxThreads) {
  EXPECT_EQ(par::resolve_threads(1'000'000), par::kMaxThreads);
  ::setenv("HUBLAB_THREADS", "99999", 1);
  EXPECT_EQ(par::resolve_threads(0), par::kMaxThreads);
  ::unsetenv("HUBLAB_THREADS");
}

TEST(HardwareThreads, AtLeastOne) { EXPECT_GE(par::hardware_threads(), 1u); }

// ---------------------------------------------------------------------------
// parallel_for / run_chunks semantics
// ---------------------------------------------------------------------------

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    std::vector<std::atomic<int>> visits(257);
    par::parallel_for(0, visits.size(), threads, [&](const par::ChunkRange& chunk) {
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < visits.size(); ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << " with threads=" << threads;
    }
  }
}

TEST(ParallelFor, ChunkOrderReductionIsThreadCountInvariant) {
  // The canonical usage pattern: per-chunk slots keyed by chunk.index,
  // reduced in chunk order.  With a chunk count fixed by the caller, the
  // result must not depend on how many workers execute the chunks.
  const auto chunks = par::static_chunks(0, 1000, 8);
  auto run = [&](std::size_t threads) {
    std::vector<std::uint64_t> slots(chunks.size(), 0);
    par::run_chunks(chunks, threads, [&](const par::ChunkRange& chunk) {
      for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
        slots[chunk.index] = slots[chunk.index] * 31 + i;
      }
    });
    std::uint64_t acc = 0;
    for (const std::uint64_t s : slots) acc = acc * 1315423911u + s;
    return acc;
  };
  const std::uint64_t one = run(1);
  EXPECT_EQ(run(2), one);
  EXPECT_EQ(run(4), one);
  EXPECT_EQ(run(7), one);
}

TEST(ParallelFor, EmptyRangeIsANoop) {
  bool ran = false;
  par::parallel_for(5, 5, 4, [&](const par::ChunkRange&) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, NestedCallsRunInline) {
  std::atomic<int> inner_runs{0};
  std::atomic<int> nested_seen{0};
  par::parallel_for(0, 4, 4, [&](const par::ChunkRange&) {
    EXPECT_TRUE(par::in_parallel_region());
    par::parallel_for(0, 3, 4, [&](const par::ChunkRange&) {
      inner_runs.fetch_add(1, std::memory_order_relaxed);
      if (par::in_parallel_region()) nested_seen.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_FALSE(par::in_parallel_region());
  // 4 outer chunks each run 3 inner chunks inline.
  EXPECT_EQ(inner_runs.load(), 12);
  EXPECT_EQ(nested_seen.load(), 12);
}

TEST(ParallelFor, RethrowsLowestIndexedChunkException) {
  // Same 4-way chunking executed by 1 and by 4 workers: both paths must
  // surface the lowest-indexed failing chunk (deterministic across
  // schedules).
  const auto chunks = par::static_chunks(0, 100, 4);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    try {
      par::run_chunks(chunks, threads, [&](const par::ChunkRange& chunk) {
        if (chunk.index == 1 || chunk.index == 3) {
          throw std::runtime_error("chunk " + std::to_string(chunk.index));
        }
      });
      FAIL() << "expected an exception (threads=" << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 1") << "threads=" << threads;
    }
  }
}

TEST(ParallelFor, PoolIsReusableAfterAnException) {
  EXPECT_THROW(
      par::parallel_for(0, 8, 4, [](const par::ChunkRange&) { throw std::logic_error("boom"); }),
      std::logic_error);
  std::atomic<std::uint64_t> sum{0};
  par::parallel_for(0, 100, 4, [&](const par::ChunkRange& chunk) {
    std::uint64_t local = 0;
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) local += i;
    sum.fetch_add(local, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(RunChunks, HonorsCallerSuppliedChunkList) {
  // Caller-fixed chunking (the serve loop's role list): 5 uneven chunks, results
  // keyed by index.
  const std::vector<par::ChunkRange> chunks{
      {0, 10, 0}, {10, 11, 1}, {11, 40, 2}, {40, 41, 3}, {41, 64, 4}};
  std::vector<std::size_t> counts(chunks.size(), 0);
  par::run_chunks(chunks, 4, [&](const par::ChunkRange& chunk) {
    counts[chunk.index] = chunk.end - chunk.begin;
  });
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::size_t{0}), 64u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[4], 23u);
}

TEST(RunChunks, EmptyListIsANoop) {
  par::run_chunks({}, 4, [](const par::ChunkRange&) { FAIL() << "body ran"; });
}

TEST(WorkerIndex, CallerIsZeroAndPoolIndicesAreBounded) {
  // The observability layer (Tracer tid, per-worker busy accounting,
  // profiler stack roots) keys on worker_index(): 0 is the caller, pool
  // workers get fixed indices in [1, kMaxThreads).
  EXPECT_EQ(par::worker_index(), 0u);
  // 16 single-item chunks on 4 executors: every chunk must see a fixed
  // executor index below the cap (0 = caller, 1+ = pool workers).
  std::vector<par::ChunkRange> chunks;
  for (std::size_t i = 0; i < 16; ++i) chunks.push_back({i, i + 1, i});
  std::vector<std::size_t> by_chunk(chunks.size(), par::kMaxThreads);
  par::run_chunks(chunks, 4, [&](const par::ChunkRange& chunk) {
    by_chunk[chunk.index] = par::worker_index();
  });
  for (std::size_t i = 0; i < by_chunk.size(); ++i) {
    EXPECT_LT(by_chunk[i], par::kMaxThreads) << "chunk " << i << " never ran";
  }
  // threads==1 runs everything inline on the caller (index 0), and the
  // caller is back at 0 afterwards.
  std::vector<std::size_t> inline_run(2, par::kMaxThreads);
  par::run_chunks({{0, 1, 0}, {1, 2, 1}}, 1, [&](const par::ChunkRange& chunk) {
    inline_run[chunk.index] = par::worker_index();
  });
  EXPECT_EQ(inline_run[0], 0u);
  EXPECT_EQ(inline_run[1], 0u);
  EXPECT_EQ(par::worker_index(), 0u);
}

}  // namespace
}  // namespace hublab
