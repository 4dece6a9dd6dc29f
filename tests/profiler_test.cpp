/// \file profiler_test.cpp
/// Sampling profiler (util/profiler.hpp): arm/disarm lifecycle, sample
/// capture under CPU load, folded-stack output shape and determinism, the
/// `perf.samples` counter contract, and the RSS piggyback sampling
/// (util/resource.hpp satellite).

#include "util/profiler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "util/metrics.hpp"
#include "util/resource.hpp"
#include "util/timer.hpp"

namespace hublab {

/// A known hot function for the leaf-frame test: external linkage (the
/// test binary exports its symbols, so dladdr can name it) and never
/// inlined, so samples taken while it spins end in its own frame.
__attribute__((noinline)) std::uint64_t profiler_test_busy_spin(std::uint64_t ns) {
  const std::uint64_t start = monotonic_ns();
  std::uint64_t x = 1;
  do {
    for (int i = 0; i < 1000000; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  } while (monotonic_ns() - start < ns);
  return x;
}

namespace {

/// Burn CPU until the profiler has captured at least one sample (SIGPROF
/// counts CPU time, so sleeping would never tick) — bounded so a broken
/// profiler fails the expectations instead of hanging the test.
void burn_until_sampled() {
  volatile std::uint64_t sink = 0;
  for (std::uint64_t outer = 0; outer < 200000 && prof::samples() == 0; ++outer) {
    for (std::uint64_t i = 0; i < 10000; ++i) sink = sink + i;
  }
}

TEST(Profiler, LifecycleAndSampleCapture) {
  if (!prof::supported()) {
    EXPECT_FALSE(prof::start());
    prof::stop();  // must be a harmless no-op
    GTEST_SKIP() << "sampling profiler unsupported on this platform";
  }
  metrics::registry().reset();
  prof::reset();
  EXPECT_EQ(prof::samples(), 0u);
  ASSERT_TRUE(prof::start(prof::ProfilerConfig{997}));
  EXPECT_TRUE(prof::running());
  EXPECT_FALSE(prof::start()) << "double start must be refused";

  burn_until_sampled();
  prof::stop();
  EXPECT_FALSE(prof::running());
  EXPECT_GT(prof::samples(), 0u);

  // stop() publishes the counters into the registry (compiled-out under
  // HUBLAB_METRICS=OFF, where the registry is a stub).
#if HUBLAB_METRICS_ENABLED
  EXPECT_EQ(metrics::registry().counter("perf.samples").value(), prof::samples());
  EXPECT_EQ(metrics::registry().counter("perf.sample_drops").value(), prof::dropped());
#endif

  // Folded output: non-empty, worker-rooted lines ending in a count, and
  // byte-identical across two calls (deterministic aggregation order).
  std::ostringstream first;
  prof::write_folded(first);
  const std::string folded = first.str();
  ASSERT_FALSE(folded.empty());
  EXPECT_EQ(folded.rfind("worker", 0), 0u) << folded.substr(0, 120);
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    EXPECT_GT(std::stoull(line.substr(space + 1)), 0u) << line;
  }
  std::ostringstream second;
  prof::write_folded(second);
  EXPECT_EQ(folded, second.str());

  // reset() drops the samples (and the folded output with them).
  prof::reset();
  EXPECT_EQ(prof::samples(), 0u);
  std::ostringstream after_reset;
  prof::write_folded(after_reset);
  EXPECT_TRUE(after_reset.str().empty());
}

TEST(Profiler, TicksSampleRssPeak) {
  if (!prof::supported()) GTEST_SKIP() << "unsupported";
  // The satellite contract: profiler ticks feed sample_rss_peak(), so a
  // profiled run's peak_rss_bytes() reflects in-flight residency.
  prof::reset();
  ASSERT_TRUE(prof::start(prof::ProfilerConfig{997}));
  burn_until_sampled();
  prof::stop();
  if (current_rss_bytes() == 0) GTEST_SKIP() << "no /proc RSS on this platform";
  EXPECT_GT(sampled_peak_rss_bytes(), 0u);
  EXPECT_GE(peak_rss_bytes(), sampled_peak_rss_bytes());
}

TEST(Profiler, ArmsAtTheSlowestRate) {
  // At kMinHz the timer period is a whole second, which setitimer accepts
  // only as tv_sec = 1 (a tv_usec of 1000000 is EINVAL).
  if (!prof::supported()) GTEST_SKIP() << "unsupported";
  prof::reset();
  ASSERT_TRUE(prof::start(prof::ProfilerConfig{prof::kMinHz}));
  EXPECT_TRUE(prof::running());
  prof::stop();
  EXPECT_FALSE(prof::running());
}

TEST(Profiler, LeafFrameIsTheInterruptedFunction) {
  if (!prof::supported()) GTEST_SKIP() << "unsupported";
  prof::reset();
  ASSERT_TRUE(prof::start(prof::ProfilerConfig{1000}));
  const std::uint64_t spun = profiler_test_busy_spin(300'000'000);
  prof::stop();
  EXPECT_NE(spun, 0u);
  // Each folded line is "worker<i>;root;...;leaf <count>".
  std::ostringstream folded;
  prof::write_folded(folded);
  std::istringstream lines(folded.str());
  std::string line;
  std::uint64_t total = 0;
  std::uint64_t in_spin = 0;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::uint64_t count = std::stoull(line.substr(space + 1));
    const std::size_t leaf = line.rfind(';', space) + 1;
    total += count;
    if (line.compare(leaf, space - leaf, "hublab::profiler_test_busy_spin(unsigned_long)") == 0) {
      in_spin += count;
    }
  }
  ASSERT_GT(total, 0u);
  EXPECT_GE(2 * in_spin, total) << in_spin << " of " << total << " samples end in the spin:\n"
                                << folded.str().substr(0, 2000);
}

TEST(Resource, SampledPeakIsMonotoneMax) {
  const std::uint64_t now = current_rss_bytes();
  if (now == 0) GTEST_SKIP() << "no /proc RSS on this platform";
  sample_rss_peak();
  const std::uint64_t peak = sampled_peak_rss_bytes();
  EXPECT_GE(peak, now / 2) << "sampled peak wildly below current RSS";
  sample_rss_peak();
  EXPECT_GE(sampled_peak_rss_bytes(), peak) << "sampled peak must never decrease";
}

}  // namespace
}  // namespace hublab
