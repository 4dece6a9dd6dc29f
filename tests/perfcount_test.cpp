/// \file perfcount_test.cpp
/// Hardware counters (util/perfcount.hpp): HwCounters arithmetic and the
/// derived rates, the disabled-by-default / opt-in contract, live reads
/// where the host supports them, and the schema-v3 `tid`/`hw` members of
/// the bench-report validator.

#include "util/perfcount.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/bench_schema.hpp"
#include "util/json.hpp"

namespace hublab {
namespace {

TEST(HwCounters, DerivedRates) {
  perf::HwCounters c;
  EXPECT_DOUBLE_EQ(c.ipc(), 0.0);  // no cycles observed -> no division
  EXPECT_DOUBLE_EQ(c.llc_miss_rate(), 0.0);
  EXPECT_DOUBLE_EQ(c.branch_miss_rate(), 0.0);
  c.cycles = 1000;
  c.instructions = 2500;
  c.llc_misses = 25;
  c.branch_misses = 5;
  EXPECT_DOUBLE_EQ(c.ipc(), 2.5);
  EXPECT_DOUBLE_EQ(c.llc_miss_rate(), 0.01);
  EXPECT_DOUBLE_EQ(c.branch_miss_rate(), 0.002);
}

TEST(HwCounters, AccumulateAndDelta) {
  perf::HwCounters total;
  perf::HwCounters a;
  a.cycles = 10;
  a.instructions = 20;
  a.l1d_misses = 1;
  a.valid = true;
  perf::HwCounters b;
  b.cycles = 5;
  b.instructions = 7;
  b.llc_misses = 2;
  b.branch_misses = 3;
  b.valid = true;
  total += a;
  total += b;
  EXPECT_EQ(total.cycles, 15u);
  EXPECT_EQ(total.instructions, 27u);
  EXPECT_EQ(total.l1d_misses, 1u);
  EXPECT_EQ(total.llc_misses, 2u);
  EXPECT_EQ(total.branch_misses, 3u);
  EXPECT_TRUE(total.valid);

  // Accumulating an invalid contribution keeps the sum valid, and an
  // all-invalid sum stays invalid.
  perf::HwCounters invalid_sum;
  invalid_sum += perf::HwCounters{};
  EXPECT_FALSE(invalid_sum.valid);
  total += perf::HwCounters{};
  EXPECT_TRUE(total.valid);

  const perf::HwCounters d = total.minus(a);
  EXPECT_EQ(d.cycles, 5u);
  EXPECT_EQ(d.instructions, 7u);
  EXPECT_EQ(d.llc_misses, 2u);
  EXPECT_TRUE(d.valid);
  // A delta against an invalid begin snapshot is itself invalid.
  EXPECT_FALSE(total.minus(perf::HwCounters{}).valid);
}

// Ordering matters: this test asserts the process-wide default before any
// other test flips it, so it must run before EnableFollowsAvailability
// (gtest runs tests in declaration order within a file).
TEST(PerfCount, DisabledByDefault) {
  EXPECT_FALSE(perf::enabled());
  const perf::HwCounters c = perf::read_thread();
  EXPECT_FALSE(c.valid) << "reads must be invalid until set_enabled(true)";
  perf::HwCounters out;
  { perf::ScopedHw scope(out); }
  EXPECT_FALSE(out.valid);
  EXPECT_NE(std::string(perf::describe()), "");
}

TEST(PerfCount, EnableFollowsAvailability) {
  perf::set_enabled(true);
  EXPECT_EQ(perf::enabled(), perf::available())
      << "enabled() must track the host probe, not just the request";
  if (perf::available()) {
    const perf::HwCounters begin = perf::read_thread();
    EXPECT_TRUE(begin.valid);
    // Burn a little CPU so the delta is visibly non-zero.
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 2000000; ++i) sink = sink + i;
    const perf::HwCounters end = perf::read_thread();
    ASSERT_TRUE(end.valid);
    const perf::HwCounters d = end.minus(begin);
    EXPECT_TRUE(d.valid);
    EXPECT_GT(d.instructions, 0u);
    perf::HwCounters scoped;
    {
      perf::ScopedHw scope(scoped);
      for (std::uint64_t i = 0; i < 100000; ++i) sink = sink + i;
    }
    EXPECT_TRUE(scoped.valid);
  }
  perf::set_enabled(false);
  EXPECT_FALSE(perf::enabled());
  EXPECT_FALSE(perf::read_thread().valid);
}

/// Minimal report with one phase carrying the optional `tid` and `hw`
/// members; tests below mutate copies of it.
const char* kHwDoc = R"({
  "schema_version": 4,
  "bench": "probe",
  "git_rev": "abc",
  "smoke": true,
  "ok": true,
  "repetitions": 1,
  "start_unix_ms": 5,
  "peak_rss_bytes": 10,
  "graphs": [],
  "phases": [
    {"name": "p", "wall_s": 0.1, "tid": 2,
     "hw": {"cycles": 100, "instructions": 150, "ipc": 1.5, "llc_misses": 3}}
  ],
  "counters": {},
  "gauges": {}
})";

std::vector<std::string> validate(const std::string& text) {
  return validate_bench_json(parse_json(text));
}

std::string with(const std::string& from, const std::string& to) {
  std::string doc = kHwDoc;
  doc.replace(doc.find(from), from.size(), to);
  return doc;
}

TEST(BenchSchemaV3, AcceptsPhaseTidAndHw) {
  const std::vector<std::string> errors = validate(kHwDoc);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
}

TEST(BenchSchemaV3, HwAndTidAreOptional) {
  const std::string bare = with(
      R"("tid": 2,
     "hw": {"cycles": 100, "instructions": 150, "ipc": 1.5, "llc_misses": 3})",
      R"("depth": 0)");
  EXPECT_TRUE(validate(bare).empty());
}

TEST(BenchSchemaV3, RejectsHwMissingRequiredMember) {
  const std::string no_ipc = with(R"("ipc": 1.5, )", "");
  const std::vector<std::string> errors = validate(no_ipc);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("hw.ipc"), std::string::npos) << errors.front();
}

TEST(BenchSchemaV3, RejectsNegativeTid) {
  EXPECT_FALSE(validate(with(R"("tid": 2)", R"("tid": -1)")).empty());
}

TEST(BenchSchemaV3, RejectsNegativeHwCounter) {
  EXPECT_FALSE(validate(with(R"("llc_misses": 3)", R"("llc_misses": -3)")).empty());
}

TEST(BenchSchemaV3, RejectsNonObjectHw) {
  const std::string bad = with(
      R"({"cycles": 100, "instructions": 150, "ipc": 1.5, "llc_misses": 3})",
      R"("fast")");
  const std::vector<std::string> errors = validate(bad);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("hw"), std::string::npos);
}

TEST(BenchSchemaV3, RejectsVersionAboveCurrent) {
  EXPECT_FALSE(validate(with(R"("schema_version": 4)", R"("schema_version": 5)")).empty());
}

}  // namespace
}  // namespace hublab
