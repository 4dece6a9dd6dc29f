#include "util/bench_compare.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace hublab {
namespace {

/// A minimal report with one slow phase, one fast phase, a
/// counter, a gauge, a histogram and a latency sketch — enough surface to
/// exercise every comparison section.
std::string fixture_json(double build_wall_s, double tiny_wall_s, double counter_value,
                         double sketch_p99) {
  std::ostringstream os;
  os << R"({
    "schema_version": 4,
    "bench": "fixture",
    "git_rev": "deadbeef",
    "smoke": true,
    "ok": true,
    "repetitions": 1,
    "start_unix_ms": 1754000000000,
    "peak_rss_bytes": 1048576,
    "graphs": [{"family": "gadget-g", "n": 100, "m": 400}],
    "phases": [
      {"name": "build", "wall_s": )"
     << build_wall_s << R"(, "depth": 0, "counters": {}},
      {"name": "tiny", "wall_s": )"
     << tiny_wall_s << R"(, "depth": 0, "counters": {}}
    ],
    "counters": {"pll.pruned": )"
     << counter_value << R"(},
    "gauges": {"labels.bytes": 4096},
    "histograms": {"label.size": {"count": 100, "sum": 1000, "min": 1, "max": 64,
                                  "p50": 8, "p90": 20, "p99": 60}},
    "sketches": {"query.ns": {"count": 500, "sum": 500000, "min": 100, "max": 9000,
                              "p50": 800, "p90": 2000, "p99": )"
     << sketch_p99 << R"(, "p999": 8000, "rank_error": 4}}
  })";
  return os.str();
}

JsonValue fixture(double build_wall_s = 0.5, double tiny_wall_s = 1e-5,
                  double counter_value = 1000, double sketch_p99 = 4000) {
  return parse_json(fixture_json(build_wall_s, tiny_wall_s, counter_value, sketch_p99));
}

/// JsonValue::find is const-only; tests that doctor a parsed fixture need a
/// writable handle.
JsonValue* mutable_member(JsonValue& obj, std::string_view name) {
  for (auto& [key, value] : obj.object_members) {
    if (key == name) return &value;
  }
  return nullptr;
}

TEST(BenchCompare, IdenticalReportsHaveNoRegressions) {
  const CompareReport report = compare_bench_json(fixture(), fixture(), CompareOptions{});
  EXPECT_TRUE(report.errors.empty());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.num_regressions(), 0u);
  EXPECT_FALSE(report.rows.empty());
  for (const CompareRow& row : report.rows) EXPECT_EQ(row.base, row.next) << row.metric;
}

TEST(BenchCompare, DetectsInjectedTwoTimesSlowdown) {
  // The acceptance fixture: every wall-clock metric doubled must trip the
  // default 20% threshold.
  const JsonValue base = fixture(0.5, 1e-5, 1000, 4000);
  const JsonValue slow = fixture(1.0, 2e-5, 1000, 8000);
  const CompareReport report = compare_bench_json(base, slow, CompareOptions{});
  EXPECT_TRUE(report.errors.empty());
  EXPECT_FALSE(report.ok());
  bool build_regressed = false;
  bool total_regressed = false;
  bool p99_regressed = false;
  bool tiny_regressed = false;
  for (const CompareRow& row : report.rows) {
    if (row.metric == "phase.build.wall_s") build_regressed = row.regressed;
    if (row.metric == "total.wall_s") total_regressed = row.regressed;
    if (row.metric == "sketch.query.ns.p99") p99_regressed = row.regressed;
    if (row.metric == "phase.tiny.wall_s") tiny_regressed = row.regressed;
  }
  EXPECT_TRUE(build_regressed);
  EXPECT_TRUE(total_regressed);
  EXPECT_TRUE(p99_regressed);
  // Phases under 1 ms never gate, even when doubled: too noisy.
  EXPECT_FALSE(tiny_regressed);
}

TEST(BenchCompare, ImprovementsNeverRegress) {
  const CompareReport report =
      compare_bench_json(fixture(0.5, 1e-5, 1000, 4000), fixture(0.1, 1e-5, 200, 500),
                         CompareOptions{});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.num_regressions(), 0u);
}

TEST(BenchCompare, StructuralCountersUseTighterThreshold) {
  // +10% on a counter is under the 20% wall threshold but over the 5%
  // structural one.
  const CompareReport report =
      compare_bench_json(fixture(0.5, 1e-5, 1000, 4000), fixture(0.5, 1e-5, 1100, 4000),
                         CompareOptions{});
  EXPECT_EQ(report.num_regressions(), 1u);
  for (const CompareRow& row : report.rows) {
    if (row.metric == "counter.pll.pruned") {
      EXPECT_TRUE(row.regressed);
      EXPECT_NEAR(row.delta_pct, 10.0, 1e-9);
    }
  }
}

/// A fixture whose gauges span the three direction classes: a throughput
/// (`_qps` segment), a latency (`_ns` segment) and a structural size.
JsonValue gauge_fixture(double peak_qps, double p99_ns, double bytes) {
  JsonValue doc = fixture();
  std::ostringstream os;
  os << R"({"pract.serve_peak_qps.flat": )" << peak_qps
     << R"(, "pract.serve_p99_at_halfpeak_ns.flat": )" << p99_ns
     << R"(, "labels.bytes": )" << bytes << "}";
  *mutable_member(doc, "gauges") = parse_json(os.str());
  return doc;
}

TEST(BenchCompare, ThroughputGaugesGateDecreasesOnly) {
  // A qps gauge doubling is an improvement; the increase-bad rule must not
  // fire on it, and a drop past the threshold factor must.
  const JsonValue base = gauge_fixture(1000, 5000, 4096);
  const CompareReport faster =
      compare_bench_json(base, gauge_fixture(2000, 5000, 4096), CompareOptions{});
  EXPECT_TRUE(faster.ok()) << "a throughput increase regressed";
  // Default threshold 20%: the symmetric bound gates next < base / 1.2.
  const CompareReport small_drop =
      compare_bench_json(base, gauge_fixture(900, 5000, 4096), CompareOptions{});
  EXPECT_TRUE(small_drop.ok());
  const CompareReport big_drop =
      compare_bench_json(base, gauge_fixture(800, 5000, 4096), CompareOptions{});
  EXPECT_EQ(big_drop.num_regressions(), 1u);
  for (const CompareRow& row : big_drop.rows) {
    if (row.metric == "gauge.pract.serve_peak_qps.flat") {
      EXPECT_TRUE(row.regressed);
    }
  }
}

TEST(BenchCompare, LatencyGaugesUseWallThresholdNotStructural) {
  // +30% on an `_ns` gauge: over the 5% structural threshold but under the
  // 20-times-looser wall threshold it actually gates through.
  const JsonValue base = gauge_fixture(1000, 5000, 4096);
  CompareOptions options;
  options.threshold_pct = 50.0;
  const CompareReport noisy =
      compare_bench_json(base, gauge_fixture(1000, 6500, 4096), options);
  EXPECT_TRUE(noisy.ok()) << "+30% latency gauge regressed at a 50% threshold";
  const CompareReport slow =
      compare_bench_json(base, gauge_fixture(1000, 9000, 4096), options);
  EXPECT_EQ(slow.num_regressions(), 1u);
  // Latency dropping is an improvement, never a regression.
  const CompareReport fast =
      compare_bench_json(base, gauge_fixture(1000, 100, 4096), options);
  EXPECT_TRUE(fast.ok());
}

TEST(BenchCompare, StructuralGaugesKeepTheTighterThreshold) {
  // +10% on a plain gauge: under the wall threshold, over the structural.
  const CompareReport report = compare_bench_json(
      gauge_fixture(1000, 5000, 4096), gauge_fixture(1000, 5000, 4506), CompareOptions{});
  EXPECT_EQ(report.num_regressions(), 1u);
  for (const CompareRow& row : report.rows) {
    if (row.metric == "gauge.labels.bytes") {
      EXPECT_TRUE(row.regressed);
    }
  }
}

TEST(BenchCompare, ThresholdIsConfigurable) {
  CompareOptions loose;
  loose.threshold_pct = 150.0;
  loose.structural_threshold_pct = 150.0;
  const CompareReport report =
      compare_bench_json(fixture(0.5, 1e-5, 1000, 4000), fixture(1.0, 2e-5, 1000, 8000), loose);
  EXPECT_TRUE(report.ok()) << "2x slowdown must pass a 150% threshold";
}

TEST(BenchCompare, DroppedAndNewMetricsAreInformational) {
  const JsonValue base = fixture();
  JsonValue next = fixture();
  // Rename the counter: old name drops out, new name appears.
  JsonValue* counters = mutable_member(next, "counters");
  ASSERT_NE(counters, nullptr);
  counters->object_members[0].first = "pll.visited";
  const CompareReport report = compare_bench_json(base, next, CompareOptions{});
  EXPECT_TRUE(report.ok()) << "renames must not hard-fail old baselines";
  bool saw_dropped = false;
  bool saw_new = false;
  for (const CompareRow& row : report.rows) {
    saw_dropped = saw_dropped || row.metric == "counter.pll.pruned [dropped]";
    saw_new = saw_new || row.metric == "counter.pll.visited [new]";
  }
  EXPECT_TRUE(saw_dropped);
  EXPECT_TRUE(saw_new);
}

TEST(BenchCompare, SchemaViolationsSuppressRowDiff) {
  JsonValue bad = fixture();
  JsonValue* version = mutable_member(bad, "schema_version");
  ASSERT_NE(version, nullptr);
  version->number_value = 99;
  const CompareReport report = compare_bench_json(fixture(), bad, CompareOptions{});
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.errors.empty());
  EXPECT_TRUE(report.rows.empty());
  EXPECT_NE(report.errors.front().find("new: "), std::string::npos);
}

TEST(BenchCompare, TableListsRegressionsAndTrailer) {
  const CompareReport report =
      compare_bench_json(fixture(0.5, 1e-5, 1000, 4000), fixture(1.2, 1e-5, 1000, 4000),
                         CompareOptions{});
  std::ostringstream os;
  write_compare_table(os, report, /*all_rows=*/false);
  const std::string out = os.str();
  EXPECT_NE(out.find("phase.build.wall_s"), std::string::npos);
  EXPECT_NE(out.find("REGRESSED"), std::string::npos);
  EXPECT_NE(out.find("regression(s)"), std::string::npos);
  // Unchanged rows stay hidden without --all.
  EXPECT_EQ(out.find("gauge.labels.bytes"), std::string::npos);

  std::ostringstream all;
  write_compare_table(all, report, /*all_rows=*/true);
  EXPECT_NE(all.str().find("gauge.labels.bytes"), std::string::npos);
}

TEST(BenchCompare, TablePrintsErrorsForInvalidInput) {
  CompareReport report;
  report.errors.push_back("base: bench: missing");
  std::ostringstream os;
  write_compare_table(os, report);
  EXPECT_NE(os.str().find("error: base: bench: missing"), std::string::npos);
}

}  // namespace
}  // namespace hublab
