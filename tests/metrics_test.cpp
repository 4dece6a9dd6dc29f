#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "algo/shortest_paths.hpp"
#include "bench/harness.hpp"
#include "graph/generators.hpp"
#include "util/bench_schema.hpp"
#include "util/qsketch.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/querystats.hpp"
#include "util/trace.hpp"

namespace hublab {
namespace {

// Value-asserting tests are compiled only against the real metric classes;
// with HUBLAB_METRICS=OFF the stubs report zeros by design and only the
// API-surface and tracing/JSON tests below remain meaningful.
#if HUBLAB_METRICS_ENABLED

TEST(Counter, AddAndReset) {
  metrics::Registry reg;
  metrics::Counter& c = reg.counter("c");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(5);
  EXPECT_EQ(c.value(), 6u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, WrapsModulo2To64) {
  metrics::Registry reg;
  metrics::Counter& c = reg.counter("c");
  c.add(~0ULL);
  c.add(2);
  EXPECT_EQ(c.value(), 1u);
}

TEST(Gauge, SetAddReset) {
  metrics::Registry reg;
  metrics::Gauge& g = reg.gauge("g");
  g.set(-3);
  EXPECT_EQ(g.value(), -3);
  g.add(10);
  EXPECT_EQ(g.value(), 7);
  g.set(2);  // last write wins over accumulated state
  EXPECT_EQ(g.value(), 2);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(Histogram, BucketUpperBounds) {
  EXPECT_EQ(metrics::Histogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(metrics::Histogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(metrics::Histogram::bucket_upper_bound(2), 3u);
  EXPECT_EQ(metrics::Histogram::bucket_upper_bound(3), 7u);
  EXPECT_EQ(metrics::Histogram::bucket_upper_bound(64), ~0ULL);
}

TEST(Histogram, RecordsAndReportsPercentileAsBucketBound) {
  metrics::Registry reg;
  metrics::Histogram& h = reg.histogram("h");
  for (const std::uint64_t v : {1u, 2u, 3u, 4u}) h.record(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 10u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 4u);
  // Values 1 | 2,3 | 4 land in buckets 1 | 2 | 3.  The p50 rank (2 of 4) is
  // first covered by bucket 2 (upper bound 3); the max rank by bucket 3.
  EXPECT_EQ(h.percentile(0.5), 3u);
  EXPECT_EQ(h.percentile(1.0), 7u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 2u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

TEST(Registry, ReturnsStableReferences) {
  metrics::Registry reg;
  metrics::Counter& a = reg.counter("same");
  reg.counter("other").add(1);
  EXPECT_EQ(&a, &reg.counter("same"));
  EXPECT_EQ(&reg.gauge("same"), &reg.gauge("same"));  // separate namespace per kind
  EXPECT_EQ(&reg.histogram("same"), &reg.histogram("same"));
}

TEST(Registry, SnapshotsAreSortedByName) {
  metrics::Registry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(2);
  reg.counter("mid").add(3);
  const std::vector<metrics::CounterSnapshot> snap = reg.counters();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "alpha");
  EXPECT_EQ(snap[1].name, "mid");
  EXPECT_EQ(snap[2].name, "zeta");
  EXPECT_EQ(snap[0].value, 2u);
}

TEST(Registry, ResetZeroesValuesButKeepsRegistrations) {
  metrics::Registry reg;
  reg.counter("c").add(5);
  reg.gauge("g").set(-1);
  reg.histogram("h").record(9);
  reg.reset();
  ASSERT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.counters()[0].value, 0u);
  EXPECT_EQ(reg.gauges()[0].value, 0);
  EXPECT_EQ(reg.histograms()[0].count, 0u);
}

TEST(Registry, DumpIsDeterministic) {
  metrics::Registry reg;
  reg.counter("b.count").add(2);
  reg.counter("a.count").add(1);
  reg.gauge("size").set(42);
  reg.histogram("dist").record(3);
  std::ostringstream first;
  std::ostringstream second;
  reg.dump(first);
  reg.dump(second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("a.count"), std::string::npos);
  EXPECT_LT(first.str().find("a.count"), first.str().find("b.count"));
}

TEST(Registry, SketchRecordsMergesAndSnapshots) {
  metrics::Registry reg;
  metrics::Sketch& s = reg.sketch("lat");
  for (std::uint64_t v = 1; v <= 100; ++v) s.record(v);

  QuantileSketch shard;
  for (std::uint64_t v = 101; v <= 200; ++v) shard.record(v);
  s.merge(shard);

  const std::vector<metrics::SketchSnapshot> snaps = reg.sketches();
  ASSERT_EQ(snaps.size(), 1u);
  EXPECT_EQ(snaps[0].name, "lat");
  EXPECT_EQ(snaps[0].count, 200u);
  EXPECT_EQ(snaps[0].sum, 20100u);
  EXPECT_EQ(snaps[0].min, 1u);
  EXPECT_EQ(snaps[0].max, 200u);
  // 200 samples fit one buffer: quantiles are exact, rank error 0.
  EXPECT_EQ(snaps[0].p50, 100u);
  EXPECT_EQ(snaps[0].p90, 180u);
  EXPECT_EQ(snaps[0].p99, 198u);
  EXPECT_EQ(snaps[0].rank_error, 0u);

  reg.reset();
  ASSERT_EQ(reg.sketches().size(), 1u);
  EXPECT_EQ(reg.sketches()[0].count, 0u);
}

/// Value of a counter in the process-global registry (0 when unregistered).
std::uint64_t global_counter(std::string_view name) {
  for (const metrics::CounterSnapshot& c : metrics::registry().counters()) {
    if (c.name == name) return c.value;
  }
  return 0;
}

TEST(Registry, ShortestPathCountersCountAgainAfterReset) {
  // The searches add to static counter handles into the global registry;
  // reset() zeroes those counters in place, so every round counts the same.
  const Graph g = gen::grid(4, 4);
  std::uint64_t bidij_settled = 0;
  for (int round = 0; round < 2; ++round) {
    metrics::registry().reset();
    (void)bfs(g, 0);
    (void)dijkstra(g, 0);
    EXPECT_EQ(bidirectional_distance(g, 0, 15), 6u);
    metrics::QueryStats stats;
    EXPECT_EQ(bidirectional_distance_with_stats(g, 0, 15, stats), 6u);
    EXPECT_EQ(global_counter("sp.bfs.visited"), 16u) << "round " << round;
    EXPECT_EQ(global_counter("sp.dijkstra.settled"), 16u) << "round " << round;
    EXPECT_GT(global_counter("sp.bidij.settled"), 0u) << "round " << round;
    if (round == 0) bidij_settled = global_counter("sp.bidij.settled");
    EXPECT_EQ(global_counter("sp.bidij.settled"), bidij_settled) << "round " << round;
  }
}

TEST(Tracer, SpanCapturesCounterDeltas) {
  metrics::Registry reg;
  Tracer tracer(reg);
  reg.counter("work").add(3);
  {
    auto span = tracer.span("phase");
    reg.counter("work").add(7);
    reg.counter("fresh").add(2);  // registered mid-span: delta vs absent = 2
  }
  ASSERT_EQ(tracer.records().size(), 1u);
  const Tracer::Record& r = tracer.records()[0];
  EXPECT_FALSE(r.open);
  ASSERT_EQ(r.counter_deltas.size(), 2u);
  EXPECT_EQ(r.counter_deltas[0].name, "fresh");
  EXPECT_EQ(r.counter_deltas[0].value, 2u);
  EXPECT_EQ(r.counter_deltas[1].name, "work");
  EXPECT_EQ(r.counter_deltas[1].value, 7u);
}

#endif  // HUBLAB_METRICS_ENABLED

TEST(Tracer, RecordsNestedSpansWithDepthAndParent) {
  metrics::Registry reg;
  Tracer tracer(reg);
  {
    auto outer = tracer.span("outer");
    {
      auto inner = tracer.span("inner");
    }
    auto sibling = tracer.span("sibling");
  }
  const std::vector<Tracer::Record>& rs = tracer.records();
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(rs[0].name, "outer");
  EXPECT_EQ(rs[0].depth, 0);
  EXPECT_EQ(rs[0].parent, Tracer::kNoParent);
  EXPECT_EQ(rs[1].name, "inner");
  EXPECT_EQ(rs[1].depth, 1);
  EXPECT_EQ(rs[1].parent, 0u);
  EXPECT_EQ(rs[2].name, "sibling");
  EXPECT_EQ(rs[2].parent, 0u);
  for (const Tracer::Record& r : rs) {
    EXPECT_FALSE(r.open);
    EXPECT_GE(r.dur_s, 0.0);
  }
  EXPECT_GE(rs[0].dur_s, rs[1].dur_s);  // outer encloses inner
}

TEST(Tracer, SpanEndIsIdempotentAndMoveSafe) {
  metrics::Registry reg;
  Tracer tracer(reg);
  auto span = tracer.span("a");
  auto moved = std::move(span);
  moved.end();
  moved.end();  // no-op
  ASSERT_EQ(tracer.records().size(), 1u);
  EXPECT_FALSE(tracer.records()[0].open);
  tracer.clear();
  EXPECT_TRUE(tracer.records().empty());
}

TEST(Tracer, ChromeTraceIsValidJson) {
  metrics::Registry reg;
  Tracer tracer(reg);
  {
    auto outer = tracer.span("outer");
    auto inner = tracer.span("in\"ner");  // name needing escaping
    inner.end();
  }
  std::ostringstream os;
  tracer.write_chrome_trace(os);
  const JsonValue doc = parse_json(os.str());
  ASSERT_TRUE(doc.is_object());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array_items.size(), 2u);
  const JsonValue* ph = events->array_items[0].find("ph");
  ASSERT_NE(ph, nullptr);
  EXPECT_EQ(ph->string_value, "X");
}

TEST(Json, EscapeHandlesQuotesBackslashesAndControls) {
  // escape() returns the quoted JSON string literal.
  EXPECT_EQ(JsonWriter::escape("plain"), "\"plain\"");
  EXPECT_EQ(JsonWriter::escape("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(JsonWriter::escape("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(JsonWriter::escape("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(Json, WriterParseRoundTrip) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("name", "he said \"hi\"");
  w.kv("count", std::uint64_t{18446744073709551615ULL});
  w.kv("delta", std::int64_t{-5});
  w.kv("ratio", 0.25);
  w.kv("ok", true);
  w.key("missing").value_null();
  w.key("items").begin_array();
  w.value(std::uint64_t{1});
  w.value(std::uint64_t{2});
  w.end_array();
  w.key("nested").begin_object();
  w.kv("deep", false);
  w.end_object();
  w.end_object();
  EXPECT_TRUE(w.done());

  const JsonValue doc = parse_json(os.str());
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("name")->string_value, "he said \"hi\"");
  EXPECT_DOUBLE_EQ(doc.find("ratio")->number_value, 0.25);
  EXPECT_EQ(doc.find("delta")->number_value, -5.0);
  EXPECT_TRUE(doc.find("ok")->bool_value);
  EXPECT_TRUE(doc.find("missing")->is_null());
  ASSERT_EQ(doc.find("items")->array_items.size(), 2u);
  EXPECT_EQ(doc.find("items")->array_items[1].number_value, 2.0);
  EXPECT_FALSE(doc.find("nested")->find("deep")->bool_value);
  EXPECT_EQ(doc.find("absent"), nullptr);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)parse_json("{"), ParseError);
  EXPECT_THROW((void)parse_json("{\"a\": }"), ParseError);
  EXPECT_THROW((void)parse_json("[1, 2] trailing"), ParseError);
  EXPECT_THROW((void)parse_json(""), ParseError);
  EXPECT_THROW((void)parse_json("{'single': 1}"), ParseError);
}

TEST(Json, OutOfRangeNumbersThrowParseError) {
  // Well-formed numbers outside the double range (overflow and underflow)
  // are malformed input too: ParseError, not a standard-library exception.
  for (const char* text : {"1e999", "-1e999", "[1e400]", "1e-400"}) {
    EXPECT_THROW((void)parse_json(text), ParseError) << text;
  }
  EXPECT_DOUBLE_EQ(parse_json("1e308").number_value, 1e308);
  EXPECT_DOUBLE_EQ(parse_json("-2.5e-3").number_value, -2.5e-3);
}

std::string make_harness_json(bool ok) {
  const char* argv_smoke[] = {"metrics_test", "--smoke"};
  bench::Harness harness(2, const_cast<char**>(argv_smoke), "schema_probe", "probe banner");
  harness.add_graph("gnm", 100, 300);
  harness.set_repetitions(3);
  {
    auto span = harness.phase("work");
    metrics::registry().counter("probe.events").add(4);
  }
  std::ostringstream os;
  harness.write_json(os, ok);
  return os.str();
}

TEST(BenchSchema, HarnessJsonValidatesAndIsDeterministic) {
  const std::string text = make_harness_json(true);
  const JsonValue doc = parse_json(text);
  const std::vector<std::string> errors = validate_bench_json(doc);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
  EXPECT_EQ(doc.find("schema_version")->number_value,
            static_cast<double>(kBenchSchemaVersion));
  EXPECT_EQ(doc.find("bench")->string_value, "schema_probe");
  EXPECT_TRUE(doc.find("smoke")->bool_value);
  EXPECT_EQ(doc.find("repetitions")->number_value, 3.0);
  ASSERT_EQ(doc.find("graphs")->array_items.size(), 1u);
  EXPECT_EQ(doc.find("graphs")->array_items[0].find("family")->string_value, "gnm");
  ASSERT_EQ(doc.find("phases")->array_items.size(), 1u);
  EXPECT_EQ(doc.find("phases")->array_items[0].find("name")->string_value, "work");

  // Two emissions of the same run differ only in wall times, the start
  // timestamp and the RSS sample; strip those members and the documents
  // must agree byte for byte.
  std::string again = make_harness_json(true);
  auto strip_volatile = [](std::string s) {
    for (const char* key : {"\"wall_s\":", "\"start_unix_ms\":", "\"peak_rss_bytes\":"}) {
      std::size_t pos = 0;
      while ((pos = s.find(key, pos)) != std::string::npos) {
        const std::size_t end = s.find_first_of(",\n}", pos);
        s.erase(pos, end - pos);
      }
    }
    return s;
  };
  EXPECT_EQ(strip_volatile(text), strip_volatile(again));
}

TEST(BenchSchema, ValidatorRejectsBrokenDocuments) {
  const std::string good = make_harness_json(true);

  // Not an object at top level.
  EXPECT_FALSE(validate_bench_json(parse_json("[1, 2]")).empty());

  // Any schema version but the current one: the versions before it
  // (1-3), a newer one, and non-integers.
  const std::string version_member = "\"schema_version\": 4";
  ASSERT_NE(good.find(version_member), std::string::npos);
  for (const char* version : {"1", "2", "3", "5", "99", "3.5", "\"4\""}) {
    std::string wrong_version = good;
    wrong_version.replace(wrong_version.find(version_member), version_member.size(),
                          std::string("\"schema_version\": ") + version);
    EXPECT_FALSE(validate_bench_json(parse_json(wrong_version)).empty()) << version;
  }

  // Empty bench name.
  std::string empty_name = good;
  empty_name.replace(empty_name.find("\"bench\": \"schema_probe\""),
                     std::string("\"bench\": \"schema_probe\"").size(), "\"bench\": \"\"");
  EXPECT_FALSE(validate_bench_json(parse_json(empty_name)).empty());

  // Required top-level members must all be present.
  for (const char* member :
       {"schema_version", "bench", "git_rev", "smoke", "ok", "repetitions", "graphs", "phases",
        "counters", "gauges", "start_unix_ms", "peak_rss_bytes"}) {
    JsonValue doc = parse_json(good);
    std::erase_if(doc.object_members,
                  [&](const auto& kv) { return kv.first == member; });
    EXPECT_FALSE(validate_bench_json(doc).empty()) << "missing " << member << " accepted";
  }

  // A version-1 document, which lacked start_unix_ms and peak_rss_bytes.
  std::string v1 = good;
  v1.replace(v1.find(version_member), version_member.size(), "\"schema_version\": 1");
  JsonValue v1_doc = parse_json(v1);
  std::erase_if(v1_doc.object_members, [](const auto& kv) {
    return kv.first == "start_unix_ms" || kv.first == "peak_rss_bytes";
  });
  EXPECT_FALSE(validate_bench_json(v1_doc).empty());

  // Reports written while PLL took a bit-parallel root count carry a
  // `bp_roots` member; the harness no longer writes it, and the validator
  // ignores it whatever its value.
  EXPECT_EQ(good.find("bp_roots"), std::string::npos);
  for (const char* value : {"64", "-1", "\"lots\""}) {
    std::string old_report = good;
    old_report.insert(old_report.find("\"graphs\""), std::string("\"bp_roots\": ") + value + ", ");
    const std::vector<std::string> old_errors = validate_bench_json(parse_json(old_report));
    EXPECT_TRUE(old_errors.empty())
        << value << ": " << (old_errors.empty() ? "" : old_errors.front());
  }
}

TEST(Harness, ParsesThreadsFlag) {
  const char* argv[] = {"metrics_test", "--smoke", "--threads", "4"};
  bench::Harness harness(4, const_cast<char**>(argv), "threads_probe", "banner");
  EXPECT_EQ(harness.threads(), 4u);
  std::ostringstream os;
  harness.write_json(os, true);
  const JsonValue doc = parse_json(os.str());
  EXPECT_TRUE(validate_bench_json(doc).empty());
  ASSERT_NE(doc.find("threads"), nullptr);
  EXPECT_EQ(doc.find("threads")->number_value, 4.0);
}

TEST(BenchSchema, ThreadsMemberIsOptionalButValidated) {
  const std::string good = make_harness_json(true);
  const std::string threads_member = "\"threads\": 1";
  ASSERT_NE(good.find(threads_member), std::string::npos);

  // Absent is fine: pre-threads baselines must keep validating.
  JsonValue no_threads = parse_json(good);
  std::erase_if(no_threads.object_members,
                [](const auto& kv) { return kv.first == "threads"; });
  EXPECT_TRUE(validate_bench_json(no_threads).empty());

  // Present but zero or mistyped is rejected.
  std::string zero = good;
  zero.replace(zero.find(threads_member), threads_member.size(), "\"threads\": 0");
  EXPECT_FALSE(validate_bench_json(parse_json(zero)).empty());
  std::string mistyped = good;
  mistyped.replace(mistyped.find(threads_member), threads_member.size(),
                   "\"threads\": \"four\"");
  EXPECT_FALSE(validate_bench_json(parse_json(mistyped)).empty());
}

}  // namespace
}  // namespace hublab
