#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "hub/pll.hpp"
#include "hub/serialize.hpp"
#include "tools/cli.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/profiler.hpp"
#include "util/report.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace hublab {
namespace {

/// RAII temp file path (unique per test).
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_("/tmp/hublab_test_" + tag + "_" +
              std::to_string(reinterpret_cast<std::uintptr_t>(this))) {}
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(Serialize, RoundTripsLabeling) {
  Rng rng(1);
  const Graph g = gen::connected_gnm(50, 100, rng);
  const HubLabeling original = pruned_landmark_labeling(g);
  std::stringstream buffer;
  save_labeling(original, buffer);
  const HubLabeling loaded = load_labeling(buffer);
  ASSERT_EQ(loaded.num_vertices(), original.num_vertices());
  for (Vertex v = 0; v < 50; ++v) {
    ASSERT_EQ(original.label_size(v), loaded.label_size(v));
    for (std::size_t i = 0; i < original.label_size(v); ++i) {
      EXPECT_EQ(original.hubs(v)[i], loaded.hubs(v)[i]);
      EXPECT_EQ(original.dists(v)[i], loaded.dists(v)[i]);
    }
  }
}

TEST(Serialize, RoundTripKeepsTheServingArrays) {
  // A loaded labeling is the saved one, column for column, and its columns
  // are sized exactly as the builder's: the same memory_bytes().
  Rng rng(5);
  const Graph g = gen::road_like(8, 8, 0.2, 10, rng);
  const HubLabeling original = pruned_landmark_labeling(g);
  std::stringstream buffer;
  save_labeling(original, buffer);
  const HubLabeling loaded = load_labeling(buffer);
  ASSERT_EQ(loaded.num_vertices(), original.num_vertices());
  for (Vertex v = 0; v < original.num_vertices(); ++v) {
    const auto hubs = loaded.hubs(v);
    const auto dists = loaded.dists(v);
    EXPECT_TRUE(std::equal(hubs.begin(), hubs.end(), original.hubs(v).begin(),
                           original.hubs(v).end()))
        << "hubs of v=" << v;
    EXPECT_TRUE(std::equal(dists.begin(), dists.end(), original.dists(v).begin(),
                           original.dists(v).end()))
        << "dists of v=" << v;
  }
  EXPECT_EQ(loaded.memory_bytes(), original.memory_bytes());
}

TEST(Serialize, RoundTripsWideLabeling) {
  // Road weights scaled by 2^28: distances past 2^32, so the labels take
  // the 8-byte column.  Save, load and save again give the same bytes, the
  // same footprint and the same answers.
  Rng rng(6);
  const Graph road = gen::road_like(6, 6, 0.2, 9, rng);
  GraphBuilder b(road.num_vertices());
  for (Vertex u = 0; u < road.num_vertices(); ++u) {
    for (const Arc& a : road.arcs(u)) {
      if (u < a.to) b.add_edge(u, a.to, a.weight << 28);
    }
  }
  const Graph g = b.build();
  const HubLabeling original = pruned_landmark_labeling(g);
  ASSERT_EQ(original.dist_bytes(), 8u);
  std::stringstream first;
  save_labeling(original, first);
  const HubLabeling loaded = load_labeling(first);
  std::stringstream second;
  save_labeling(loaded, second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(loaded.dist_bytes(), 8u);
  EXPECT_EQ(loaded.memory_bytes(), original.memory_bytes());
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      const HubQueryResult want = original.query_with_hub(u, v);
      const HubQueryResult got = loaded.query_with_hub(u, v);
      ASSERT_EQ(got.dist, want.dist) << "(" << u << "," << v << ")";
      ASSERT_EQ(got.meeting_hub, want.meeting_hub) << "(" << u << "," << v << ")";
    }
  }
}

TEST(Serialize, QueriesIdenticalAfterReload) {
  Rng rng(2);
  const Graph g = gen::road_like(6, 6, 0.2, 9, rng);
  const HubLabeling original = pruned_landmark_labeling(g);
  std::stringstream buffer;
  save_labeling(original, buffer);
  const HubLabeling loaded = load_labeling(buffer);
  for (Vertex u = 0; u < g.num_vertices(); u += 3) {
    for (Vertex v = 0; v < g.num_vertices(); v += 5) {
      EXPECT_EQ(loaded.query(u, v), original.query(u, v));
    }
  }
}

TEST(Serialize, EmptyLabelingRoundTrips) {
  const HubLabeling empty(std::vector<std::vector<HubEntry>>(5));
  std::stringstream buffer;
  save_labeling(empty, buffer);
  const HubLabeling loaded = load_labeling(buffer);
  EXPECT_EQ(loaded.num_vertices(), 5u);
  EXPECT_EQ(loaded.total_hubs(), 0u);
}

TEST(Serialize, BadMagicThrows) {
  std::stringstream buffer("NOTALABELFILE");
  EXPECT_THROW(load_labeling(buffer), ParseError);
}

TEST(Serialize, TruncationThrows) {
  Rng rng(3);
  const Graph g = gen::connected_gnm(20, 40, rng);
  const HubLabeling original = pruned_landmark_labeling(g);
  std::stringstream buffer;
  save_labeling(original, buffer);
  const std::string full = buffer.str();
  for (const std::size_t cut :
       {std::size_t{5}, std::size_t{12}, full.size() / 2, full.size() - 3}) {
    std::stringstream cut_buffer(full.substr(0, cut));
    EXPECT_THROW(load_labeling(cut_buffer), ParseError) << "cut=" << cut;
  }
}

TEST(Serialize, TrailingBytesThrow) {
  // Nothing may follow the n-th label: one stray byte, or a whole second
  // copy of the file, is corruption rather than a valid labeling.
  Rng rng(6);
  const Graph g = gen::connected_gnm(20, 40, rng);
  std::stringstream buffer;
  save_labeling(pruned_landmark_labeling(g), buffer);
  const std::string file = buffer.str();
  for (const std::string& padded : {file + '\0', file + file}) {
    std::stringstream stream(padded);
    try {
      (void)load_labeling(stream);
      ADD_FAILURE() << "loaded a file with " << padded.size() - file.size()
                    << " trailing bytes";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("trailing bytes"), std::string::npos) << e.what();
    }
  }
}

TEST(Serialize, CorruptHubOrderThrows) {
  // Handcraft a file with descending hubs.
  std::stringstream buffer;
  buffer.write("HLAB", 4);
  const std::uint32_t version = 1;
  buffer.write(reinterpret_cast<const char*>(&version), 4);
  const std::uint64_t n = 3;
  buffer.write(reinterpret_cast<const char*>(&n), 8);
  const std::uint64_t count = 2;
  buffer.write(reinterpret_cast<const char*>(&count), 8);
  const std::uint32_t hub1 = 2;
  const std::uint64_t d = 1;
  const std::uint32_t hub2 = 1;  // descending: invalid
  buffer.write(reinterpret_cast<const char*>(&hub1), 4);
  buffer.write(reinterpret_cast<const char*>(&d), 8);
  buffer.write(reinterpret_cast<const char*>(&hub2), 4);
  buffer.write(reinterpret_cast<const char*>(&d), 8);
  EXPECT_THROW(load_labeling(buffer), ParseError);
}

TEST(Serialize, FileHelpers) {
  Rng rng(4);
  const Graph g = gen::connected_gnm(20, 40, rng);
  const HubLabeling original = pruned_landmark_labeling(g);
  TempFile file("labels");
  save_labeling_file(original, file.path());
  const HubLabeling loaded = load_labeling_file(file.path());
  EXPECT_EQ(loaded.total_hubs(), original.total_hubs());
  EXPECT_THROW(load_labeling_file("/nonexistent/file"), Error);
}

int run_cli(const std::vector<std::string>& args, std::string* out_str = nullptr) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = cli::run(args, out, err);
  if (out_str != nullptr) *out_str = out.str() + err.str();
  return code;
}

TEST(Cli, NoArgsUsage) {
  std::string output;
  EXPECT_EQ(run_cli({}, &output), 2);
  EXPECT_NE(output.find("usage"), std::string::npos);
}

TEST(Cli, UnknownCommand) {
  std::string output;
  EXPECT_EQ(run_cli({"frobnicate"}, &output), 2);
}

TEST(Cli, GenToStdout) {
  std::string output;
  EXPECT_EQ(run_cli({"gen", "grid", "--rows", "3", "--cols", "4"}, &output), 0);
  std::istringstream in(output);
  const Graph g = io::read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 12u);
}

TEST(Cli, GenStatsLabelQueryVerifyPipeline) {
  TempFile graph("graph");
  TempFile labels("labels");
  std::string output;

  ASSERT_EQ(run_cli({"gen", "gnm", "--n", "60", "--m", "120", "-o", graph.path()}, &output), 0);
  EXPECT_NE(output.find("n=60"), std::string::npos);

  ASSERT_EQ(run_cli({"stats", graph.path()}, &output), 0);
  EXPECT_NE(output.find("m=120"), std::string::npos);

  ASSERT_EQ(run_cli({"label", graph.path(), "-o", labels.path()}, &output), 0);
  EXPECT_NE(output.find("PLL(degree)"), std::string::npos);

  ASSERT_EQ(run_cli({"query", graph.path(), labels.path(), "0", "59"}, &output), 0);
  EXPECT_NE(output.find("agree=yes"), std::string::npos);

  ASSERT_EQ(run_cli({"verify", graph.path(), labels.path(), "--samples", "100"}, &output), 0);
  EXPECT_NE(output.find("ok"), std::string::npos);
}

TEST(Cli, LabelOrders) {
  TempFile graph("orders");
  std::string output;
  ASSERT_EQ(run_cli({"gen", "grid", "--rows", "5", "--cols", "5", "-o", graph.path()}, &output), 0);
  for (const char* order : {"degree", "natural", "random", "betweenness"}) {
    EXPECT_EQ(run_cli({"label", graph.path(), "--order", order}, &output), 0) << order;
    // An unweighted graph's distances take the 4-byte column.
    EXPECT_NE(output.find(" dist_bytes=4\n"), std::string::npos) << output;
  }
  EXPECT_EQ(run_cli({"label", graph.path(), "--order", "bogus"}, &output), 1);
}

TEST(Cli, CertifyGadget) {
  std::string output;
  EXPECT_EQ(run_cli({"certify-gadget", "2", "2"}, &output), 0);
  EXPECT_NE(output.find("lemma 2.2: ok"), std::string::npos);
}

TEST(Cli, SumIndex) {
  std::string output;
  EXPECT_EQ(run_cli({"sumindex", "2", "1", "--trials", "8"}, &output), 0);
  EXPECT_NE(output.find("8/8 correct"), std::string::npos);
}

TEST(Cli, QueryDetectsMismatchedLabels) {
  TempFile graph_a("ga");
  TempFile graph_b("gb");
  TempFile labels_a("la");
  std::string output;
  ASSERT_EQ(run_cli({"gen", "grid", "--rows", "4", "--cols", "4", "-o", graph_a.path()}, &output), 0);
  ASSERT_EQ(run_cli({"gen", "grid", "--rows", "5", "--cols", "5", "-o", graph_b.path()}, &output), 0);
  ASSERT_EQ(run_cli({"label", graph_a.path(), "-o", labels_a.path()}, &output), 0);
  EXPECT_EQ(run_cli({"query", graph_b.path(), labels_a.path(), "0", "1"}, &output), 1);
  EXPECT_NE(output.find("error"), std::string::npos);
}

TEST(Cli, GenAllFamilies) {
  std::string output;
  EXPECT_EQ(run_cli({"gen", "tree", "--n", "40"}, &output), 0);
  {
    std::istringstream in(output);
    const Graph g = io::read_edge_list(in);
    EXPECT_EQ(g.num_edges(), 39u);
  }
  EXPECT_EQ(run_cli({"gen", "regular", "--n", "20", "--d", "3"}, &output), 0);
  {
    std::istringstream in(output);
    const Graph g = io::read_edge_list(in);
    EXPECT_EQ(g.max_degree(), 3u);
  }
  EXPECT_EQ(run_cli({"gen", "road", "--rows", "4", "--cols", "5"}, &output), 0);
  {
    std::istringstream in(output);
    const Graph g = io::read_edge_list(in);
    EXPECT_EQ(g.num_vertices(), 20u);
    EXPECT_TRUE(g.is_weighted());
  }
  EXPECT_EQ(run_cli({"gen", "ba", "--n", "30", "--k", "2"}, &output), 0);
}

TEST(Cli, GenGadgets) {
  std::string output;
  EXPECT_EQ(run_cli({"gen", "gadget-h", "--b", "2", "--l", "1"}, &output), 0);
  std::istringstream in(output);
  const Graph h = io::read_edge_list(in);
  EXPECT_EQ(h.num_vertices(), 12u);

  EXPECT_EQ(run_cli({"gen", "gadget-g", "--b", "1", "--l", "1"}, &output), 0);
  std::istringstream in2(output);
  const Graph g3 = io::read_edge_list(in2);
  EXPECT_EQ(g3.max_degree(), 3u);
}

TEST(Cli, ErrorsAreReportedNotThrown) {
  std::string output;
  EXPECT_EQ(run_cli({"stats", "/nonexistent/graph"}, &output), 1);
  EXPECT_NE(output.find("error"), std::string::npos);
  EXPECT_EQ(run_cli({"gen", "mysteryfamily"}, &output), 1);
  EXPECT_EQ(run_cli({"query", "a"}, &output), 1);
  // A standard-library exception (std::length_error: the pair stream's
  // reserve rejects the count before allocating) is reported the same way.
  TempFile graph("errors_serve");
  ASSERT_EQ(run_cli({"gen", "grid", "--rows", "3", "--cols", "3", "-o", graph.path()}, &output), 0);
  EXPECT_EQ(run_cli({"serve", graph.path(), "--arrival", "closed", "--queries",
                     "18000000000000000000"},
                    &output),
            1);
  EXPECT_NE(output.find("error: "), std::string::npos) << output;
  // An empty graph has no vertex to draw trace queries from.
  TempFile empty("errors_trace_empty");
  ASSERT_EQ(run_cli({"gen", "tree", "--n", "0", "-o", empty.path()}, &output), 0);
  for (const char* queries : {"1000", "0"}) {
    EXPECT_EQ(run_cli({"trace", empty.path(), "--queries", queries}, &output), 1) << queries;
    EXPECT_NE(output.find("trace: empty graph"), std::string::npos) << output;
  }
}

TEST(Cli, ExplainAgreesWithReferenceOnFig1Gadget) {
  TempFile graph("explain_gadget");
  std::string output;
  ASSERT_EQ(run_cli({"gen", "gadget-g", "--b", "2", "--l", "1", "-o", graph.path()}, &output), 0);
  for (const char* oracle : {"pll-flat", "ch", "bidij"}) {
    ASSERT_EQ(run_cli({"explain", graph.path(), "0", "5", "--oracle", oracle}, &output), 0)
        << oracle << ": " << output;
    EXPECT_NE(output.find("agree=yes"), std::string::npos) << output;
    EXPECT_NE(output.find("meeting_hub = "), std::string::npos) << output;
    EXPECT_NE(output.find("phase_ns:"), std::string::npos) << output;
#if HUBLAB_METRICS_ENABLED
    // The probe must name an actual hub, not the unreachable sentinel.
    EXPECT_EQ(output.find("meeting_hub = none"), std::string::npos) << output;
    EXPECT_EQ(output.find("hubs: scanned=0"), std::string::npos) << output;
#endif
  }
}

TEST(Cli, ExplainNamesTheBatchKernelOnlyForFlatLabels) {
  // Only the flat hub-label oracle's distance_batch runs the stamp-table
  // kernel; ch and bidij answer a block one pair at a time.
  TempFile graph("explain_batch_kernel");
  std::string output;
  ASSERT_EQ(run_cli({"gen", "gadget-g", "--b", "2", "--l", "1", "-o", graph.path()}, &output), 0);
  ASSERT_EQ(run_cli({"explain", graph.path(), "0", "5", "--oracle", "pll-flat"}, &output), 0)
      << output;
  EXPECT_NE(output.find("batch kernel: tier="), std::string::npos) << output;
  for (const char* oracle : {"ch", "bidij"}) {
    ASSERT_EQ(run_cli({"explain", graph.path(), "0", "5", "--oracle", oracle}, &output), 0)
        << oracle << ": " << output;
    EXPECT_NE(output.find("batch kernel: none (per-pair loop) agree=yes"), std::string::npos)
        << oracle << ": " << output;
    EXPECT_EQ(output.find("tier="), std::string::npos) << oracle << ": " << output;
  }
}

TEST(Cli, ValidateBenchReportsEveryFileWhenOneHasAnOutOfRangeNumber) {
  TempFile bad("validate_out_of_range");
  TempFile good("validate_good");
  {
    std::ofstream out(bad.path());
    out << "{\"schema_version\": 1e999}\n";
  }
  {
    std::ofstream out(good.path());
    ReportHeader header;
    header.name = "validate_probe";
    header.ok = true;
    write_run_report_json(out, header, Tracer(), metrics::registry());
  }
  std::string output;
  EXPECT_EQ(run_cli({"validate-bench", bad.path(), good.path()}, &output), 1) << output;
  const std::size_t invalid = output.find(bad.path() + ": INVALID");
  const std::size_t ok = output.find(good.path() + ": ok");
  ASSERT_NE(invalid, std::string::npos) << output;
  ASSERT_NE(ok, std::string::npos) << output;
  EXPECT_LT(invalid, ok) << output;
}

TEST(Cli, ExplainRejectsBadArguments) {
  TempFile graph("explain_bad");
  std::string output;
  ASSERT_EQ(run_cli({"gen", "grid", "--rows", "3", "--cols", "3", "-o", graph.path()}, &output), 0);
  EXPECT_EQ(run_cli({"explain", graph.path(), "0"}, &output), 1);  // missing T
  EXPECT_EQ(run_cli({"explain", graph.path(), "0", "99", "--oracle", "pll-flat"}, &output), 1);
  EXPECT_NE(output.find("out of range"), std::string::npos);
  EXPECT_EQ(run_cli({"explain", graph.path(), "0", "1", "--oracle", "warp"}, &output), 1);
  EXPECT_NE(output.find("unknown oracle"), std::string::npos);
}

TEST(Cli, ServeSimSlowQueryFlagsLandInReport) {
  TempFile graph("serve_slow");
  TempFile json("serve_slow_json");
  std::string output;
  ASSERT_EQ(run_cli({"gen", "grid", "--rows", "6", "--cols", "6", "-o", graph.path()}, &output), 0);
  ASSERT_EQ(run_cli({"serve", graph.path(), "--arrival", "closed", "--batch", "1", "--smoke",
                     "--queries", "200", "--slow-query-ms", "0.000001", "--window-ms", "1",
                     "--json-out", json.path()},
                    &output),
            0)
      << output;
  std::ifstream in(json.path());
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_NE(text.find("\"slow_query_ns\": 1"), std::string::npos) << text.substr(0, 400);
  EXPECT_NE(text.find("\"windows\""), std::string::npos);
  EXPECT_NE(text.find("\"slow_queries\""), std::string::npos);
  EXPECT_NE(text.find("\"slow_queries_total\""), std::string::npos);
  // The run report is accepted by the bundled validator (schema v4).
  EXPECT_EQ(run_cli({"validate-bench", json.path()}, &output), 0) << output;
}

TEST(Cli, ServeSimPromOutFailsCleanlyOnUnwritablePath) {
  TempFile graph("serve_prom_fail");
  TempFile json("serve_prom_fail_json");
  std::string output;
  ASSERT_EQ(run_cli({"gen", "grid", "--rows", "4", "--cols", "4", "-o", graph.path()}, &output), 0);
  EXPECT_EQ(run_cli({"serve", graph.path(), "--arrival", "closed", "--batch", "1", "--smoke",
                     "--queries", "100", "--json-out", json.path(), "--prom-out",
                     "/nonexistent-dir/prom.txt"},
                    &output),
            1);
  EXPECT_NE(output.find("error: serve: cannot write /nonexistent-dir/prom.txt"),
            std::string::npos)
      << output;
  EXPECT_EQ(run_cli({"serve", graph.path(), "--arrival", "closed", "--batch", "1", "--smoke",
                     "--queries", "100", "--window-ms", "0"},
                    &output),
            1);
  EXPECT_NE(output.find("--window-ms must be > 0"), std::string::npos) << output;
}

TEST(Cli, ServeQpsSweepReportsEveryRate) {
  // Every rate of the ladder is one run against the one oracle: it prints
  // one `sweep qps=` line and adds one point to the report's sweep array.
  TempFile graph("serve_sweep");
  TempFile json("serve_sweep_json");
  std::string output;
  ASSERT_EQ(run_cli({"gen", "grid", "--rows", "4", "--cols", "4", "-o", graph.path()}, &output), 0);
  ASSERT_EQ(run_cli({"serve", graph.path(), "--smoke", "--queries", "200", "--workers", "1",
                     "--qps-sweep", "20000,40000", "--json-out", json.path()},
                    &output),
            0)
      << output;
  std::size_t lines = 0;
  for (std::size_t at = output.find("sweep qps="); at != std::string::npos;
       at = output.find("sweep qps=", at + 1)) {
    ++lines;
  }
  EXPECT_EQ(lines, 2u) << output;
  EXPECT_NE(output.find("sweep qps=20000: "), std::string::npos) << output;
  EXPECT_NE(output.find("sweep qps=40000: "), std::string::npos) << output;
  std::ifstream in(json.path());
  std::ostringstream buf;
  buf << in.rdbuf();
  const JsonValue report = parse_json(buf.str());
  const JsonValue* sweep = report.find("sweep");
  ASSERT_NE(sweep, nullptr);
  ASSERT_TRUE(sweep->is_array());
  ASSERT_EQ(sweep->array_items.size(), 2u);
  EXPECT_EQ(sweep->array_items[0].find("qps")->number_value, 20000.0);
  EXPECT_EQ(sweep->array_items[1].find("qps")->number_value, 40000.0);
  EXPECT_EQ(sweep->array_items[1].find("queries")->number_value, 200.0);

  // A closed loop has no offered rate, and every rate must be positive.
  const std::vector<std::vector<std::string>> bad = {
      {"--arrival", "closed", "--qps-sweep", "20000"},
      {"--qps-sweep", ","},
      {"--qps-sweep", "20000,0"},
      {"--qps-sweep", "-5"},
  };
  for (const std::vector<std::string>& flags : bad) {
    std::vector<std::string> args = {"serve", graph.path(), "--smoke", "--queries", "200"};
    args.insert(args.end(), flags.begin(), flags.end());
    EXPECT_EQ(run_cli(args, &output), 1) << flags.back() << ": " << output;
    EXPECT_NE(output.find("error: "), std::string::npos) << output;
  }
  // Every rate is checked against the open-loop bound before any point
  // runs, and the error names the sweep.
  for (const char* rates : {"20000,1e300", "20000,inf"}) {
    EXPECT_EQ(run_cli({"serve", graph.path(), "--smoke", "--queries", "100", "--qps-sweep", rates},
                      &output),
              1)
        << rates << ": " << output;
    EXPECT_NE(output.find("--qps-sweep"), std::string::npos) << rates << ": " << output;
    EXPECT_EQ(output.find("sweep qps="), std::string::npos) << rates << ": " << output;
  }
}

TEST(Cli, NumericOptionsRejectBadValues) {
  // Unparsable and out-of-range numbers are usage errors naming the flag,
  // never an uncaught exception out of the command.
  TempFile graph("numeric_opts");
  std::string output;
  ASSERT_EQ(run_cli({"gen", "grid", "--rows", "3", "--cols", "3", "-o", graph.path()}, &output), 0);
  const std::vector<std::vector<std::string>> cases = {
      {"serve", graph.path(), "--qps", "abc"},
      {"serve", graph.path(), "--arrival", "closed", "--queries", "abc"},
      {"serve", graph.path(), "--queries", "99999999999999999999999"},
      {"serve", graph.path(), "--qps", "1e999"},
      // Rates whose arrival offsets or offered-qps gauge overflow.
      {"serve", graph.path(), "--qps", "1e-12"},
      {"serve", graph.path(), "--qps", "inf"},
      {"serve", graph.path(), "--qps", "1e300"},
      {"serve", graph.path(), "--workers", "-2"},
      {"serve", graph.path(), "--batch", "4x"},
      // Durations whose nanosecond count is NaN, infinite or past 2^64.
      {"serve", graph.path(), "--window-ms", "nan"},
      {"serve", graph.path(), "--window-ms", "1e300"},
      {"serve", graph.path(), "--slow-query-ms", "inf"},
      {"serve", graph.path(), "--warmup-ms", "18446744073710"},
      {"gen", "gnm", "--n", "ten"},
      // 32-bit parameters past 2^32: a usage error, not a truncated value.
      {"gen", "road", "--maxw", "4294967306"},
      {"gen", "gadget-h", "--b", "4294967298"},
  };
  for (const std::vector<std::string>& args : cases) {
    const std::string& flag = args[args.size() - 2];
    EXPECT_EQ(run_cli(args, &output), 1) << flag << ": " << output;
    EXPECT_NE(output.find("error: "), std::string::npos) << output;
    EXPECT_NE(output.find(flag), std::string::npos) << flag << ": " << output;
  }
}

TEST(Cli, PositionalIdsPast32BitsAreUsageErrors) {
  // Vertex ids and gadget parameters are 32-bit: 2^32 + 5 must not wrap to
  // vertex 5, nor 2^32 + 2 to b = 2.
  TempFile graph("ids_past_32_bits");
  TempFile labels("ids_past_32_bits_labels");
  std::string output;
  ASSERT_EQ(run_cli({"gen", "grid", "--rows", "3", "--cols", "3", "-o", graph.path()}, &output), 0);
  ASSERT_EQ(run_cli({"label", graph.path(), "-o", labels.path()}, &output), 0);
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"query", graph.path(), labels.path(), "4294967301", "0"}, "U"},
      {{"query", graph.path(), labels.path(), "0", "4294967301"}, "V"},
      {{"explain", graph.path(), "4294967301", "0"}, "S"},
      {{"explain", graph.path(), "0", "4294967301"}, "T"},
      {{"certify-gadget", "4294967298", "1"}, "B"},
      {{"certify-gadget", "2", "4294967297"}, "L"},
      {{"sumindex", "4294967298", "1"}, "B"},
      {{"sumindex", "2", "4294967297"}, "L"},
  };
  for (const auto& [args, name] : cases) {
    EXPECT_EQ(run_cli(args, &output), 1) << args[0] << " " << name << ": " << output;
    EXPECT_NE(output.find("error: "), std::string::npos) << output;
    EXPECT_NE(output.find("for " + name + ":"), std::string::npos)
        << args[0] << " " << name << ": " << output;
  }
}

TEST(Cli, ProfileReportsAClampedRate) {
  TempFile graph("profile_hz");
  TempFile folded("profile_hz_folded");
  std::string output;
  ASSERT_EQ(run_cli({"gen", "grid", "--rows", "3", "--cols", "3", "-o", graph.path()}, &output), 0);
  EXPECT_EQ(run_cli({"profile", "--hz", "5000", "--folded", folded.path(), "stats", graph.path()},
                    &output),
            0)
      << output;
  EXPECT_NE(output.find("profile: --hz 5000 clamped to 1000"), std::string::npos) << output;
  // The slowest rate is in range: no clamp line, and it arms wherever the
  // profiler is supported at all.
  EXPECT_EQ(run_cli({"profile", "--hz", "1", "--folded", folded.path(), "stats", graph.path()},
                    &output),
            0)
      << output;
  EXPECT_EQ(output.find("clamped"), std::string::npos) << output;
  if (prof::supported()) {
    EXPECT_EQ(output.find("unsupported"), std::string::npos) << output;
  }
}

}  // namespace
}  // namespace hublab
