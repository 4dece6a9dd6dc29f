#include "tools/cli.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <span>
#include <sstream>
#include <utility>

#include "algo/shortest_paths.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/transforms.hpp"
#include "hub/order.hpp"
#include "hub/pll.hpp"
#include "hub/serialize.hpp"
#include "hub/simd_kernel.hpp"
#include "lowerbound/certify.hpp"
#include "lowerbound/gadget.hpp"
#include "oracle/oracle.hpp"
#include "oracle/server.hpp"
#include "rs/rs_graph.hpp"
#include "sumindex/sumindex.hpp"
#include "util/bench_compare.hpp"
#include "util/bench_schema.hpp"
#include "util/error.hpp"
#include "util/flightrec.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/perfcount.hpp"
#include "util/profiler.hpp"
#include "util/prometheus.hpp"
#include "util/querystats.hpp"
#include "util/resource.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

// CMake defines HUBLAB_GIT_REV from `git rev-parse --short HEAD`; the
// fallback keeps the file compiling in isolation.
#ifndef HUBLAB_GIT_REV
#define HUBLAB_GIT_REV "unknown"
#endif

namespace hublab::cli {

namespace {

/// True for options that take no value (every other --option consumes the
/// following argument).
bool is_boolean_flag(const std::string& name) {
  return name == "--smoke" || name == "--quiet" || name == "--all" ||
         name == "--perf-counters";
}

/// Parse all of `s` as a number of type T.  Anything else — empty, a sign
/// on an unsigned value, trailing characters, out of range — is an
/// InvalidArgument naming `what` (the flag or positional it came from).
template <typename T>
T parse_number(const std::string& s, const std::string& what) {
  T value{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec == std::errc::result_out_of_range) {
    throw InvalidArgument("value out of range for " + what + ": " + s);
  }
  if (ec != std::errc() || ptr != end) {
    throw InvalidArgument("expected a number for " + what + ", got: " + s);
  }
  return value;
}

std::uint64_t parse_u64(const std::string& s, const std::string& what) {
  return parse_number<std::uint64_t>(s, what);
}

/// A vertex id, gadget parameter or edge weight: 32 bits, so a larger value
/// is a usage error rather than a silent truncation.
std::uint32_t parse_u32(const std::string& s, const std::string& what) {
  return parse_number<std::uint32_t>(s, what);
}

/// A millisecond duration flag as whole nanoseconds.  NaN, infinities and
/// counts past 2^64 ns are usage errors naming `what`: converting them to
/// an integer is undefined behaviour.
std::uint64_t ms_to_ns(double ms, const std::string& what) {
  const double ns = ms * 1e6;
  if (!std::isfinite(ns) || ns >= 0x1p64) {
    throw InvalidArgument("serve: " + what + " must be finite and below 2^64 ns");
  }
  return static_cast<std::uint64_t>(ns);
}

/// Tiny argument cursor: positionals in order plus --key value options and
/// boolean --flags.
class Args {
 public:
  explicit Args(std::vector<std::string> args) : args_(std::move(args)) {}

  [[nodiscard]] std::optional<std::string> next_positional() {
    while (cursor_ < args_.size()) {
      const std::string& a = args_[cursor_];
      if (a.rfind("--", 0) == 0 || a == "-o") {
        cursor_ += is_boolean_flag(a) ? 1 : 2;  // skip option (and its value)
        continue;
      }
      return args_[cursor_++];
    }
    return std::nullopt;
  }

  [[nodiscard]] std::optional<std::string> option(const std::string& name) const {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) return args_[i + 1];
    }
    return std::nullopt;
  }

  [[nodiscard]] std::uint64_t option_u64(const std::string& name, std::uint64_t fallback) const {
    const auto v = option(name);
    return v ? parse_u64(*v, name) : fallback;
  }

  [[nodiscard]] std::uint32_t option_u32(const std::string& name, std::uint32_t fallback) const {
    const auto v = option(name);
    return v ? parse_u32(*v, name) : fallback;
  }

  [[nodiscard]] double option_double(const std::string& name, double fallback) const {
    const auto v = option(name);
    return v ? parse_number<double>(*v, name) : fallback;
  }

  [[nodiscard]] bool flag(const std::string& name) const {
    for (const std::string& a : args_) {
      if (a == name) return true;
    }
    return false;
  }

 private:
  std::vector<std::string> args_;
  std::size_t cursor_ = 0;
};

int cmd_gen(Args& args, std::ostream& out) {
  const auto family = args.next_positional();
  if (!family) {
    throw InvalidArgument(
        "gen: missing family (gnm|grid|tree|ba|regular|road|rs|gadget-h|gadget-g)");
  }
  const auto output = args.option("-o");
  Rng rng(args.option_u64("--seed", 1));
  const std::uint64_t n = args.option_u64("--n", 100);
  const std::uint64_t m = args.option_u64("--m", 2 * n);
  const std::uint64_t rows = args.option_u64("--rows", 10);
  const std::uint64_t cols = args.option_u64("--cols", 10);
  const std::uint32_t b = args.option_u32("--b", 2);
  const std::uint32_t ell = args.option_u32("--l", 2);

  Graph g;
  if (*family == "gnm") {
    g = gen::connected_gnm(n, m, rng);
  } else if (*family == "grid") {
    g = gen::grid(rows, cols);
  } else if (*family == "tree") {
    g = gen::random_tree(n, rng);
  } else if (*family == "ba") {
    g = gen::barabasi_albert(n, args.option_u64("--k", 2), rng);
  } else if (*family == "regular") {
    g = gen::random_regular(n, args.option_u64("--d", 3), rng);
  } else if (*family == "road") {
    g = gen::road_like(rows, cols, 0.2, args.option_u32("--maxw", 10), rng);
  } else if (*family == "rs") {
    // Ruzsa-Szemeredi graph from a Behrend set (Definition 1.3); 3M vertices.
    g = rs::behrend_rs_graph(args.option_u64("--M", 16)).graph;
  } else if (*family == "gadget-h") {
    g = lb::LayeredGadget(lb::GadgetParams{b, ell}).graph();
  } else if (*family == "gadget-g") {
    const lb::LayeredGadget h(lb::GadgetParams{b, ell});
    g = lb::Degree3Gadget(h).graph();
  } else {
    throw InvalidArgument("gen: unknown family: " + *family);
  }

  if (output) {
    io::save_edge_list(g, *output);
    out << "wrote " << *output << ": n=" << g.num_vertices() << " m=" << g.num_edges() << "\n";
  } else {
    io::write_edge_list(g, out);
  }
  return 0;
}

int cmd_stats(Args& args, std::ostream& out) {
  const auto file = args.next_positional();
  if (!file) throw InvalidArgument("stats: missing graph file");
  const Graph g = io::load_edge_list(*file);
  out << "n=" << g.num_vertices() << " m=" << g.num_edges()
      << " avg_degree=" << g.average_degree() << " max_degree=" << g.max_degree()
      << " weighted=" << (g.is_weighted() ? "yes" : "no")
      << " components=" << num_connected_components(g) << "\n";
  if (g.num_vertices() > 0 && num_connected_components(g) == 1) {
    out << "diameter>=" << diameter_two_sweep(g) << " (two-sweep bound)\n";
  }
  return 0;
}

std::vector<Vertex> order_from_name(const Graph& g, const std::string& name, std::uint64_t seed) {
  if (name == "degree") return make_vertex_order(g, VertexOrder::kDegreeDescending);
  if (name == "natural") return make_vertex_order(g, VertexOrder::kNatural);
  if (name == "random") return make_vertex_order(g, VertexOrder::kRandom, seed);
  if (name == "betweenness") {
    Rng rng(seed);
    return betweenness_order(g, std::min<std::size_t>(64, g.num_vertices()), rng);
  }
  throw InvalidArgument("unknown order: " + name + " (degree|natural|random|betweenness)");
}

int cmd_label(Args& args, std::ostream& out) {
  const auto file = args.next_positional();
  if (!file) throw InvalidArgument("label: missing graph file");
  const Graph g = io::load_edge_list(*file);
  const std::string order_name = args.option("--order").value_or("degree");
  const auto order = order_from_name(g, order_name, args.option_u64("--seed", 1));
  PllConfig pll;
  pll.threads = static_cast<std::size_t>(args.option_u64("--threads", 0));
  const HubLabeling labels = pruned_landmark_labeling(g, order, pll);
  out << "PLL(" << order_name << "): avg=" << labels.average_label_size()
      << " max=" << labels.max_label_size() << " total=" << labels.total_hubs()
      << " bytes=" << labels.memory_bytes() << " dist_bytes=" << labels.dist_bytes() << "\n";
  if (const auto output = args.option("-o")) {
    save_labeling_file(labels, *output);
    out << "wrote " << *output << "\n";
  }
  return 0;
}

int cmd_query(Args& args, std::ostream& out) {
  const auto graph_file = args.next_positional();
  const auto labels_file = args.next_positional();
  const auto u_str = args.next_positional();
  const auto v_str = args.next_positional();
  if (!graph_file || !labels_file || !u_str || !v_str) {
    throw InvalidArgument("query: usage: query GRAPH LABELS U V");
  }
  const Graph g = io::load_edge_list(*graph_file);
  const HubLabeling labels = load_labeling_file(*labels_file);
  if (labels.num_vertices() != g.num_vertices()) {
    throw InvalidArgument("query: labels do not match graph size");
  }
  const Vertex u = parse_u32(*u_str, "U");
  const Vertex v = parse_u32(*v_str, "V");
  if (u >= g.num_vertices() || v >= g.num_vertices()) {
    throw InvalidArgument("query: vertex out of range");
  }
  const HubQueryResult q = labels.query_with_hub(u, v);
  const Dist reference = bidirectional_distance(g, u, v);
  out << "dist(" << u << "," << v << ") = ";
  if (q.dist == kInfDist) out << "inf";
  else out << q.dist;
  out << " via hub " << q.meeting_hub << "; dijkstra=" << (reference == kInfDist ? 0 : reference)
      << " agree=" << (q.dist == reference ? "yes" : "NO") << "\n";
  return q.dist == reference ? 0 : 1;
}

int cmd_verify(Args& args, std::ostream& out) {
  const auto graph_file = args.next_positional();
  const auto labels_file = args.next_positional();
  if (!graph_file || !labels_file) throw InvalidArgument("verify: usage: verify GRAPH LABELS");
  const Graph g = io::load_edge_list(*graph_file);
  const HubLabeling labels = load_labeling_file(*labels_file);
  if (labels.num_vertices() != g.num_vertices()) {
    throw InvalidArgument("verify: labels do not match graph size");
  }
  const std::uint64_t samples = args.option_u64("--samples", 200);
  const auto threads = static_cast<std::size_t>(args.option_u64("--threads", 0));
  const auto defect =
      verify_labeling_sampled(g, labels, samples, args.option_u64("--seed", 7), threads);
  if (defect) {
    out << "DEFECT: kind="
        << (defect->kind == LabelingDefect::Kind::kWrongDistance ? "wrong-distance"
                                                                 : "uncovered-pair")
        << " u=" << defect->u << " v=" << defect->v << " stored=" << defect->stored
        << " actual=" << defect->actual << "\n";
    return 1;
  }
  out << "ok: " << samples << " sampled checks passed\n";
  return 0;
}

int cmd_certify_gadget(Args& args, std::ostream& out) {
  const auto b_str = args.next_positional();
  const auto l_str = args.next_positional();
  if (!b_str || !l_str) throw InvalidArgument("certify-gadget: usage: certify-gadget B L");
  const lb::GadgetParams p{parse_u32(*b_str, "B"), parse_u32(*l_str, "L")};
  const lb::LayeredGadget h(p);
  const auto report = lb::verify_lemma_2_2(h, 128, 1);
  out << "H_{" << p.b << "," << p.ell << "}: n=" << h.graph().num_vertices()
      << " m=" << h.graph().num_edges() << "\n";
  out << "lemma 2.2: " << (report.ok() ? "ok" : "FAILED") << " (" << report.pairs_checked
      << " pairs)\n";
  out << "counting bound: any labeling needs avg >= " << lb::certified_bound_h(p)
      << " hubs/vertex (T=" << p.num_triplets() << ")\n";
  return report.ok() ? 0 : 1;
}

int cmd_sumindex(Args& args, std::ostream& out) {
  const auto b_str = args.next_positional();
  const auto l_str = args.next_positional();
  if (!b_str || !l_str) throw InvalidArgument("sumindex: usage: sumindex B L [--trials N]");
  const lb::GadgetParams p{parse_u32(*b_str, "B"), parse_u32(*l_str, "L")};
  const auto scheme = std::make_shared<HubDistanceLabeling>(
      +[](const Graph& g) { return pruned_landmark_labeling(g, VertexOrder::kNatural); }, "pll");
  const si::GadgetProtocol protocol(p, scheme);
  const std::uint64_t trials = args.option_u64("--trials", 32);
  const auto stats = si::evaluate_protocol(protocol, trials, args.option_u64("--seed", 17), 8);
  out << "sum-index over m=" << protocol.universe_size() << ": " << stats.correct << "/"
      << stats.trials << " correct, max message " << stats.max_alice_bits << " bits\n";
  return stats.all_correct() ? 0 : 1;
}

/// End-to-end phase trace of a PLL pipeline on a graph file: load, order,
/// build, query, each as a tracer span with counter deltas, followed by the
/// full metrics dump.  --chrome FILE additionally writes trace_event JSON
/// loadable in chrome://tracing / Perfetto.
int cmd_trace(Args& args, std::ostream& out) {
  const auto file = args.next_positional();
  if (!file) {
    throw InvalidArgument(
        "trace: usage: trace GRAPH [--order NAME] [--seed N] [--queries K] [--chrome FILE]");
  }
  metrics::registry().reset();
  Tracer tracer;

  auto load_span = tracer.span("load-graph");
  const Graph g = io::load_edge_list(*file);
  load_span.end();
  if (g.num_vertices() == 0) throw InvalidArgument("trace: empty graph");

  const std::string order_name = args.option("--order").value_or("degree");
  auto order_span = tracer.span("order-" + order_name);
  const auto order = order_from_name(g, order_name, args.option_u64("--seed", 1));
  order_span.end();

  auto build_span = tracer.span("build-pll");
  const HubLabeling labels = pruned_landmark_labeling(g, order);
  build_span.end();

  const std::uint64_t queries = args.option_u64("--queries", 1000);
  {
    auto query_span = tracer.span("hub-queries");
    Rng rng(args.option_u64("--seed", 1) + 1);
    std::uint64_t reachable = 0;
    for (std::uint64_t i = 0; i < queries; ++i) {
      const auto u = static_cast<Vertex>(rng.next_below(g.num_vertices()));
      const auto v = static_cast<Vertex>(rng.next_below(g.num_vertices()));
      if (labels.query(u, v) != kInfDist) ++reachable;
    }
    metrics::registry().counter("cli.trace.queries").add(queries);
    metrics::registry().counter("cli.trace.reachable").add(reachable);
  }
  {
    auto sssp_span = tracer.span("reference-sssp");
    (void)sssp_distances(g, 0);
  }

  out << "graph " << *file << ": n=" << g.num_vertices() << " m=" << g.num_edges()
      << "; PLL avg=" << labels.average_label_size() << "\n\nphases:\n";
  tracer.write_tree(out);
  out << "\nmetrics:\n";
  metrics::registry().dump(out);

  if (const auto chrome = args.option("--chrome")) {
    std::ofstream chrome_out(*chrome);
    if (!chrome_out) throw Error("trace: cannot write " + *chrome);
    tracer.write_chrome_trace(chrome_out);
    chrome_out << '\n';
    out << "\nchrome trace written to " << *chrome << "\n";
  }
  return 0;
}

/// Validate BENCH_*.json / SERVE_*.json files against the run-report
/// schema.  Exit codes: 0 all valid, 1 schema/parse violation, 2 unreadable
/// file (io wins when both occur).  --quiet prints failures only.
int cmd_validate_bench(Args& args, std::ostream& out) {
  const bool quiet = args.flag("--quiet");
  std::vector<std::string> files;
  while (const auto f = args.next_positional()) files.push_back(*f);
  if (files.empty()) {
    throw InvalidArgument("validate-bench: usage: validate-bench [--quiet] FILE...");
  }
  bool any_invalid = false;
  bool any_unreadable = false;
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) {
      out << file << ": UNREADABLE\n";
      any_unreadable = true;
      continue;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::vector<std::string> errors;
    try {
      const JsonValue doc = parse_json(text.str());
      errors = validate_bench_json(doc);
    } catch (const Error& e) {
      errors.push_back(std::string("parse error: ") + e.what());
    }
    if (errors.empty()) {
      if (!quiet) out << file << ": ok\n";
    } else {
      any_invalid = true;
      out << file << ": INVALID\n";
      for (const std::string& e : errors) out << "  " << e << "\n";
    }
  }
  if (any_unreadable) return 2;
  return any_invalid ? 1 : 0;
}

/// Concurrent query server (see oracle/server.hpp): build one oracle, then
/// serve a pre-generated workload — open loop at the offered --qps
/// (Poisson or burst arrivals, each shard worker admitting its own into a
/// bounded queue in front of the batched kernel), or closed loop
/// (`--arrival closed`: each worker takes its next block when the last
/// returns) — and report latency quantiles, shed counts, and (with
/// --qps-sweep) the whole throughput-vs-latency ladder in one
/// SERVE_<oracle>.json plus an optional Prometheus dump.
int cmd_serve(Args& args, std::ostream& out) {
  const auto file = args.next_positional();
  if (!file) {
    throw InvalidArgument(
        "serve: usage: serve GRAPH [--oracle pll-flat|ch|bidij] "
        "[--workload uniform|zipf|near|far] [--queries N] [--seed N] [--workers N] "
        "[--qps RATE] [--qps-sweep R1,R2,...] [--arrival poisson|burst|closed] [--burst N] "
        "[--admission shed|block] [--ring N] [--batch N] [--timing wall|virtual] "
        "[--virtual-service-ns N] [--warmup-ms MS] [--cooldown-ms MS] [--slow-query-ms MS] "
        "[--window-ms MS] [--smoke] [--perf-counters] "
        "[--json-out FILE] [--prom-out FILE]");
  }
  serve::ServerConfig config;
  if (const auto o = args.option("--oracle")) {
    const auto kind = serve::parse_oracle_kind(*o);
    if (!kind) {
      throw InvalidArgument("serve: unknown oracle: " + *o + " (pll-flat|ch|bidij)");
    }
    config.oracle = *kind;
  }
  if (const auto w = args.option("--workload")) {
    const auto kind = serve::parse_workload_kind(*w);
    if (!kind) {
      throw InvalidArgument("serve: unknown workload: " + *w + " (uniform|zipf|near|far)");
    }
    config.workload = *kind;
  }
  if (const auto a = args.option("--arrival")) {
    const auto kind = serve::parse_arrival_kind(*a);
    if (!kind) {
      throw InvalidArgument("serve: unknown arrival: " + *a + " (poisson|burst|closed)");
    }
    config.arrival = *kind;
  }
  if (const auto a = args.option("--admission")) {
    const auto policy = serve::parse_admission_policy(*a);
    if (!policy) throw InvalidArgument("serve: unknown admission: " + *a + " (shed|block)");
    config.admission = *policy;
  }
  if (const auto m = args.option("--timing")) {
    const auto mode = serve::parse_timing_mode(*m);
    if (!mode) throw InvalidArgument("serve: unknown timing: " + *m + " (wall|virtual)");
    config.timing = *mode;
  }
  const bool smoke = args.flag("--smoke");
  config.num_queries = args.option_u64("--queries", smoke ? 2000 : 20000);
  config.seed = args.option_u64("--seed", 1);
  config.workers = static_cast<std::size_t>(args.option_u64("--workers", 4));
  config.qps = args.option_double("--qps", config.qps);
  if (!(config.qps > 0.0)) throw InvalidArgument("serve: --qps must be > 0");
  config.burst = args.option_u64("--burst", config.burst);
  config.ring_capacity = static_cast<std::size_t>(
      args.option_u64("--ring", config.ring_capacity));
  config.batch = static_cast<std::size_t>(args.option_u64("--batch", config.batch));
  config.virtual_service_ns =
      args.option_u64("--virtual-service-ns", config.virtual_service_ns);
  config.warmup_ms = args.option_u64("--warmup-ms", config.warmup_ms);
  config.cooldown_ms = args.option_u64("--cooldown-ms", config.cooldown_ms);
  const double slow_ms = args.option_double("--slow-query-ms", 0.0);
  if (slow_ms < 0.0) throw InvalidArgument("serve: --slow-query-ms must be >= 0");
  config.slow_query_ns = ms_to_ns(slow_ms, "--slow-query-ms");
  const double window_ms = args.option_double("--window-ms", 1000.0);
  if (window_ms <= 0.0) throw InvalidArgument("serve: --window-ms must be > 0");
  config.window_ns = ms_to_ns(window_ms, "--window-ms");

  // The offered-load ladder: the base --qps alone, or every comma-separated
  // rate of --qps-sweep (the report's `sweep` array; the last point is the
  // one the full report describes).
  std::vector<double> ladder;
  if (const auto sweep_arg = args.option("--qps-sweep")) {
    if (config.arrival == serve::ArrivalKind::kClosed) {
      throw InvalidArgument("serve: --qps-sweep needs an open-loop arrival (poisson|burst)");
    }
    std::stringstream ss(*sweep_arg);
    std::string tok;
    while (std::getline(ss, tok, ',')) {
      if (tok.empty()) continue;
      const double rate = parse_number<double>(tok, "--qps-sweep");
      if (!serve::valid_open_qps(rate)) {
        throw InvalidArgument("serve: --qps-sweep rates must be > 0 and below 2^63");
      }
      ladder.push_back(rate);
    }
    if (ladder.empty()) throw InvalidArgument("serve: --qps-sweep has no rates");
  } else {
    ladder.push_back(config.qps);
  }

  if (args.flag("--perf-counters")) {
    perf::set_enabled(true);
    out << "perf counters: " << perf::describe() << "\n";
  }

  const Graph g = io::load_edge_list(*file);
  Tracer tracer;
  // Build once, serve every ladder point against the same oracle.
  std::unique_ptr<DistanceOracle> oracle;
  double build_s = 0.0;
  {
    auto span = tracer.span("build-oracle");
    Timer build_timer;
    oracle = serve::make_oracle(g, config.oracle, PllConfig{config.workers});
    build_s = build_timer.elapsed_s();
  }

  std::vector<serve::SweepPoint> sweep;
  serve::ServerResult result;
  for (const double qps : ladder) {
    config.qps = qps;
    // Each point gets a clean registry so the final report (and any
    // --prom-out dump) reflects the last point, not a sum over the ladder.
    metrics::registry().reset();
    result = serve::run_server_on(g, *oracle, config, &tracer);
    sweep.push_back({result.offered_qps, result.achieved_qps, result.completed, result.rejected,
                     result.latency_ns.quantile(0.5), result.latency_ns.quantile(0.99)});
    if (ladder.size() > 1) {
      out << "  sweep qps=" << qps << ": achieved=" << result.achieved_qps
          << " completed=" << result.completed << " rejected=" << result.rejected
          << " p50_ns=" << result.latency_ns.quantile(0.5)
          << " p99_ns=" << result.latency_ns.quantile(0.99) << "\n";
    }
  }
  result.build_s = build_s;
  metrics::registry()
      .gauge("proc.peak_rss_bytes")
      .set(static_cast<std::int64_t>(peak_rss_bytes()));

  const QuantileSketch& lat = result.latency_ns;
  out << "serve " << *file << ": oracle=" << result.oracle_name
      << " workload=" << result.workload_name << " workers=" << result.workers
      << " batch=" << config.batch
      << " arrival=" << serve::arrival_kind_name(config.arrival) << " admission="
      << serve::admission_policy_name(config.admission)
      << " timing=" << serve::timing_mode_name(config.timing) << "\n";
  out << "  offered=" << result.offered << " (qps=" << result.offered_qps
      << ") completed=" << result.completed << " rejected=" << result.rejected
      << " achieved_qps=" << result.achieved_qps << "\n";
  out << "  latency_ns: p50=" << lat.quantile(0.5) << " p90=" << lat.quantile(0.9)
      << " p99=" << lat.quantile(0.99) << " p999=" << lat.quantile(0.999)
      << " max=" << lat.max() << " (rank error <= " << lat.rank_error_bound() << ")\n";
  out << "  queue_depth: p50=" << result.queue_depth.quantile(0.5)
      << " p99=" << result.queue_depth.quantile(0.99)
      << " max=" << result.queue_depth.max() << "\n";
  out << "  trimmed: warmup=" << result.trimmed_warmup
      << " cooldown=" << result.trimmed_cooldown
      << " utilization_pct=" << result.worker_utilization_pct << "\n";
  out << "  build_s=" << result.build_s << " space_bytes=" << result.space_bytes
      << " serve_loop_s=" << result.serve_loop_s << "\n";
  if (result.hw.valid) {
    out << "  hw: ipc=" << result.hw.ipc() << " llc_miss_rate=" << result.hw.llc_miss_rate()
        << " branch_miss_rate=" << result.hw.branch_miss_rate() << "\n";
  }

  const std::string json_path =
      args.option("--json-out")
          .value_or("SERVE_" + std::string(serve::oracle_kind_name(config.oracle)) + ".json");
  {
    std::ofstream json(json_path);
    if (!json) throw Error("serve: cannot write " + json_path);
    serve::write_server_report_json(json, result, config, sweep, g, *file, HUBLAB_GIT_REV,
                                    smoke, tracer);
    json.flush();
    if (!json) throw Error("serve: cannot write " + json_path);
  }
  out << "serve JSON written to " << json_path << "\n";

  if (const auto prom = args.option("--prom-out")) {
    std::ofstream prom_out(*prom);
    if (!prom_out) throw Error("serve: cannot write " + *prom);
    write_prometheus_text(metrics::registry(), prom_out);
    prom_out.flush();
    if (!prom_out) throw Error("serve: cannot write " + *prom);
    out << "prometheus dump written to " << *prom << "\n";
  }
  return 0;
}

/// Single-query attribution breakdown (docs/observability.md "Attributing
/// tail latency"): build the chosen oracle, answer one s-t query through
/// the QueryStats probe, and print label sizes, hubs scanned vs pruned,
/// the meeting hub, and per-phase wall times.  The answer is cross-checked
/// against a bidirectional-Dijkstra reference and against the batched
/// query kernel on the active ISA tier; exit 0 iff all three agree.
int cmd_explain(Args& args, std::ostream& out) {
  const auto graph_file = args.next_positional();
  const auto s_str = args.next_positional();
  const auto t_str = args.next_positional();
  if (!graph_file || !s_str || !t_str) {
    throw InvalidArgument(
        "explain: usage: explain GRAPH S T [--oracle pll-flat|ch|bidij] "
        "[--threads N]");
  }
  serve::OracleKind kind = serve::OracleKind::kPllFlat;
  if (const auto o = args.option("--oracle")) {
    const auto parsed = serve::parse_oracle_kind(*o);
    if (!parsed) {
      throw InvalidArgument("explain: unknown oracle: " + *o + " (pll-flat|ch|bidij)");
    }
    kind = *parsed;
  }
  PllConfig pll;
  pll.threads = static_cast<std::size_t>(args.option_u64("--threads", 0));

  const std::uint64_t t0 = monotonic_ns();
  const Graph g = io::load_edge_list(*graph_file);
  const std::uint64_t t_loaded = monotonic_ns();
  const Vertex s = parse_u32(*s_str, "S");
  const Vertex t = parse_u32(*t_str, "T");
  if (s >= g.num_vertices() || t >= g.num_vertices()) {
    throw InvalidArgument("explain: vertex out of range");
  }

  const std::unique_ptr<DistanceOracle> oracle = serve::make_oracle(g, kind, pll);
  const std::uint64_t t_built = monotonic_ns();

  metrics::QueryStats probe;
  const Dist dist = oracle->distance_with_stats(s, t, probe);
  const std::uint64_t t_queried = monotonic_ns();
  const Dist reference = bidirectional_distance(g, s, t);
  const bool agree = dist == reference;

  // Batched-kernel cross-check: the same pair through distance_batch must
  // produce the same distance.  Only the flat hub-label oracle runs the
  // stamp-table kernel on the active ISA tier (byte-identity is its
  // contract; see docs/performance.md "The batched query kernel"); the
  // others answer a block with the base-class loop over distance().
  const std::pair<Vertex, Vertex> batch_pair[1] = {{s, t}};
  HubQueryResult batch_answer[1];
  oracle->distance_batch(std::span<const std::pair<Vertex, Vertex>>(batch_pair),
                         std::span<HubQueryResult>(batch_answer));
  const bool batch_agree = batch_answer[0].dist == dist;

  out << "explain " << *graph_file << ": oracle=" << oracle->name() << " s=" << s << " t=" << t
      << "\n";
  out << "  dist = ";
  if (dist == kInfDist) out << "inf";
  else out << dist;
  out << " (dijkstra ";
  if (reference == kInfDist) out << "inf";
  else out << reference;
  out << ", agree=" << (agree ? "yes" : "NO") << ")\n";
  out << "  meeting_hub = ";
  if (probe.meeting_hub() == metrics::kNoMeetingHub) out << "none";
  else out << probe.meeting_hub();
  out << "\n";
  out << "  labels: |L(s)|=" << probe.label_size_s() << " |L(t)|=" << probe.label_size_t() << "\n";
  out << "  hubs: scanned=" << probe.hubs_scanned() << " matched=" << probe.hubs_matched()
      << " pruned=" << probe.hubs_pruned() << "\n";
  out << "  batch kernel: ";
  if (kind == serve::OracleKind::kPllFlat) out << "tier=" << simd::tier_name(simd::active_tier());
  else out << "none (per-pair loop)";
  out << " agree=" << (batch_agree ? "yes" : "NO") << "\n";
  out << "  phase_ns: load=" << (t_loaded - t0) << " build=" << (t_built - t_loaded)
      << " query=" << (t_queried - t_built) << "\n";
  if (!metrics::QueryStats::kEnabled) {
    out << "  (attribution counters compiled out: HUBLAB_METRICS=OFF)\n";
  }

  auto& reg = metrics::registry();
  reg.counter("explain.queries").add(1);
  reg.gauge("explain.query_ns").set(static_cast<std::int64_t>(t_queried - t_built));
  reg.gauge("explain.hubs_scanned").set(static_cast<std::int64_t>(probe.hubs_scanned()));
  reg.gauge("explain.hubs_matched").set(static_cast<std::int64_t>(probe.hubs_matched()));
  reg.gauge("explain.label_size_s").set(static_cast<std::int64_t>(probe.label_size_s()));
  reg.gauge("explain.label_size_t").set(static_cast<std::int64_t>(probe.label_size_t()));
  return (agree && batch_agree) ? 0 : 1;
}

/// Regression-diff two run reports (see util/bench_compare.hpp).  Exit
/// codes: 0 no regression, 1 regression past threshold or schema
/// violation, 2 unreadable input.
int cmd_bench_compare(Args& args, std::ostream& out) {
  const auto base_path = args.next_positional();
  const auto next_path = args.next_positional();
  if (!base_path || !next_path) {
    throw InvalidArgument(
        "bench-compare: usage: bench-compare BASE.json NEW.json [--threshold PCT] "
        "[--structural-threshold PCT] [--all]");
  }
  CompareOptions options;
  options.threshold_pct = args.option_double("--threshold", options.threshold_pct);
  options.structural_threshold_pct =
      args.option_double("--structural-threshold", options.structural_threshold_pct);

  JsonValue docs[2];
  const std::string* paths[2] = {&*base_path, &*next_path};
  for (int i = 0; i < 2; ++i) {
    std::ifstream in(*paths[i]);
    if (!in) {
      out << *paths[i] << ": UNREADABLE\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      docs[i] = parse_json(text.str());
    } catch (const Error& e) {
      out << *paths[i] << ": parse error: " << e.what() << "\n";
      return 1;
    }
  }

  const CompareReport report = compare_bench_json(docs[0], docs[1], options);
  write_compare_table(out, report, args.flag("--all"));
  return report.ok() ? 0 : 1;
}

/// `profile [--hz N] [--folded FILE] <command...>`: run any other hublab
/// subcommand under the sampling profiler (util/profiler.hpp) and write
/// the folded stacks when it returns.  Where SIGPROF sampling is
/// unsupported, the wrapped command still runs (unprofiled) — same
/// degrade-to-working contract as the hardware counters.
int cmd_profile(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  prof::ProfilerConfig config;
  std::string folded_path = "hublab_profile.folded";
  std::size_t i = 0;
  while (i < args.size()) {
    if (args[i] == "--hz" && i + 1 < args.size()) {
      config.hz = parse_u64(args[i + 1], "--hz");
      i += 2;
    } else if (args[i] == "--folded" && i + 1 < args.size()) {
      folded_path = args[i + 1];
      i += 2;
    } else {
      break;
    }
  }
  if (i >= args.size()) {
    throw InvalidArgument("profile: usage: profile [--hz N] [--folded FILE] <command...>");
  }
  if (args[i] == "profile") throw InvalidArgument("profile: cannot nest profile");
  const std::uint64_t hz = std::clamp(config.hz, prof::kMinHz, prof::kMaxHz);
  if (hz != config.hz) out << "profile: --hz " << config.hz << " clamped to " << hz << "\n";

  prof::reset();
  const bool armed = prof::start(config);
  if (!armed) out << "profiler: unsupported here; running the command unprofiled\n";
  const int code = run(std::vector<std::string>(args.begin() + static_cast<std::ptrdiff_t>(i),
                                                args.end()),
                       out, err);
  if (armed) {
    prof::stop();
    std::ofstream folded(folded_path);
    if (!folded) throw Error("profile: cannot write " + folded_path);
    prof::write_folded(folded);
    out << "profile: " << prof::samples() << " samples (" << prof::dropped()
        << " dropped), folded stacks written to " << folded_path << "\n";
  }
  return code;
}

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  // Always-on post-mortem: any crash below (or in a worker thread) dumps
  // the flight-recorder rings before the default disposition runs.
  fr::install_crash_handler();
  if (args.empty()) {
    err << "usage: hublab "
           "<gen|stats|label|query|explain|verify|certify-gadget|sumindex|trace|serve|"
           "profile|validate-bench|bench-compare> ...\n";
    return 2;
  }
  Args rest(std::vector<std::string>(args.begin() + 1, args.end()));
  try {
    if (args[0] == "profile") {
      return cmd_profile(std::vector<std::string>(args.begin() + 1, args.end()), out, err);
    }
    if (args[0] == "gen") return cmd_gen(rest, out);
    if (args[0] == "stats") return cmd_stats(rest, out);
    if (args[0] == "label") return cmd_label(rest, out);
    if (args[0] == "query") return cmd_query(rest, out);
    if (args[0] == "verify") return cmd_verify(rest, out);
    if (args[0] == "certify-gadget") return cmd_certify_gadget(rest, out);
    if (args[0] == "sumindex") return cmd_sumindex(rest, out);
    if (args[0] == "trace") return cmd_trace(rest, out);
    if (args[0] == "serve") return cmd_serve(rest, out);
    if (args[0] == "explain") return cmd_explain(rest, out);
    if (args[0] == "validate-bench") return cmd_validate_bench(rest, out);
    if (args[0] == "bench-compare") return cmd_bench_compare(rest, out);
    err << "unknown command: " << args[0] << "\n";
    return 2;
  } catch (const std::exception& e) {
    // hublab::Error and standard-library failures alike (std::length_error
    // from an oversized reserve, std::bad_alloc): a clean exit, never
    // std::terminate's abort.
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace hublab::cli
