#include "oracle/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algo/shortest_paths.hpp"
#include "graph/generators.hpp"
#include "lowerbound/gadget.hpp"
#include "oracle/oracle.hpp"
#include "rs/rs_graph.hpp"
#include "util/bench_schema.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/prometheus.hpp"
#include "util/querystats.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace hublab::serve {
namespace {

const Graph& test_graph() {
  static const Graph g = [] {
    Rng rng(1);
    return gen::connected_gnm(200, 400, rng);
  }();
  return g;
}

/// One PLL-flat oracle shared across the suite (the build dominates the
/// per-test cost, and run_server_on never mutates it).
const DistanceOracle& test_oracle() {
  static const std::unique_ptr<DistanceOracle> oracle =
      make_oracle(test_graph(), OracleKind::kPllFlat);
  return *oracle;
}

/// The Figure 1 gadget H_{1,1} and one oracle of each kind over it.
const Graph& gadget() {
  static const Graph g = lb::LayeredGadget(lb::GadgetParams{1, 1}).graph();
  return g;
}

const DistanceOracle& gadget_oracle(OracleKind kind) {
  static std::map<OracleKind, std::unique_ptr<DistanceOracle>> oracles;
  std::unique_ptr<DistanceOracle>& oracle = oracles[kind];
  if (!oracle) oracle = make_oracle(gadget(), kind);
  return *oracle;
}

ServerConfig base_config() {
  ServerConfig config;
  config.oracle = OracleKind::kPllFlat;
  config.workload = WorkloadKind::kUniform;
  config.num_queries = 500;
  config.seed = 7;
  config.qps = 500e3;
  config.register_metrics = false;
  return config;
}

/// The deterministic overload shape: virtual time, 4 workers at a simulated
/// 1M queries/s each, offered 4x that against a small ring.
ServerConfig overload_config() {
  ServerConfig config = base_config();
  config.workers = 4;
  config.batch = 8;
  config.timing = TimingMode::kVirtual;
  config.virtual_service_ns = 1000;
  config.qps = 16e6;
  config.ring_capacity = 32;
  config.admission = AdmissionPolicy::kShed;
  return config;
}

/// The closed-loop shape: one worker answering 300 pairs one at a time,
/// which keeps per-query scan attribution.
ServerConfig closed_config(OracleKind oracle, WorkloadKind workload) {
  ServerConfig config;
  config.oracle = oracle;
  config.workload = workload;
  config.arrival = ArrivalKind::kClosed;
  config.num_queries = 300;
  config.seed = 5;
  config.workers = 1;
  config.batch = 1;
  config.register_metrics = false;
  return config;
}

ServerResult serve_gadget(const ServerConfig& config, Tracer* tracer = nullptr) {
  return run_server_on(gadget(), gadget_oracle(config.oracle), config, tracer);
}

std::string report_json(const ServerResult& result, const ServerConfig& config,
                        const Tracer& tracer) {
  std::ostringstream os;
  write_server_report_json(os, result, config, {}, gadget(), "gadget-h", "deadbeef", true,
                           tracer);
  return os.str();
}

TEST(ServeEnums, NamesRoundTripThroughParse) {
  for (const OracleKind kind : {OracleKind::kPllFlat, OracleKind::kCh, OracleKind::kBidij}) {
    EXPECT_EQ(parse_oracle_kind(oracle_kind_name(kind)), kind);
  }
  for (const WorkloadKind kind : {WorkloadKind::kUniform, WorkloadKind::kZipf,
                                  WorkloadKind::kNear, WorkloadKind::kFar}) {
    EXPECT_EQ(parse_workload_kind(workload_kind_name(kind)), kind);
  }
  EXPECT_FALSE(parse_oracle_kind("apsp").has_value());
  EXPECT_FALSE(parse_oracle_kind("pll").has_value());
  EXPECT_FALSE(parse_workload_kind("bursty").has_value());
}

TEST(MakeOracle, BuildsEveryKindAndRejectsEmptyGraph) {
  const Graph& g = gadget();
  const Dist expected = sssp_distances(g, 0)[1];
  for (const OracleKind kind : {OracleKind::kPllFlat, OracleKind::kCh, OracleKind::kBidij}) {
    const auto oracle = make_oracle(g, kind);
    ASSERT_NE(oracle, nullptr);
    EXPECT_EQ(oracle->distance(0, 1), expected) << oracle_kind_name(kind);
  }
  const Graph empty;
  EXPECT_THROW((void)make_oracle(empty, OracleKind::kPllFlat), InvalidArgument);
}

TEST(WorkloadGenerator, DeterministicAndInRange) {
  // Large enough that the far-workload distance quartiles hold many
  // vertices; on tiny graphs the pools collapse to one vertex and every
  // seed generates the same (only possible) pair.
  Rng graph_rng(1);
  const Graph g = gen::connected_gnm(200, 400, graph_rng);
  for (const WorkloadKind kind : {WorkloadKind::kUniform, WorkloadKind::kZipf,
                                  WorkloadKind::kNear, WorkloadKind::kFar}) {
    WorkloadGenerator a(g, kind, 11);
    WorkloadGenerator b(g, kind, 11);
    WorkloadGenerator c(g, kind, 12);
    std::vector<std::pair<Vertex, Vertex>> from_a;
    bool differs_from_c = false;
    for (int i = 0; i < 200; ++i) {
      const auto pa = a.next();
      const auto pb = b.next();
      const auto pc = c.next();
      EXPECT_EQ(pa, pb) << "workload " << workload_kind_name(kind) << " not deterministic";
      EXPECT_LT(pa.first, g.num_vertices());
      EXPECT_LT(pa.second, g.num_vertices());
      differs_from_c = differs_from_c || pa != pc;
      from_a.push_back(pa);
    }
    EXPECT_TRUE(differs_from_c) << "seed is ignored for " << workload_kind_name(kind);
  }
}

TEST(WorkloadGenerator, ZipfSkewsTowardLowVertexIds) {
  Rng rng(3);
  const Graph g = gen::connected_gnm(500, 1000, rng);
  WorkloadGenerator w(g, WorkloadKind::kZipf, 7);
  std::size_t low = 0;
  const int samples = 4000;
  for (int i = 0; i < samples; ++i) {
    const auto [u, v] = w.next();
    low += u < g.num_vertices() / 10 ? 1 : 0;
    low += v < g.num_vertices() / 10 ? 1 : 0;
  }
  // Uniform endpoints would put ~10% in the first decile; Zipf(1) puts the
  // bulk there.  Use a conservative threshold to stay seed-robust.
  EXPECT_GT(low, static_cast<std::size_t>(2 * samples * 2 / 10));
}

TEST(WorkloadGenerator, BlockMatchesStreamedNext) {
  // The server pre-generates pairs via block(); the benches stream them
  // via next().  Same seed, same stream — or the two would silently
  // answer different workloads.
  Rng graph_rng(2);
  const Graph g = gen::connected_gnm(100, 200, graph_rng);
  for (const WorkloadKind kind : {WorkloadKind::kUniform, WorkloadKind::kZipf,
                                  WorkloadKind::kNear, WorkloadKind::kFar}) {
    WorkloadGenerator blocked(g, kind, 9);
    WorkloadGenerator streamed(g, kind, 9);
    const auto pairs = blocked.block(150);
    ASSERT_EQ(pairs.size(), 150u);
    for (const auto& pair : pairs) {
      EXPECT_EQ(pair, streamed.next()) << workload_kind_name(kind);
    }
  }
}

TEST(WorkloadGenerator, AllKindsSurviveSingleVertexGraph) {
  // Degenerate bounds: one vertex, no arcs.  The near walk has nowhere to
  // go, the far pools collapse to the root, zipf's CDF has one entry.
  const Graph g = GraphBuilder(1).build();
  for (const WorkloadKind kind : {WorkloadKind::kUniform, WorkloadKind::kZipf,
                                  WorkloadKind::kNear, WorkloadKind::kFar}) {
    WorkloadGenerator w(g, kind, 3);
    for (int i = 0; i < 50; ++i) {
      const auto [u, v] = w.next();
      EXPECT_EQ(u, 0u) << workload_kind_name(kind);
      EXPECT_EQ(v, 0u) << workload_kind_name(kind);
    }
  }
}

TEST(WorkloadGenerator, NearAndFarStayReachableOnDisconnectedGraphs) {
  // Two components (a path and a cycle) plus an isolated vertex.  Near
  // pairs follow real arcs out of u, so they cannot cross components; far
  // pairs come from the BFS quartiles of the highest-degree root, so both
  // endpoints live in that root's component.  Either way every generated
  // pair has a finite distance — uniform on this graph would not.
  GraphBuilder builder(11);
  for (Vertex v = 0; v + 1 < 5; ++v) builder.add_edge(v, v + 1);  // path 0..4
  for (Vertex v = 5; v < 10; ++v) builder.add_edge(v, 5 + (v - 4) % 5);  // cycle 5..9
  const Graph g = builder.build();  // vertex 10 stays isolated
  for (const WorkloadKind kind : {WorkloadKind::kNear, WorkloadKind::kFar}) {
    WorkloadGenerator w(g, kind, 17);
    for (int i = 0; i < 300; ++i) {
      const auto [u, v] = w.next();
      ASSERT_LT(u, g.num_vertices());
      ASSERT_LT(v, g.num_vertices());
      EXPECT_NE(sssp_distances(g, u)[v], kInfDist)
          << workload_kind_name(kind) << " produced unreachable pair " << u << "->" << v;
    }
  }
}

TEST(ServeOpen, EnumNamesRoundTripThroughParse) {
  for (const ArrivalKind kind :
       {ArrivalKind::kPoisson, ArrivalKind::kBurst, ArrivalKind::kClosed}) {
    EXPECT_EQ(parse_arrival_kind(arrival_kind_name(kind)), kind);
  }
  for (const AdmissionPolicy policy : {AdmissionPolicy::kShed, AdmissionPolicy::kBlock}) {
    EXPECT_EQ(parse_admission_policy(admission_policy_name(policy)), policy);
  }
  for (const TimingMode mode : {TimingMode::kWall, TimingMode::kVirtual}) {
    EXPECT_EQ(parse_timing_mode(timing_mode_name(mode)), mode);
  }
  EXPECT_FALSE(parse_arrival_kind("uniform").has_value());
  EXPECT_FALSE(parse_admission_policy("drop").has_value());
  EXPECT_FALSE(parse_timing_mode("simulated").has_value());
}

TEST(ServeOpen, RejectsInvalidConfigs) {
  ServerConfig config = base_config();
  // Zero, and rates whose arrival offsets (1e-12) or offered-qps gauge
  // (inf, 1e300) overflow their integer types.
  for (const double qps : {0.0, 1e-12, std::numeric_limits<double>::infinity(), 1e300}) {
    config.qps = qps;
    EXPECT_THROW((void)run_server_on(test_graph(), test_oracle(), config), InvalidArgument)
        << qps;
  }
  config = base_config();
  config.num_queries = 0;
  EXPECT_THROW((void)run_server_on(test_graph(), test_oracle(), config), InvalidArgument);
  const Graph empty;
  EXPECT_THROW((void)run_server_on(empty, test_oracle(), base_config()), InvalidArgument);
}

TEST(ServeOpen, BlockAdmissionAnswersEveryQuery) {
  ServerConfig config = base_config();
  config.admission = AdmissionPolicy::kBlock;
  config.workers = 2;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config);
  EXPECT_EQ(r.offered, config.num_queries);
  EXPECT_EQ(r.completed, config.num_queries);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.workers, 2u);
  EXPECT_GT(r.checksum, 0u);
  EXPECT_GT(r.achieved_qps, 0.0);
  EXPECT_GT(r.space_bytes, 0u);
  // oracle_name is the implementation's self-reported name (the report's
  // `oracle_impl` member), distinct from the configured kind string.
  EXPECT_EQ(r.oracle_name, test_oracle().name());
  EXPECT_GT(r.start_unix_ms, 0u);
  // Untrimmed completions all land in the latency sketch.
  EXPECT_EQ(r.latency_ns.count() + r.trimmed_warmup + r.trimmed_cooldown, r.completed);
}

TEST(ServeOpen, HugeRingOrBatchAnswersEveryQuery) {
  // A worker never holds more than its own slice of the queries, so its
  // FIFO and block buffers stop at the slice: a 10^12-item ring (open
  // loop) or block (closed loop) allocates 64 items and sheds nothing.
  constexpr std::size_t kHuge = 1'000'000'000'000;
  ServerConfig open = base_config();
  open.num_queries = 64;
  open.workers = 1;
  open.qps = 1e6;
  open.ring_capacity = kHuge;
  ServerConfig closed = closed_config(OracleKind::kPllFlat, WorkloadKind::kUniform);
  closed.num_queries = 64;
  closed.batch = kHuge;
  for (const ServerConfig* config : {&open, &closed}) {
    const ServerResult r = run_server_on(test_graph(), test_oracle(), *config);
    EXPECT_EQ(r.offered, 64u);
    EXPECT_EQ(r.completed, 64u);
    EXPECT_EQ(r.rejected, 0u);
  }
}

TEST(ServeOpen, ChecksumMatchesDirectOracleLoop) {
  // kBlock answers the whole pre-generated stream, so the served checksum
  // must equal a plain sequential loop over the same WorkloadGenerator
  // pairs against the same oracle.
  ServerConfig config = base_config();
  config.admission = AdmissionPolicy::kBlock;
  config.workers = 3;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config);

  WorkloadGenerator workload(test_graph(), config.workload, config.seed);
  const auto pairs = workload.block(config.num_queries);
  std::uint64_t checksum = 0;
  std::uint64_t reachable = 0;
  for (const auto& [s, t] : pairs) {
    const Dist d = test_oracle().distance(s, t);
    if (d != kInfDist) {
      checksum += d;
      ++reachable;
    }
  }
  EXPECT_EQ(r.checksum, checksum);
  EXPECT_EQ(r.reachable, reachable);
}

TEST(ServeOpen, WorkerCountDoesNotChangeAnswersUnderBlock) {
  // The determinism contract: with kBlock admission the answered set is
  // schedule-independent, so 1 and 4 workers agree on every counted thing.
  ServerConfig one = base_config();
  one.admission = AdmissionPolicy::kBlock;
  one.workers = 1;
  ServerConfig four = one;
  four.workers = 4;
  const ServerResult r1 = run_server_on(test_graph(), test_oracle(), one);
  const ServerResult r4 = run_server_on(test_graph(), test_oracle(), four);
  EXPECT_EQ(r1.offered, r4.offered);
  EXPECT_EQ(r1.completed, r4.completed);
  EXPECT_EQ(r1.checksum, r4.checksum);
  EXPECT_EQ(r1.reachable, r4.reachable);
  EXPECT_EQ(r1.latency_ns.count(), r4.latency_ns.count());
}

TEST(ServeOpen, BatchedDrainMatchesScalarChecksum) {
  // batch >= 2 routes through distance_batch (the SIMD kernel on the flat
  // oracle); batch == 1 is the per-query scalar path.  Same answers.
  ServerConfig scalar = base_config();
  scalar.admission = AdmissionPolicy::kBlock;
  scalar.batch = 1;
  ServerConfig batched = scalar;
  batched.batch = 32;
  const ServerResult rs = run_server_on(test_graph(), test_oracle(), scalar);
  const ServerResult rb = run_server_on(test_graph(), test_oracle(), batched);
  EXPECT_EQ(rs.checksum, rb.checksum);
  EXPECT_EQ(rs.reachable, rb.reachable);
  EXPECT_EQ(rs.completed, rb.completed);
}

TEST(ServeOpen, VirtualOverloadShedsDeterministically) {
  const ServerConfig config = overload_config();
  const ServerResult first = run_server_on(test_graph(), test_oracle(), config);
  const ServerResult second = run_server_on(test_graph(), test_oracle(), config);
  // Offered 4x the simulated capacity against a small ring: shedding is
  // mandatory, and completed + rejected partitions the offered stream.
  EXPECT_GT(first.rejected, 0u);
  EXPECT_EQ(first.completed + first.rejected, first.offered);
  // Byte-identical rerun: counts, answers, and the simulated telemetry.
  EXPECT_EQ(first.rejected, second.rejected);
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.checksum, second.checksum);
  EXPECT_EQ(first.reachable, second.reachable);
  EXPECT_EQ(first.trimmed_warmup, second.trimmed_warmup);
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(first.latency_ns.quantile(q), second.latency_ns.quantile(q));
    EXPECT_EQ(first.queue_depth.quantile(q), second.queue_depth.quantile(q));
  }
  EXPECT_EQ(first.latency_ns.count(), second.latency_ns.count());
  EXPECT_EQ(first.latency_ns.max(), second.latency_ns.max());
  ASSERT_EQ(first.windows.size(), second.windows.size());
  for (std::size_t i = 0; i < first.windows.size(); ++i) {
    EXPECT_EQ(first.windows[i].index, second.windows[i].index);
    EXPECT_EQ(first.windows[i].queries, second.windows[i].queries);
    EXPECT_EQ(first.windows[i].offered, second.windows[i].offered);
    EXPECT_EQ(first.windows[i].rejected, second.windows[i].rejected);
    EXPECT_EQ(first.windows[i].p99_ns, second.windows[i].p99_ns);
  }
  EXPECT_EQ(first.exemplars.count(), second.exemplars.count());
}

TEST(ServeOpen, VirtualSubCapacityShedsNothing) {
  ServerConfig config = overload_config();
  config.qps = 200e3;  // well under 4 workers x 1M/s simulated
  config.ring_capacity = 1024;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config);
  EXPECT_EQ(r.rejected, 0u);
  EXPECT_EQ(r.completed, r.offered);
  // Simulated arrival-to-completion is at least the constant service time.
  EXPECT_GE(r.latency_ns.quantile(0.5), config.virtual_service_ns);
}

TEST(ServeOpen, WallClockShedRejectsWhenQueueIsFull) {
  // Every arrival is due within about a microsecond, so the one worker
  // meets a full queue of 4 long before it has answered the stream.
  ServerConfig config = base_config();
  config.workers = 1;
  config.batch = 1;
  config.ring_capacity = 4;
  config.qps = 1e9;
  config.admission = AdmissionPolicy::kShed;
  config.timing = TimingMode::kWall;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config);
  EXPECT_GT(r.rejected, 0u);
  EXPECT_GE(r.completed, 4u);
  EXPECT_EQ(r.completed + r.rejected, r.offered);
  EXPECT_LE(r.queue_depth.max(), 4u);
}

/// Answers every pair with distance 1, except that its third
/// distance_batch call (counted across every worker) throws.
class ThirdBatchThrowsOracle final : public DistanceOracle {
 public:
  [[nodiscard]] std::string name() const override { return "third-batch-throws"; }
  [[nodiscard]] Dist distance(Vertex /*u*/, Vertex /*v*/) const override { return 1; }
  [[nodiscard]] std::size_t space_bytes() const override { return 0; }
  void distance_batch(std::span<const std::pair<Vertex, Vertex>> pairs,
                      std::span<HubQueryResult> out) const override {
    if (calls_.fetch_add(1, std::memory_order_relaxed) == 2) {
      throw std::runtime_error("third batch");
    }
    DistanceOracle::distance_batch(pairs, out);
  }

 private:
  mutable std::atomic<std::uint64_t> calls_{0};
};

TEST(ServeOpen, OracleExceptionPropagatesUnderEveryArrival) {
  // A worker's failure surfaces from run_server_on; it neither hangs the
  // other workers nor terminates the process.
  for (const ArrivalKind arrival : {ArrivalKind::kPoisson, ArrivalKind::kClosed}) {
    ServerConfig config = base_config();
    config.arrival = arrival;
    config.workers = 2;
    config.batch = 4;
    config.admission = AdmissionPolicy::kBlock;
    const ThirdBatchThrowsOracle oracle;
    EXPECT_THROW((void)run_server_on(test_graph(), oracle, config), std::runtime_error)
        << arrival_kind_name(arrival);
  }
}

TEST(ServeOpen, BurstArrivalsServeIdenticalAnswers) {
  ServerConfig poisson = base_config();
  poisson.admission = AdmissionPolicy::kBlock;
  ServerConfig burst = poisson;
  burst.arrival = ArrivalKind::kBurst;
  burst.burst = 16;
  const ServerResult rp = run_server_on(test_graph(), test_oracle(), poisson);
  const ServerResult rb = run_server_on(test_graph(), test_oracle(), burst);
  // The arrival process shapes latency, never the answered set.
  EXPECT_EQ(rp.checksum, rb.checksum);
  EXPECT_EQ(rp.completed, rb.completed);
}

TEST(ServeOpen, WarmupTrimExcludesHeadOfSchedule) {
  // Virtual time makes the trim deterministic: arrivals span
  // num_queries/qps seconds, and every completion is still checksummed.
  ServerConfig config = overload_config();
  config.qps = 1e6;      // schedule spans ~500us
  config.warmup_ms = 10; // clamps to span/4: a deterministic head trim
  config.ring_capacity = 4096;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config);
  EXPECT_GT(r.trimmed_warmup, 0u);
  EXPECT_EQ(r.latency_ns.count() + r.trimmed_warmup + r.trimmed_cooldown, r.completed);

  ServerConfig no_trim = config;
  no_trim.warmup_ms = 0;
  const ServerResult all = run_server_on(test_graph(), test_oracle(), no_trim);
  EXPECT_EQ(all.trimmed_warmup, 0u);
  // Trimming is telemetry-only: the answered set does not change.
  EXPECT_EQ(all.checksum, r.checksum);
  EXPECT_EQ(all.completed, r.completed);
}

TEST(ServeOpen, CooldownTrimExcludesTailOfSchedule) {
  ServerConfig config = overload_config();
  config.qps = 1e6;
  config.warmup_ms = 0;
  config.cooldown_ms = 10;  // clamps to span/4: a deterministic tail trim
  config.ring_capacity = 4096;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config);
  EXPECT_GT(r.trimmed_cooldown, 0u);
  EXPECT_EQ(r.trimmed_warmup, 0u);
  EXPECT_EQ(r.latency_ns.count() + r.trimmed_cooldown, r.completed);
}

TEST(ServeOpen, WindowsPartitionUntrimmedCompletionsAndOffered) {
  ServerConfig config = overload_config();
  config.qps = 2e6;
  config.window_ns = 100'000;  // the schedule spans several windows
  config.warmup_ms = 0;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config);
  ASSERT_FALSE(r.windows.empty());
  std::uint64_t queries = 0;
  std::uint64_t offered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t prev_index = 0;
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    const WindowStats& w = r.windows[i];
    if (i > 0) {
      EXPECT_GT(w.index, prev_index);
    }
    prev_index = w.index;
    EXPECT_LE(w.rejected, w.offered);
    queries += w.queries;
    offered += w.offered;
    rejected += w.rejected;
  }
  EXPECT_EQ(queries, r.latency_ns.count());
  EXPECT_EQ(offered, r.offered);
  EXPECT_EQ(rejected, r.rejected);
}

#if HUBLAB_METRICS_ENABLED

TEST(ServeOpen, PopulatesRegistryMetrics) {
  metrics::registry().reset();
  ServerConfig config = overload_config();
  config.register_metrics = true;
  (void)run_server_on(test_graph(), test_oracle(), config);
  std::uint64_t offered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t queries = 0;
  for (const auto& c : metrics::registry().counters()) {
    if (c.name == "serve.offered") offered = c.value;
    if (c.name == "serve.rejected") rejected = c.value;
    if (c.name == "serve.queries") queries = c.value;
  }
  EXPECT_EQ(offered, config.num_queries);
  EXPECT_GT(rejected, 0u);
  EXPECT_EQ(queries + rejected, offered);
  bool saw_depth = false;
  for (const auto& s : metrics::registry().sketches()) {
    saw_depth = saw_depth || s.name == "serve.queue_depth";
  }
  EXPECT_TRUE(saw_depth);
  metrics::registry().reset();
}

#endif  // HUBLAB_METRICS_ENABLED

TEST(ServeOpen, ReportValidatesAgainstBenchSchema) {
  metrics::registry().reset();
  Tracer tracer;
  ServerConfig config = overload_config();
  config.window_ns = 100'000;
  const ServerResult r = run_server_on(test_graph(), test_oracle(), config, &tracer);
  std::vector<SweepPoint> sweep;
  sweep.push_back({config.qps, r.achieved_qps, r.completed, r.rejected,
                   r.latency_ns.quantile(0.5), r.latency_ns.quantile(0.99)});

  std::ostringstream os;
  write_server_report_json(os, r, config, sweep, test_graph(), "connected-gnm", "deadbeef",
                           true, tracer);
  const JsonValue doc = parse_json(os.str());
  const std::vector<std::string> errors = validate_bench_json(doc);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());

  EXPECT_EQ(doc.find("bench")->string_value, "serve-pll-flat");
  EXPECT_EQ(doc.find("admission")->string_value, "shed");
  EXPECT_EQ(doc.find("arrival")->string_value, "poisson");
  EXPECT_EQ(doc.find("timing")->string_value, "virtual");
  EXPECT_EQ(doc.find("offered")->number_value, static_cast<double>(r.offered));
  EXPECT_EQ(doc.find("rejected")->number_value, static_cast<double>(r.rejected));
  EXPECT_EQ(doc.find("queries")->number_value, static_cast<double>(r.completed));
  ASSERT_NE(doc.find("queue_depth"), nullptr);
  ASSERT_NE(doc.find("latency_ns"), nullptr);
  ASSERT_NE(doc.find("trimmed_warmup"), nullptr);
  const JsonValue* windows = doc.find("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_FALSE(windows->array_items.empty());
  for (const JsonValue& w : windows->array_items) {
    ASSERT_NE(w.find("offered"), nullptr);
    ASSERT_NE(w.find("rejected"), nullptr);
  }
  const JsonValue* sweep_json = doc.find("sweep");
  ASSERT_NE(sweep_json, nullptr);
  ASSERT_EQ(sweep_json->array_items.size(), 1u);
  ASSERT_NE(sweep_json->array_items[0].find("qps"), nullptr);
  ASSERT_NE(sweep_json->array_items[0].find("achieved_qps"), nullptr);
  ASSERT_NE(sweep_json->array_items[0].find("p99_ns"), nullptr);
}

// Closed arrivals: each worker takes its next block when the previous one
// returns, so latency is service time and nothing is shed or trimmed.

TEST(ServeClosed, RejectsEmptyGraphAndVirtualTiming) {
  const Graph empty;
  const ServerConfig config = closed_config(OracleKind::kPllFlat, WorkloadKind::kUniform);
  EXPECT_THROW((void)run_server_on(empty, test_oracle(), config), InvalidArgument);
  ServerConfig virtual_closed = config;
  virtual_closed.timing = TimingMode::kVirtual;
  EXPECT_THROW((void)run_server_on(test_graph(), test_oracle(), virtual_closed),
               InvalidArgument);
}

TEST(ServeClosed, WorkerCountDoesNotChangeResults) {
  // The determinism contract for the closed loop: everything except wall
  // times — checksum, reachability, and the sketch and reservoir
  // populations — is identical at 1 and at 4 workers.
  ServerConfig one = closed_config(OracleKind::kPllFlat, WorkloadKind::kZipf);
  ServerConfig four = one;
  four.workers = 4;
  const ServerResult r1 = serve_gadget(one);
  const ServerResult r4 = serve_gadget(four);
  EXPECT_EQ(r1.workers, 1u);
  EXPECT_EQ(r4.workers, 4u);
  EXPECT_EQ(r1.completed, 300u);
  EXPECT_EQ(r1.completed, r4.completed);
  EXPECT_EQ(r1.checksum, r4.checksum);
  EXPECT_EQ(r1.reachable, r4.reachable);
  EXPECT_EQ(r1.latency_ns.count(), r4.latency_ns.count());
  EXPECT_EQ(r1.exemplars.count(), r4.exemplars.count());
  EXPECT_EQ(r1.space_bytes, r4.space_bytes);
  for (const ServerResult* r : {&r1, &r4}) {
    EXPECT_EQ(r->offered, r->completed);
    EXPECT_EQ(r->rejected, 0u);
    EXPECT_EQ(r->trimmed_warmup + r->trimmed_cooldown, 0u);
    EXPECT_EQ(r->queue_depth.count(), 0u);
  }
}

TEST(ServeClosed, AttributionIsWorkerCountInvariant) {
  // Scan cost and meeting hubs are functions of (oracle, pairs), so the
  // heavy-hitter totals and top-K match across worker counts (retained
  // exemplar *contents* hinge on measured latencies and may differ).
  ServerConfig one = closed_config(OracleKind::kPllFlat, WorkloadKind::kNear);
  ServerConfig four = one;
  four.workers = 4;
  const ServerResult r1 = serve_gadget(one);
  const ServerResult r4 = serve_gadget(four);
  EXPECT_EQ(r1.exemplars.count(), r4.exemplars.count());
  if (metrics::QueryStats::kEnabled) {
    EXPECT_GT(r1.hub_scan_cost.total_weight(), 0u);
  }
  EXPECT_EQ(r1.hub_scan_cost.total_weight(), r4.hub_scan_cost.total_weight());
  const auto t1 = r1.hub_scan_cost.top();
  const auto t4 = r4.hub_scan_cost.top();
  ASSERT_EQ(t1.size(), t4.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i].key, t4[i].key);
    EXPECT_EQ(t1[i].weight, t4[i].weight);
  }
}

TEST(ServeClosed, BatchedLatencyChargesFullBlockTime) {
  // Every query of a batched block completes when the kernel call returns,
  // so each is charged the block's wall time and the sketch's total is
  // roughly block-size times the per-query path's.  Answers do not move.
  ServerConfig scalar = closed_config(OracleKind::kPllFlat, WorkloadKind::kUniform);
  scalar.num_queries = 2048;  // 64 full blocks of 32
  ServerConfig batched = scalar;
  batched.batch = 32;
  const ServerResult rs = run_server_on(test_graph(), test_oracle(), scalar);
  const ServerResult rb = run_server_on(test_graph(), test_oracle(), batched);
  EXPECT_EQ(rs.checksum, rb.checksum);
  EXPECT_EQ(rs.reachable, rb.reachable);
  EXPECT_EQ(rs.latency_ns.count(), rb.latency_ns.count());
  // A conservative 2x bound (the real ratio is near 32x less the SIMD
  // speedup) keeps the test robust to scheduling noise.
  EXPECT_GT(rb.latency_ns.sum(), 2 * rs.latency_ns.sum());
}

TEST(ServeClosed, GadgetLatencyQuantilesAreMonotoneAcrossOracles) {
  for (const OracleKind oracle : {OracleKind::kPllFlat, OracleKind::kCh, OracleKind::kBidij}) {
    const ServerResult result = serve_gadget(closed_config(oracle, WorkloadKind::kUniform));
    EXPECT_EQ(result.completed, 300u) << oracle_kind_name(oracle);
    EXPECT_GT(result.start_unix_ms, 0u);
    const QuantileSketch& lat = result.latency_ns;
    EXPECT_EQ(lat.count(), result.completed);
    const std::uint64_t p50 = lat.quantile(0.5);
    const std::uint64_t p90 = lat.quantile(0.9);
    const std::uint64_t p99 = lat.quantile(0.99);
    const std::uint64_t p999 = lat.quantile(0.999);
    EXPECT_GT(p50, 0u);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_LE(p99, p999);
    EXPECT_LE(p999, lat.max());
    // The gadget is connected: every query must find a finite distance.
    EXPECT_EQ(result.reachable, result.completed);
    EXPECT_GT(result.checksum, 0u);
  }
}

TEST(ServeClosed, RsGraphFamilyAndAllWorkloads) {
  const rs::RsGraph rs_graph = rs::behrend_rs_graph(30);
  const auto oracle = make_oracle(rs_graph.graph, OracleKind::kPllFlat);
  for (const WorkloadKind workload : {WorkloadKind::kUniform, WorkloadKind::kZipf,
                                      WorkloadKind::kNear, WorkloadKind::kFar}) {
    const ServerResult result = run_server_on(
        rs_graph.graph, *oracle, closed_config(OracleKind::kPllFlat, workload));
    EXPECT_EQ(result.completed, 300u) << workload_kind_name(workload);
    EXPECT_LE(result.latency_ns.quantile(0.5), result.latency_ns.quantile(0.99));
    // near endpoints come from a random walk out of u, far endpoints from
    // the reachable distance quartiles: both always produce reachable pairs.
    if (workload == WorkloadKind::kNear || workload == WorkloadKind::kFar) {
      EXPECT_EQ(result.reachable, result.completed) << workload_kind_name(workload);
    }
  }
}

TEST(ServeClosed, WindowsPartitionTheRecordedQueries) {
  ServerConfig config = closed_config(OracleKind::kPllFlat, WorkloadKind::kUniform);
  config.window_ns = 20'000;  // tiny windows so the smoke loop spans several
  const ServerResult result = serve_gadget(config);
  ASSERT_FALSE(result.windows.empty());
  std::uint64_t queries = 0;
  std::uint64_t reachable = 0;
  std::uint64_t prev_index = 0;
  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    const WindowStats& w = result.windows[i];
    if (i > 0) {
      EXPECT_GT(w.index, prev_index) << "window indices must ascend";
    }
    prev_index = w.index;
    EXPECT_GT(w.queries, 0u) << "empty windows are not emitted";
    EXPECT_LE(w.reachable, w.queries);
    EXPECT_GT(w.qps, 0.0);
    EXPECT_LE(w.p50_ns, w.p99_ns);
    // A closed-loop arrival is the take: nothing offered goes unanswered.
    EXPECT_EQ(w.offered, w.queries);
    EXPECT_EQ(w.rejected, 0u);
    queries += w.queries;
    reachable += w.reachable;
  }
  EXPECT_EQ(queries, result.completed);
  EXPECT_EQ(reachable, result.reachable);
}

TEST(ServeClosed, ExemplarReservoirCoversEveryRecordedQuery) {
  const ServerConfig config = closed_config(OracleKind::kPllFlat, WorkloadKind::kZipf);
  const ServerResult result = serve_gadget(config);
  EXPECT_EQ(result.exemplars.count(), result.completed);
  std::uint64_t offered = 0;
  for (const metrics::ExemplarBucket& b : result.exemplars.snapshot()) {
    offered += b.count;
    EXPECT_LE(b.exemplars.size(), kExemplarsPerBucket);
    for (const metrics::Exemplar& e : b.exemplars) {
      EXPECT_LT(e.s, gadget().num_vertices());
      EXPECT_LT(e.t, gadget().num_vertices());
      EXPECT_LT(e.seq, result.completed);
      EXPECT_LE(e.latency_ns, b.le);
    }
  }
  EXPECT_EQ(offered, result.completed);
}

TEST(ServeClosed, SlowQueryThresholdCapturesWorstFirst) {
  ServerConfig config = closed_config(OracleKind::kPllFlat, WorkloadKind::kUniform);
  config.slow_query_ns = 1;  // every measured query matches
  const ServerResult result = serve_gadget(config);
  EXPECT_EQ(result.slow_queries.total_slow(), result.completed);
  // 300 slow queries overflow the log, which keeps the worst of them.
  ASSERT_EQ(result.slow_queries.entries().size(), kSlowQueryCapacity);
  const auto& entries = result.slow_queries.entries();
  for (std::size_t i = 1; i < entries.size(); ++i) {
    EXPECT_GE(entries[i - 1].latency_ns, entries[i].latency_ns);
  }
  // The worst retained witness is the sketch's max sample.
  EXPECT_EQ(entries.front().latency_ns, result.latency_ns.max());

  ServerConfig off = config;
  off.slow_query_ns = 0;
  const ServerResult quiet = serve_gadget(off);
  EXPECT_EQ(quiet.slow_queries.total_slow(), 0u);
  EXPECT_TRUE(quiet.slow_queries.entries().empty());
}

#if HUBLAB_METRICS_ENABLED

TEST(ServeClosed, PopulatesRegistryMetrics) {
  metrics::registry().reset();
  ServerConfig config = closed_config(OracleKind::kBidij, WorkloadKind::kUniform);
  config.register_metrics = true;
  (void)serve_gadget(config);
  std::uint64_t queries = 0;
  std::uint64_t offered = 0;
  for (const auto& c : metrics::registry().counters()) {
    if (c.name == "serve.queries") queries = c.value;
    if (c.name == "serve.offered") offered = c.value;
  }
  EXPECT_EQ(queries, 300u);
  EXPECT_EQ(offered, 300u);
  bool saw_sketch = false;
  for (const auto& sk : metrics::registry().sketches()) {
    if (sk.name == "serve.query_ns") {
      saw_sketch = true;
      EXPECT_EQ(sk.count, 300u);
    }
  }
  EXPECT_TRUE(saw_sketch);
  metrics::registry().reset();
}

TEST(ServeReport, PrometheusDumpCoversServeMetrics) {
  metrics::registry().reset();
  ServerConfig config = closed_config(OracleKind::kPllFlat, WorkloadKind::kUniform);
  config.register_metrics = true;
  (void)serve_gadget(config);
  std::ostringstream os;
  write_prometheus_text(metrics::registry(), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE hublab_serve_queries counter"), std::string::npos);
  EXPECT_NE(text.find("hublab_serve_queries 300"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hublab_serve_query_ns summary"), std::string::npos);
  EXPECT_NE(text.find("hublab_serve_query_ns{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("hublab_serve_query_ns{quantile=\"0.999\"}"), std::string::npos);
  EXPECT_NE(text.find("hublab_serve_query_ns_count 300"), std::string::npos);
  EXPECT_NE(text.find("hublab_hub_scan_cost"), std::string::npos);
  metrics::registry().reset();
}

#endif  // HUBLAB_METRICS_ENABLED

TEST(ServeReport, ValidatesAgainstBenchSchemaWithServeMembers) {
  Tracer tracer;
  const ServerConfig config = closed_config(OracleKind::kPllFlat, WorkloadKind::kFar);
  const ServerResult result = serve_gadget(config, &tracer);
  const JsonValue doc = parse_json(report_json(result, config, tracer));
  const std::vector<std::string> errors = validate_bench_json(doc);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());

  EXPECT_EQ(doc.find("bench")->string_value, "serve-pll-flat");
  EXPECT_EQ(doc.find("oracle")->string_value, "pll-flat");
  EXPECT_EQ(doc.find("workload")->string_value, "far");
  EXPECT_EQ(doc.find("arrival")->string_value, "closed");
  EXPECT_EQ(doc.find("git_rev")->string_value, "deadbeef");
  EXPECT_TRUE(doc.find("smoke")->bool_value);
  EXPECT_EQ(doc.find("queries")->number_value, 300.0);
  EXPECT_EQ(doc.find("trimmed_warmup")->number_value, 0.0);
  ASSERT_NE(doc.find("latency_ns"), nullptr);
  EXPECT_GT(doc.find("latency_ns")->find("p999")->number_value, 0.0);
  ASSERT_EQ(doc.find("graphs")->array_items.size(), 1u);
  EXPECT_EQ(doc.find("graphs")->array_items[0].find("family")->string_value, "gadget-h");
  // The tracer spans surface as phases.
  bool saw_loop = false;
  for (const JsonValue& p : doc.find("phases")->array_items) {
    saw_loop = saw_loop || p.find("name")->string_value == "serve-loop";
  }
  EXPECT_TRUE(saw_loop);
}

TEST(ServeReport, CarriesThreadsAndFlatSpace) {
  Tracer tracer;
  ServerConfig config = closed_config(OracleKind::kPllFlat, WorkloadKind::kUniform);
  config.workers = 4;
  const ServerResult result = serve_gadget(config, &tracer);
  EXPECT_EQ(result.workers, 4u);
  // The serving oracle is the flat layout, so its space is the flat
  // labeling's footprint.
  const auto& flat = dynamic_cast<const FlatHubLabelOracle&>(gadget_oracle(OracleKind::kPllFlat));
  EXPECT_EQ(result.space_bytes, flat.labeling().memory_bytes());

  const JsonValue doc = parse_json(report_json(result, config, tracer));
  EXPECT_TRUE(validate_bench_json(doc).empty());
  ASSERT_NE(doc.find("threads"), nullptr);
  EXPECT_EQ(doc.find("threads")->number_value, 4.0);
  ASSERT_NE(doc.find("space_bytes"), nullptr);
  EXPECT_EQ(doc.find("space_bytes")->number_value,
            static_cast<double>(flat.labeling().memory_bytes()));
}

TEST(ServeReport, CarriesWorkerUtilization) {
  Tracer tracer;
  ServerConfig config = closed_config(OracleKind::kPllFlat, WorkloadKind::kUniform);
  config.workers = 2;
  const ServerResult result = serve_gadget(config, &tracer);
  ASSERT_EQ(result.worker_busy_ns.size(), 2u);
  std::uint64_t busy_total = 0;
  for (const std::uint64_t ns : result.worker_busy_ns) busy_total += ns;
  EXPECT_GT(busy_total, 0u) << "no worker recorded busy time";
  EXPECT_GT(result.worker_utilization_pct, 0.0);
  // Busy sums can exceed the loop wall window by clock granularity only.
  EXPECT_LE(result.worker_utilization_pct, 120.0);

  const JsonValue doc = parse_json(report_json(result, config, tracer));
  EXPECT_TRUE(validate_bench_json(doc).empty());
  ASSERT_NE(doc.find("worker_utilization_pct"), nullptr);
  const JsonValue* workers = doc.find("workers");
  ASSERT_NE(workers, nullptr);
  ASSERT_EQ(workers->array_items.size(), 2u);
  for (const JsonValue& w : workers->array_items) {
    ASSERT_NE(w.find("worker"), nullptr);
    ASSERT_NE(w.find("busy_ns"), nullptr);
    EXPECT_GE(w.find("busy_ns")->number_value, 0.0);
  }
}

TEST(ServeReport, CarriesWindowsSlowQueriesAndValidatesAsV4) {
  Tracer tracer;
  ServerConfig config = closed_config(OracleKind::kPllFlat, WorkloadKind::kUniform);
  config.slow_query_ns = 1;
  config.window_ns = 100'000;
  const ServerResult result = serve_gadget(config, &tracer);
  const JsonValue doc = parse_json(report_json(result, config, tracer));
  const std::vector<std::string> errors = validate_bench_json(doc);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());

  ASSERT_NE(doc.find("window_ns"), nullptr);
  EXPECT_EQ(doc.find("window_ns")->number_value, 100'000.0);
  ASSERT_NE(doc.find("slow_query_ns"), nullptr);
  const JsonValue* windows = doc.find("windows");
  ASSERT_NE(windows, nullptr);
  ASSERT_FALSE(windows->array_items.empty());
  double window_queries = 0;
  for (const JsonValue& w : windows->array_items) {
    ASSERT_NE(w.find("index"), nullptr);
    ASSERT_NE(w.find("qps"), nullptr);
    ASSERT_NE(w.find("p50_ns"), nullptr);
    ASSERT_NE(w.find("p99_ns"), nullptr);
    window_queries += w.find("queries")->number_value;
  }
  EXPECT_EQ(window_queries, static_cast<double>(result.completed));

  const JsonValue* slow = doc.find("slow_queries");
  ASSERT_NE(slow, nullptr);
  ASSERT_FALSE(slow->array_items.empty());
  for (const JsonValue& e : slow->array_items) {
    ASSERT_NE(e.find("seq"), nullptr);
    ASSERT_NE(e.find("s"), nullptr);
    ASSERT_NE(e.find("t"), nullptr);
    ASSERT_NE(e.find("latency_ns"), nullptr);
    ASSERT_NE(e.find("scan_cost"), nullptr);
    ASSERT_NE(e.find("meeting_hub"), nullptr);
  }
  ASSERT_NE(doc.find("slow_queries_total"), nullptr);
  EXPECT_EQ(doc.find("slow_queries_total")->number_value,
            static_cast<double>(result.completed));
}

}  // namespace
}  // namespace hublab::serve
