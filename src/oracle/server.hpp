#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "hub/pll.hpp"
#include "oracle/workload.hpp"
#include "util/exemplar.hpp"
#include "util/heavyhitter.hpp"
#include "util/perfcount.hpp"
#include "util/qsketch.hpp"
#include "util/trace.hpp"

/// \file server.hpp
/// The query server: the observability testbed for the paper's core
/// trade-off.  Theorems 1.4/4.1 trade label size against query time;
/// tracking that across revisions needs *latency distributions* per
/// oracle (`pll-flat`, `ch`, `bidij`) per workload (oracle/workload.hpp),
/// not single wall clocks.  Every query lands in sketches, windows, an
/// exemplar reservoir, a slow-query log and a scan-cost heavy hitter,
/// reported as `SERVE_<oracle>.json` (validated by `hublab
/// validate-bench`) plus an optional Prometheus dump.
///
/// One engine, one loop per shard worker.  The pairs (and, open loop,
/// their arrival schedule) are generated before the loop starts, and shard
/// worker `w` owns the pairs with `seq % workers == w`; no thread hands
/// queries to another.  Each worker's loop admits every one of its
/// arrivals that is due into a private FIFO (bounded by `ring_capacity`
/// under open arrivals), then answers the oldest <= `batch` of them
/// through DistanceOracle::distance_batch (for the flat oracle, the SIMD
/// batched kernel HubLabeling::query_batch), or one at a time through
/// `distance_with_stats` at `batch == 1`, which keeps per-query scan-cost
/// attribution.  Every block member is charged the block's wall time: it
/// completes when the kernel call returns.  The arrival kinds differ only
/// in when a query arrives (docs/performance.md, "Open-loop vs
/// closed-loop serving"):
///  - `poisson` / `burst` are **open-loop**: queries arrive on their own
///    schedule (`--qps`) whether or not the workers keep up, which is how
///    production traffic behaves and the only way to observe a
///    throughput-vs-latency curve and an overload cliff.  A query is due
///    once its scheduled arrival has passed (under kVirtual, at once).
///    Latency is **arrival-to-completion**: queue wait included, so
///    overload shows up in the sketch instead of being coordinated away
///    (the "coordinated omission" failure mode of closed-loop drivers).
///  - `closed` is the **closed loop**: no schedule.  Each worker takes its
///    next block of pairs when the previous block returns, so an item
///    "arrives" when its worker takes it and the same record path
///    measures pure service time.
///
/// Admission control (open loop only): a worker decides arrivals between
/// blocks, so an arrival meets a full queue exactly when its worker
/// already holds `ring_capacity` admitted, unanswered queries.  `kShed`
/// then drops the query and counts it in `serve.rejected` (overload
/// degrades into an error rate with bounded latency) while `kBlock` stops
/// that worker's admission until its next block frees space (latency grows
/// without bound, but every query is answered — and the answered set,
/// hence checksum/reachable, is schedule-independent).
///
/// Determinism contract (docs/performance.md): pairs, arrival schedule,
/// worker assignment (`seq % workers`) and per-worker telemetry merge
/// order are all fixed by (seed, workers), so with `kBlock` admission or
/// closed arrivals the checksum, answer counts, and exemplar/window
/// *population* are byte-identical across runs and worker counts;
/// wall-clock latency values still vary.  `TimingMode::kVirtual` (open
/// loop only) goes further: latencies, queue depths, and shed decisions
/// come from a discrete-event M/D/c simulation of the configured topology
/// (constant `virtual_service_ns` per query, computed before the loop
/// starts), while answers still flow through the real queues and kernels
/// — two virtual runs are byte-identical end to end, which is what the
/// determinism suites and the overload gates in bench_serve_scaling pin
/// down.
///
/// Registry metrics: the `serve.*` names, `hub.scan_cost` and `perf.*`
/// of docs/observability.md ("The serving path" taxonomy).

namespace hublab {
class DistanceOracle;  // oracle/oracle.hpp
}  // namespace hublab

namespace hublab::serve {

enum class OracleKind { kPllFlat, kCh, kBidij };

[[nodiscard]] std::string_view oracle_kind_name(OracleKind kind) noexcept;
[[nodiscard]] std::optional<OracleKind> parse_oracle_kind(std::string_view name) noexcept;

/// Build one serving oracle (also the `hublab explain` path).  `pll` is
/// the PLL construction's config (hub-label oracles only; a pure
/// build-speed knob — the labels, and hence every answer, are identical
/// for any value).  Throws InvalidArgument on an empty graph.
std::unique_ptr<DistanceOracle> make_oracle(const Graph& g, OracleKind kind,
                                            const PllConfig& pll = {});

/// How queries arrive.
enum class ArrivalKind {
  kPoisson,  ///< open loop, exponential gaps: memoryless traffic at the offered rate
  kBurst,    ///< open loop, back-to-back groups of `burst` arrivals, groups at the rate
  kClosed,   ///< closed loop: each worker takes its next block when the last returns
};

/// What happens when a shard worker's queue is full at admission time.
enum class AdmissionPolicy {
  kShed,   ///< reject the query (serve.rejected); bounded queueing delay
  kBlock,  ///< hold it until the worker frees space; nothing is dropped
};

/// Where latency/queue-depth numbers come from.
enum class TimingMode {
  kWall,     ///< real clocks: measured arrival-to-completion latency
  kVirtual,  ///< deterministic M/D/c event simulation (run-to-run identical)
};

[[nodiscard]] std::string_view arrival_kind_name(ArrivalKind kind) noexcept;
[[nodiscard]] std::optional<ArrivalKind> parse_arrival_kind(std::string_view name) noexcept;
[[nodiscard]] std::string_view admission_policy_name(AdmissionPolicy policy) noexcept;
[[nodiscard]] std::optional<AdmissionPolicy> parse_admission_policy(
    std::string_view name) noexcept;
[[nodiscard]] std::string_view timing_mode_name(TimingMode mode) noexcept;
[[nodiscard]] std::optional<TimingMode> parse_timing_mode(std::string_view name) noexcept;

/// Upper bound on shard workers (each one is a dedicated executor for the
/// whole serve loop, so this is deliberately far below par::kMaxThreads).
inline constexpr std::size_t kMaxServeWorkers = 64;

/// Latency exemplars each reservoir keeps per latency bucket.
inline constexpr std::size_t kExemplarsPerBucket = 2;

/// Slow queries the slow-query log keeps, worst first.
inline constexpr std::size_t kSlowQueryCapacity = 32;

/// One window of the per-interval serve time series.  Windows are indexed
/// by each query's arrival offset (`offset / window_ns`; under closed
/// arrivals, the offset at which its worker took it), so attribution is
/// stable however long the query itself ran; `qps` divides by the nominal
/// window length (the tail window is typically partial and reads low).
struct WindowStats {
  std::uint64_t index = 0;
  std::uint64_t queries = 0;
  std::uint64_t reachable = 0;
  double qps = 0.0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
  /// Arrivals whose offset fell in this window, and how many of them
  /// admission control shed (always 0 under closed arrivals).
  std::uint64_t offered = 0;
  std::uint64_t rejected = 0;
};

/// True when `qps` is a rate an open-loop run accepts: positive and below
/// 2^63, since the offered rate is reported as an int64 gauge.
[[nodiscard]] constexpr bool valid_open_qps(double qps) noexcept {
  return qps > 0.0 && qps < 0x1p63;
}

struct ServerConfig {
  OracleKind oracle = OracleKind::kPllFlat;
  WorkloadKind workload = WorkloadKind::kUniform;
  std::uint64_t num_queries = 20000;
  std::uint64_t seed = 1;
  std::size_t workers = 4;  ///< shard workers, clamped to [1, kMaxServeWorkers]
  double qps = 50000.0;  ///< offered load (arrivals per second) in (0, 2^63); open loop only
  ArrivalKind arrival = ArrivalKind::kPoisson;
  std::uint64_t burst = 32;  ///< arrivals per burst group (kBurst only)
  AdmissionPolicy admission = AdmissionPolicy::kShed;
  /// Exact bound on each open-loop worker's queue of admitted, unanswered
  /// queries (`--ring`; no power-of-two rounding).  A worker's buffers hold
  /// at most its own slice of the queries, so a larger bound (or `batch`)
  /// costs no memory.
  std::size_t ring_capacity = 1024;
  std::size_t batch = 32;  ///< max items per answered block; 1 = per-query loop
  TimingMode timing = TimingMode::kWall;
  std::uint64_t virtual_service_ns = 1000;  ///< per-query cost under kVirtual
  /// Telemetry trimming: queries whose *arrival* falls in the first
  /// `warmup_ms` (or the last `cooldown_ms`) of the schedule are answered
  /// and checksummed but excluded from sketches/windows/exemplars, so
  /// ramp-up allocation noise and the drain tail do not distort the
  /// distributions.  Trimmed counts land in the report.  Closed arrivals
  /// have no schedule and trim nothing.
  std::uint64_t warmup_ms = 50;
  std::uint64_t cooldown_ms = 0;
  std::uint64_t slow_query_ns = 0;  ///< slow-query log threshold; 0 disables
  std::uint64_t window_ns = 1'000'000'000;  ///< per-interval series resolution
  /// Emit into the global metrics registry (the CLI path).  The scaling
  /// bench turns this off so committed baselines only carry deterministic
  /// members.
  bool register_metrics = true;
};

struct ServerResult {
  std::string oracle_name;
  std::string workload_name;
  std::uint64_t start_unix_ms = 0;
  std::size_t workers = 1;    ///< resolved shard-worker count
  double offered_qps = 0.0;   ///< ServerConfig::qps
  double achieved_qps = 0.0;  ///< completed / serve_loop_s
  std::uint64_t offered = 0;    ///< every scheduled arrival
  std::uint64_t completed = 0;  ///< admitted and answered
  std::uint64_t rejected = 0;   ///< shed at admission (kShed only)
  std::uint64_t reachable = 0;  ///< completed queries with a finite distance
  std::uint64_t checksum = 0;   ///< sum of finite distances over completed
  std::uint64_t trimmed_warmup = 0;   ///< completed but outside telemetry (head)
  std::uint64_t trimmed_cooldown = 0; ///< completed but outside telemetry (tail)
  std::size_t space_bytes = 0;
  double build_s = 0.0;       ///< oracle preprocessing (set by the caller that built it)
  double serve_loop_s = 0.0;  ///< serve phase wall time
  /// Arrival-to-completion latency of untrimmed completed queries (pure
  /// service time under closed arrivals); under kVirtual these are
  /// simulated, deterministic values.
  QuantileSketch latency_ns;
  /// The worker's queue depth sampled at each untrimmed admission decision
  /// (empty under closed arrivals, which never queue).
  QuantileSketch queue_depth;
  std::vector<std::uint64_t> worker_busy_ns;  ///< indexed by shard worker id
  double worker_utilization_pct = 0.0;
  perf::HwCounters hw;  ///< summed over all shard workers; valid when live
  /// Per-interval series keyed by arrival offset / window_ns, ascending.
  std::vector<WindowStats> windows;
  metrics::ExemplarReservoir exemplars;
  metrics::SlowQueryLog slow_queries;
  metrics::SpaceSavingSketch hub_scan_cost;
};

/// One point of a `--qps-sweep` offered-load ladder (the CLI embeds these
/// in the report's `sweep` array).
struct SweepPoint {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
};

/// Serve the configured workload against an already-built oracle (build
/// once, serve each offered-load point of a sweep).  Spans land in
/// `tracer` when provided; registry emission obeys
/// `config.register_metrics`.  Must not be called from inside a parallel
/// region — the serve loop owns the pool.  Throws InvalidArgument on an
/// empty graph, zero queries/batch/ring, an open-loop qps <= 0, a
/// warm-up or cool-down too long for 64-bit nanoseconds, or virtual timing
/// with closed arrivals.
ServerResult run_server_on(const Graph& g, const DistanceOracle& oracle,
                           const ServerConfig& config, Tracer* tracer = nullptr);

/// Write the schema-versioned SERVE report (`serve-<oracle>`): the shared
/// document (util/report.hpp) plus server members (arrival/admission/
/// timing shape, offered/completed/rejected, trimmed counts, latency and
/// queue-depth quantiles, windows, slow queries, and the `sweep` ladder).
void write_server_report_json(std::ostream& os, const ServerResult& result,
                              const ServerConfig& config, const std::vector<SweepPoint>& sweep,
                              const Graph& g, std::string_view graph_family,
                              std::string_view git_rev, bool smoke, const Tracer& tracer);

}  // namespace hublab::serve
