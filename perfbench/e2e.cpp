/// \file e2e.cpp
/// End-to-end benchmark program: the path a hub-label deployment pays, from
/// an edge-list file on disk to a served answer.
///
///   set-up   edge-list file -> io::load_edge_list -> make_vertex_order ->
///            pruned_landmark_labeling_flat -> FlatHubLabeling
///   restart  label file -> load_labeling_file -> FlatHubLabeling -> first answer
///   serving  serve::run_server_on, open loop, block admission, at two fixed
///            rates, at capacity, and at the highest rate meeting the SLO
///   offline  FlatHubLabeling::query_batch in blocks of 4096
///
/// Every answer is checked: server checksums against a per-query replay,
/// batched against per-query answers, reloaded against built labels, and a
/// sample against Dijkstra.  Only public library calls are made; with
/// `--trace 1` each one is wrapped in a span of a Tracer kept in memory and
/// written out at exit, and the run reports per-layer metrics instead of
/// end-to-end ones.  See README.md in this directory.
///
/// Usage: hublab_e2e --workload NAME --seed N --seconds S --trace 0|1
///                   [--tiny] [--work-dir DIR] [--trace-out FILE] [--rev REV]
/// Prints `# ...` header lines, one `metric NAME VALUE UNIT` line per
/// metric, and as its last line the JSON result object.  Exit 0 when every
/// answer is correct, 1 on a wrong answer, 2 on a usage or I/O error.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algo/shortest_paths.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "hub/flat_labeling.hpp"
#include "hub/pll.hpp"
#include "hub/serialize.hpp"
#include "hub/simd_kernel.hpp"
#include "oracle/oracle.hpp"
#include "oracle/server.hpp"
#include "oracle/workload.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/resource.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace {

using namespace hublab;
using Pair = std::pair<Vertex, Vertex>;

enum class Family { kGnm, kRoad };

struct Workload {
  std::string_view name;
  Family family;
  serve::WorkloadKind kind;
  double low_qps;   ///< fixed offered rate for p50_us.low / p99_us.low
  double high_qps;  ///< fixed offered rate for p50_us.high / p99_us.high
  /// Highest rate a segment is sized for: faster segments (capacity, SLO
  /// rungs) end early, so that memory does not depend on measured rates.
  double seg_cap_qps;
  int min_reps;  ///< fewest set-ups and restarts per run (medians are reported)
};

// Why each workload exists is recorded in README.md.  Both rates sit well
// below the knee of the workload's latency curve on a 4-core host (where
// p50 jumps from microseconds to tens or hundreds of them): `low` shows
// the unloaded path, `high` the start of queueing.  Closer to the knee a
// slower host moves p50 several times as much as it moves throughput.
constexpr Workload kWorkloads[] = {
    {"serve-gnm2k", Family::kGnm, serve::WorkloadKind::kUniform, 400e3, 800e3, 3e6, 5},
    {"batch-road10k", Family::kRoad, serve::WorkloadKind::kNear, 150e3, 300e3, 800e3, 4},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;  ///< small graphs, for the self-test
  std::string work_dir = ".";
  std::string trace_out;
  std::string rev = "unknown";
};

// The measured part of a run is kRounds rounds; each serves one segment
// (seconds / kSegments) at each fixed rate, one capacity segment every
// other round, half a segment of offline batches, its share of the SLO
// ladder's segments (at most one segment each), and its share of the
// set-up and restart repetitions.  Warm-up and the pilot capacity use the
// remaining segments.
constexpr int kSegments = 80;
constexpr int kWarmupSegs = 8;
constexpr int kPilotSegs = 2;
constexpr int kRounds = 16;
constexpr double kOfflineSegsPerRound = 0.5;
/// SLO ladder: offered rates as fractions of the pilot capacity, each
/// served kSloSamples times.  The range allows for a pilot taken in a slow
/// or fast stretch of the host.
constexpr double kSloRungs[] = {0.55, 0.65, 0.75, 0.85, 0.95, 1.05, 1.15};
constexpr int kSloSamples = 3;
constexpr double kSetupBudgetS = 1.5;
constexpr double kRestartBudgetS = 2.0;
constexpr int kMaxReps = 200;
constexpr std::size_t kServeBatch = 32;
constexpr std::size_t kOfflineBlock = 4096;
constexpr std::size_t kSamplePairs = std::size_t{1} << 18;
/// Per-query kernel timings and the reload check use this prefix.
constexpr std::size_t kKernelPairs = std::size_t{1} << 16;
constexpr std::uint64_t kGraphSeed = 1;
/// Latency quantiles are taken per window and reported as the median over
/// windows (README.md, "Steadiness").  A window lasts at least 25 ms and
/// long enough for kWindowQueries arrivals, so its p99 rests on 100
/// samples.
constexpr double kMinWindowS = 0.025;
constexpr double kWindowQueries = 10000;
/// Windows with fewer answers are partial (a segment's tail) and skipped;
/// 1000 keeps at least ten samples beyond p99.
constexpr std::uint64_t kMinWindowQueries = 1000;
constexpr double kSloP99Ns = 1e6;
constexpr double kSloAchieved = 0.95;
/// SLO score of a point whose achieved rate falls short but whose p99 is
/// within the SLO: just failing.
constexpr double kShortfallScore = 0.05;
/// Offered load of the capacity segments: far above any capacity, so the
/// generator never waits and completions per second are the capacity.
constexpr double kFloodQps = 1e9;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return std::max(1, CPU_COUNT(&set));
  return 1;
}

/// The graph of a workload is fixed: label size differs by up to 2x
/// between random graphs of one family and size (random trees), which
/// would swamp every metric.  The run seed varies the query pairs and
/// arrival times instead.
Graph make_graph(const Workload& w, bool tiny) {
  Rng rng(kGraphSeed);
  switch (w.family) {
    case Family::kGnm:
      return tiny ? gen::connected_gnm(200, 400, rng) : gen::connected_gnm(2000, 4000, rng);
    case Family::kRoad:
      return tiny ? gen::road_like(12, 12, 0.2, 10, rng) : gen::road_like(100, 100, 0.2, 10, rng);
  }
  return {};
}

/// Pins the calling thread to one CPU of its affinity mask, the `rep`-th
/// round robin, and restores the mask when it goes out of scope.  Repeated
/// single-threaded steps visit every CPU in turn: on a shared host one
/// vCPU can run 1.5x slower than another at the same moment, and a thread
/// left where the scheduler put it carries that into every repetition.
class PinToCpu {
 public:
  explicit PinToCpu(std::size_t rep) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    const int count = CPU_COUNT(&saved_);
    if (count <= 1) return;
    int skip = static_cast<int>(rep % static_cast<std::size_t>(count));
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &saved_) || skip-- > 0) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
      break;
    }
  }
  ~PinToCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  PinToCpu(const PinToCpu&) = delete;
  PinToCpu& operator=(const PinToCpu&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// A span when tracing, nothing otherwise.
class MaybeSpan {
 public:
  MaybeSpan(Tracer* tracer, const char* name) {
    if (tracer != nullptr) span_.emplace(tracer->span(name));
  }

 private:
  std::optional<Tracer::Span> span_;
};

bool same(const HubQueryResult& a, const HubQueryResult& b) {
  return a.dist == b.dist && a.meeting_hub == b.meeting_hub;
}

/// One run_server_on call.
struct Segment {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  double queue_depth_p99 = 0.0;
  double utilization_pct = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t completed = 0;
  std::uint64_t checksum = 0;
  std::uint64_t reachable = 0;
  std::uint64_t busy_ns = 0;
  std::vector<double> window_p50_ns;  ///< per full window
  std::vector<double> window_p99_ns;
};

/// Median over every full window of the segments, in microseconds.
double window_median_us(const std::vector<Segment>& segs, std::vector<double> Segment::*field) {
  std::vector<double> v;
  for (const Segment& s : segs) v.insert(v.end(), (s.*field).begin(), (s.*field).end());
  return median(v) / 1e3;
}

template <typename F>
double median_of(const std::vector<Segment>& segs, F field) {
  std::vector<double> v;
  v.reserve(segs.size());
  for (const Segment& s : segs) v.push_back(field(s));
  return median(v);
}

/// The result of one set-up: edge-list file -> labels ready to answer.
struct Built {
  double secs = 0.0;
  Graph graph;
  FlatHubLabeling labels;
};

class Bench {
 public:
  explicit Bench(const Options& opt)
      : opt_(opt),
        w_(*opt.workload),
        nproc_(online_cpus()),
        // One generator thread plus the shard workers, and as many offline
        // callers: never more than nproc threads, at most 4.
        workers_(std::clamp<std::size_t>(nproc_ > 1 ? nproc_ - 1 : 1, 1, 3)),
        callers_(std::min<std::size_t>(nproc_, workers_ + 1)),
        seg_s_(opt.seconds / kSegments) {
    if (opt_.trace) tracer_.emplace();
    const auto dir = std::filesystem::path(opt_.work_dir);
    graph_path_ = (dir / "graph.txt").string();
    label_path_ = (dir / "labels.hlab").string();
  }

  int run();

 private:
  Tracer* tracer() { return tracer_ ? &*tracer_ : nullptr; }
  void metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void check(bool ok, const char* what) {
    if (!ok) {
      ++wrong_;
      if (wrong_ <= 5) std::fprintf(stderr, "e2e: wrong answer: %s\n", what);
    }
  }
  /// Median span duration in seconds (tracing only).
  [[nodiscard]] double span_s(std::string_view name) const;
  [[nodiscard]] double per_query_ns(std::string_view name, std::size_t pairs) const {
    return span_s(name) * 1e9 / static_cast<double>(pairs);
  }
  /// One seed for every server call: each call serves a prefix of the same
  /// pair stream, so a single replay verifies every checksum.
  [[nodiscard]] std::uint64_t serve_seed() const { return opt_.seed ^ 0x5e21e5eedULL; }
  /// Repetitions of a step whose first run took `first_s`: enough to fill
  /// `budget_s`, within [min_reps, kMaxReps].
  [[nodiscard]] int reps_for(double first_s, double budget_s) const;

  Built setup_once(Tracer* tracer, std::size_t rep);
  void setup_rep();
  void write_label_file();
  void restart_rep();
  void verify_sample();
  void verify_batches();
  void time_kernels();
  void offline_pass(std::vector<HubQueryResult>& out);
  Segment serve(double qps, const char* span_name);
  void serve_phase();
  void verify_served();
  void layer_metrics();
  int report();

  Options opt_;
  const Workload& w_;
  std::size_t nproc_;
  std::size_t workers_;
  std::size_t callers_;
  double seg_s_;
  std::optional<Tracer> tracer_;
  std::string graph_path_;
  std::string label_path_;

  std::optional<Graph> graph_;  ///< from the first set-up; served throughout
  std::optional<FlatHubLabelOracle> oracle_;
  std::vector<Pair> sample_;
  HubQueryResult first_answer_;
  std::vector<double> setup_s_;
  std::vector<double> setup_untraced_s_;
  std::vector<double> restart_s_;
  int setup_target_ = 1;
  int restart_target_ = 1;
  double pll_visited_ = 0.0;
  double pll_pruned_ = 0.0;
  double source_reuse_ = 0.0;

  std::vector<Segment> low_;
  std::vector<Segment> high_;
  std::vector<Segment> cap_;
  std::vector<Segment> served_;  ///< every server call, for the replay check
  std::vector<double> offline_qps_;
  std::uint64_t attempted_ = 0;
  std::uint64_t wrong_ = 0;
  std::uint64_t rejected_ = 0;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

double Bench::span_s(std::string_view name) const {
  std::vector<double> d;
  for (const auto& r : tracer_->records()) {
    if (r.name == name && !r.open) d.push_back(r.dur_s);
  }
  return median(d);
}

int Bench::reps_for(double first_s, double budget_s) const {
  if (opt_.tiny) return 1;
  const double fill = first_s > 0 ? budget_s / first_s : kMaxReps;
  return static_cast<int>(std::clamp<double>(fill, w_.min_reps, kMaxReps));
}

Built Bench::setup_once(Tracer* tracer, std::size_t rep) {
  const PinToCpu pin(rep);
  metrics::Registry& reg = metrics::registry();
  const std::uint64_t visited0 = reg.counter("pll.visited").value();
  const std::uint64_t pruned0 = reg.counter("pll.pruned").value();
  Built b;
  Timer timer;
  {
    MaybeSpan span(tracer, "graph.load");
    b.graph = io::load_edge_list(graph_path_);
  }
  std::vector<Vertex> order;
  {
    MaybeSpan span(tracer, "pll.order");
    order = make_vertex_order(b.graph, VertexOrder::kDegreeDescending);
  }
  {
    MaybeSpan span(tracer, "pll.build");
    b.labels = pruned_landmark_labeling_flat(b.graph, order);
  }
  b.secs = timer.elapsed_s();
  pll_visited_ += static_cast<double>(reg.counter("pll.visited").value() - visited0);
  pll_pruned_ += static_cast<double>(reg.counter("pll.pruned").value() - pruned0);
  return b;
}

/// A repeated set-up; its labels must equal the served ones.  The traced
/// run also times an untraced set-up: the gap is the tracing overhead.
void Bench::setup_rep() {
  const std::size_t rep = setup_s_.size();
  const Built b = setup_once(tracer(), rep);
  setup_s_.push_back(b.secs);
  check(b.labels.total_hubs() == oracle_->labeling().total_hubs(), "repeated set-up");
  if (opt_.trace) setup_untraced_s_.push_back(setup_once(nullptr, rep).secs);
}

void Bench::write_label_file() {
  const FlatHubLabeling& flat = oracle_->labeling();
  std::vector<std::vector<HubEntry>> labels(flat.num_vertices());
  for (Vertex v = 0; v < flat.num_vertices(); ++v) {
    const auto hubs = flat.hubs(v);
    const auto dists = flat.dists(v);
    labels[v].reserve(hubs.size());
    for (std::size_t i = 0; i < hubs.size(); ++i) labels[v].push_back({hubs[i], dists[i]});
  }
  HubLabeling hl(std::move(labels));
  hl.finalize();
  save_labeling_file(hl, label_path_);
}

/// Label file -> flat labels -> first correct answer.  The first
/// repetition also checks the reloaded labels on the sampled pairs.
void Bench::restart_rep() {
  const PinToCpu pin(restart_s_.size());
  const Pair first = sample_.front();
  Timer timer;
  HubLabeling loaded;
  {
    MaybeSpan span(tracer(), "labels.load");
    loaded = load_labeling_file(label_path_);
  }
  FlatHubLabeling restarted;
  {
    MaybeSpan span(tracer(), "labels.flatten");
    restarted = FlatHubLabeling(loaded);
  }
  HubQueryResult answer;
  {
    MaybeSpan span(tracer(), "restart.first-answer");
    answer = restarted.query_with_hub(first.first, first.second);
  }
  restart_s_.push_back(timer.elapsed_s());
  check(same(answer, first_answer_), "first answer after restart");
  if (restart_s_.size() == 1) {
    const FlatHubLabeling& flat = oracle_->labeling();
    for (std::size_t i = 0; i < std::min(kKernelPairs, sample_.size()); ++i) {
      const auto [u, v] = sample_[i];
      check(same(restarted.query_with_hub(u, v), flat.query_with_hub(u, v)), "reloaded labels");
    }
  }
}

/// A fixed-size sample of pairs against Dijkstra: 8 sources x 64 targets.
void Bench::verify_sample() {
  MaybeSpan span(tracer(), "verify.dijkstra");
  constexpr std::size_t kSources = 8;
  constexpr std::size_t kTargets = 64;
  for (std::size_t s = 0; s < kSources && s < sample_.size(); ++s) {
    const Vertex source = sample_[s].first;
    const SsspResult truth = dijkstra(*graph_, source);
    for (std::size_t t = 0; t < kTargets && t < sample_.size(); ++t) {
      const Vertex target = sample_[t].second;
      check(oracle_->labeling().query(source, target) == truth.dist[target],
            "label distance vs Dijkstra");
    }
  }
}

/// Batched answers equal per-query answers, distance and meeting hub; the
/// same call measures source reuse in blocks of 4096.
void Bench::verify_batches() {
  const FlatHubLabeling& flat = oracle_->labeling();
  metrics::Registry& reg = metrics::registry();
  const std::uint64_t pairs0 = reg.counter("query.batch.pairs").value();
  const std::uint64_t groups0 = reg.counter("query.batch.source_groups").value();
  std::vector<HubQueryResult> batched(sample_.size());
  for (std::size_t i = 0; i < sample_.size(); i += kOfflineBlock) {
    const std::size_t len = std::min(kOfflineBlock, sample_.size() - i);
    flat.query_batch(std::span<const Pair>(sample_.data() + i, len),
                     std::span<HubQueryResult>(batched.data() + i, len));
  }
  const double pairs = static_cast<double>(reg.counter("query.batch.pairs").value() - pairs0);
  const double groups =
      static_cast<double>(reg.counter("query.batch.source_groups").value() - groups0);
  source_reuse_ = groups > 0 ? pairs / groups : 0.0;
  for (std::size_t i = 0; i < sample_.size(); ++i) {
    check(same(batched[i], flat.query_with_hub(sample_[i].first, sample_[i].second)),
          "query_batch vs query_with_hub");
  }
  attempted_ += sample_.size();
}

/// Single-threaded kernel costs per query on the first kKernelPairs pairs:
/// per-query merge, and query_batch in blocks of 32 and 4096.
void Bench::time_kernels() {
  const FlatHubLabeling& flat = oracle_->labeling();
  const std::span<const Pair> pairs(sample_.data(), std::min(kKernelPairs, sample_.size()));
  std::vector<HubQueryResult> out(pairs.size());
  const auto batches = [&](std::size_t block) {
    for (std::size_t i = 0; i < pairs.size(); i += block) {
      const std::size_t len = std::min(block, pairs.size() - i);
      flat.query_batch(pairs.subspan(i, len), std::span<HubQueryResult>(out.data() + i, len));
    }
  };
  for (int pass = 0; pass < 3; ++pass) {
    {
      MaybeSpan span(tracer(), "kernel.query");
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        out[i] = flat.query_with_hub(pairs[i].first, pairs[i].second);
      }
    }
    {
      MaybeSpan span(tracer(), "kernel.batch32");
      batches(kServeBatch);
    }
    {
      MaybeSpan span(tracer(), "kernel.batch4096");
      batches(kOfflineBlock);
    }
  }
  metric("kernel.query_ns", per_query_ns("kernel.query", pairs.size()), "ns");
  metric("kernel.batch32_ns", per_query_ns("kernel.batch32", pairs.size()), "ns");
  metric("kernel.batch4096_ns", per_query_ns("kernel.batch4096", pairs.size()), "ns");
  metric("kernel.source_reuse", source_reuse_, "ratio");
}

/// Offline callers answer the sample in blocks of 4096, taking blocks
/// from a shared queue, one caller per thread.
void Bench::offline_pass(std::vector<HubQueryResult>& out) {
  const FlatHubLabeling& flat = oracle_->labeling();
  out.resize(sample_.size());
  const std::size_t blocks = (sample_.size() + kOfflineBlock - 1) / kOfflineBlock;
  Timer pass;
  {
    MaybeSpan span(tracer(), "offline.pass");
    par::run_chunks(par::static_chunks(0, blocks, blocks), callers_,
                    [&](const par::ChunkRange& chunk) {
                      const std::size_t i = chunk.begin * kOfflineBlock;
                      const std::size_t len = std::min(kOfflineBlock, sample_.size() - i);
                      flat.query_batch(std::span<const Pair>(sample_.data() + i, len),
                                       std::span<HubQueryResult>(out.data() + i, len));
                    });
  }
  offline_qps_.push_back(static_cast<double>(sample_.size()) / pass.elapsed_s());
  attempted_ += sample_.size();
}

Segment Bench::serve(double qps, const char* span_name) {
  serve::ServerConfig cfg;
  cfg.workload = w_.kind;
  // One segment long, or shorter above the workload's segment cap.
  cfg.num_queries =
      std::max<std::uint64_t>(64, static_cast<std::uint64_t>(std::min(qps, w_.seg_cap_qps) * seg_s_));
  cfg.seed = serve_seed();
  cfg.workers = workers_;
  cfg.qps = qps;
  cfg.admission = serve::AdmissionPolicy::kBlock;
  cfg.batch = kServeBatch;
  cfg.window_ns = static_cast<std::uint64_t>(std::max(kMinWindowS, kWindowQueries / qps) * 1e9);
  cfg.register_metrics = false;
  serve::ServerResult r;
  {
    MaybeSpan span(tracer(), span_name);
    r = serve::run_server_on(*graph_, *oracle_, cfg, tracer());
  }
  Segment s;
  s.offered_qps = qps;
  s.achieved_qps = r.achieved_qps;
  s.queue_depth_p99 = static_cast<double>(r.queue_depth.quantile(0.99));
  s.utilization_pct = r.worker_utilization_pct;
  s.queries = cfg.num_queries;
  s.completed = r.completed;
  s.checksum = r.checksum;
  s.reachable = r.reachable;
  for (const std::uint64_t busy : r.worker_busy_ns) s.busy_ns += busy;
  for (const serve::WindowStats& win : r.windows) {
    if (win.queries < kMinWindowQueries) continue;
    s.window_p50_ns.push_back(static_cast<double>(win.p50_ns));
    s.window_p99_ns.push_back(static_cast<double>(win.p99_ns));
  }
  served_.push_back(s);
  attempted_ += r.offered;
  rejected_ += r.rejected;
  return s;
}

void Bench::serve_phase() {
  // The first second or so of serving in a fresh process runs in a slower
  // regime (README.md, "Steadiness"); it is served, checked and discarded.
  for (int i = 0; i < kWarmupSegs; ++i) serve(w_.low_qps, "serve.warmup");

  // SLO ladder: rates placed relative to a pilot capacity, so that they
  // bracket the SLO rate on any host; the pilot itself is discarded.
  struct Point {
    double qps;
    std::vector<Segment> segs;
  };
  const auto achieved_qps = [](const Segment& s) { return s.achieved_qps; };
  std::vector<Segment> pilot;
  for (int i = 0; i < kPilotSegs; ++i) pilot.push_back(serve(kFloodQps, "serve.pilot"));
  const double pilot_qps = median_of(pilot, achieved_qps);
  std::vector<Point> rungs;
  for (const double f : kSloRungs) rungs.push_back({f * pilot_qps, {}});
  const int ladder_segs = kSloSamples * static_cast<int>(rungs.size());

  // Rounds interleave every measurement, so a slow stretch of the host
  // touches a few samples of each metric rather than all of one; every
  // metric is a median over its samples.  The ladder's passes are spread
  // over the rounds too.
  std::vector<HubQueryResult> offline;
  for (int round = 0; round < kRounds; ++round) {
    while (static_cast<int>(setup_s_.size()) < setup_target_ * (round + 1) / kRounds) setup_rep();
    while (static_cast<int>(restart_s_.size()) < restart_target_ * (round + 1) / kRounds) {
      restart_rep();
    }
    low_.push_back(serve(w_.low_qps, "serve.low"));
    high_.push_back(serve(w_.high_qps, "serve.high"));
    // Capacity: a flood under block admission, so the generator never
    // waits and completions per second are what the server sustains.
    if (round % 2 == 1) cap_.push_back(serve(kFloodQps, "serve.capacity"));
    for (int k = ladder_segs * round / kRounds; k < ladder_segs * (round + 1) / kRounds; ++k) {
      Point& rung = rungs[static_cast<std::size_t>(k) % rungs.size()];
      rung.segs.push_back(serve(rung.qps, "serve.slo-rung"));
    }
    Timer offline_time;
    do {
      offline_pass(offline);
    } while (offline_time.elapsed_s() < kOfflineSegsPerRound * seg_s_);
  }
  for (std::size_t i = 0; i < sample_.size(); i += sample_.size() / 64 + 1) {
    check(same(offline[i], oracle_->labeling().query_with_hub(sample_[i].first, sample_[i].second)),
          "offline answers");
  }
  metric("p50_us.low", window_median_us(low_, &Segment::window_p50_ns), "us");
  metric("p99_us.low", window_median_us(low_, &Segment::window_p99_ns), "us");
  metric("p50_us.high", window_median_us(high_, &Segment::window_p50_ns), "us");
  metric("p99_us.high", window_median_us(high_, &Segment::window_p99_ns), "us");
  const double capacity = median_of(cap_, achieved_qps);
  check(kFloodQps >= 2 * capacity, "capacity offered at least twice capacity");
  metric("capacity_qps", capacity, "1/s");
  metric("batch_qps", median(offline_qps_), "1/s");

  // SLO rate.  With the two fixed rates the rungs give points (rate,
  // window-median p99, median achieved / offered).  A point's score is
  // log(p99 / SLO); it passes at <= 0, and a point whose achieved rate
  // falls short fails whatever its p99.  The cut between passing and
  // failing points is the one that leaves the fewest points on the wrong
  // side (the lowest such cut), so one rung failed by a slow stretch of
  // the host does not end the ladder.  slo_qps is where the score crosses
  // 0 between the two points around the cut, interpolated, so it moves
  // smoothly with the host.
  std::vector<Point> points{{w_.low_qps, low_}, {w_.high_qps, high_}};
  points.insert(points.end(), rungs.begin(), rungs.end());
  std::stable_sort(points.begin(), points.end(),
                   [](const Point& a, const Point& b) { return a.qps < b.qps; });
  const auto score = [](const Point& p) {
    const double p99_ns = std::max(1.0, window_median_us(p.segs, &Segment::window_p99_ns) * 1e3);
    const double achieved =
        median_of(p.segs, [](const Segment& s) { return s.achieved_qps / s.offered_qps; });
    const double p99_score = std::log(p99_ns / kSloP99Ns);
    return achieved >= kSloAchieved ? p99_score : std::max(p99_score, kShortfallScore);
  };
  std::vector<double> scores;
  for (const Point& p : points) scores.push_back(score(p));
  std::size_t cut = 0;
  std::size_t fewest_wrong = points.size() + 1;
  for (std::size_t c = 0; c <= points.size(); ++c) {
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < points.size(); ++i) wrong += (i < c) == (scores[i] > 0.0) ? 1 : 0;
    if (wrong < fewest_wrong) {
      fewest_wrong = wrong;
      cut = c;
    }
  }
  double slo = points.back().qps;  // the cut is above every point
  if (cut == 0) {
    // The lowest rate fails: scale it down by its p99 overshoot.
    slo = points[0].qps * std::exp(-scores[0]);
  } else if (cut < points.size()) {
    const double s0 = scores[cut - 1];
    const double s1 = scores[cut];
    const double t = s0 <= 0.0 && s1 > 0.0 ? -s0 / (s1 - s0) : 0.5;
    slo = points[cut - 1].qps + (points[cut].qps - points[cut - 1].qps) * t;
  }
  metric("slo_qps", slo, "1/s");
}

/// Every call served a prefix of one pair stream: replay it per query and
/// compare each call's checksum and reachable count.
void Bench::verify_served() {
  MaybeSpan span(tracer(), "verify.server-replay");
  std::vector<const Segment*> by_len;
  for (const Segment& s : served_) by_len.push_back(&s);
  std::sort(by_len.begin(), by_len.end(),
            [](const Segment* a, const Segment* b) { return a->queries < b->queries; });
  serve::WorkloadGenerator gen(*graph_, w_.kind, serve_seed());
  std::uint64_t checksum = 0;
  std::uint64_t reachable = 0;
  std::size_t next = 0;
  for (std::uint64_t i = 1; next < by_len.size(); ++i) {
    const auto [u, v] = gen.next();
    const Dist d = oracle_->labeling().query_with_hub(u, v).dist;
    if (d != kInfDist) {
      checksum += d;
      ++reachable;
    }
    for (; next < by_len.size() && by_len[next]->queries == i; ++next) {
      const Segment& s = *by_len[next];
      check(s.completed == s.queries, "server answered every admitted query");
      check(s.checksum == checksum && s.reachable == reachable, "server checksum vs replay");
    }
  }
}

void Bench::layer_metrics() {
  metric("graph.load_s", span_s("graph.load"), "s");
  metric("pll.order_s", span_s("pll.order"), "s");
  metric("pll.build_s", span_s("pll.build"), "s");
  {
    // Standalone table build: the part of pll.build the bit-parallel roots
    // cost (inactive on weighted graphs and for n > 65535).
    const auto order = make_vertex_order(*graph_, VertexOrder::kDegreeDescending);
    for (int rep = 0; rep < 3; ++rep) {
      MaybeSpan span(tracer(), "pll.bp-tables");
      const BitParallelRoots tables(*graph_, order, kPllDefaultBpRoots, 1);
      check(tables.num_roots() <= kPllDefaultBpRoots, "bit-parallel table size");
    }
    metric("pll.bp_tables_s", span_s("pll.bp-tables"), "s");
  }
  const FlatHubLabeling& flat = oracle_->labeling();
  metric("pll.avg_label",
         static_cast<double>(flat.total_hubs()) / static_cast<double>(flat.num_vertices()), "count");
  metric("pll.prune_ratio", pll_visited_ > 0 ? pll_pruned_ / pll_visited_ : 0.0, "ratio");
  metric("labels.load_s", span_s("labels.load"), "s");
  metric("labels.flatten_s", span_s("labels.flatten"), "s");
  metric("labels.file_mb", static_cast<double>(std::filesystem::file_size(label_path_)) / 1e6,
         "MB");

  // Server internals read from ServerResult: worker busy time per answer
  // at capacity, and what it adds to the block-32 kernel.
  double busy_ns = 0.0;
  double completed = 0.0;
  for (const Segment& s : cap_) {
    busy_ns += static_cast<double>(s.busy_ns);
    completed += static_cast<double>(s.completed);
  }
  const double service_ns = completed > 0 ? busy_ns / completed : 0.0;
  metric("server.service_ns", service_ns, "ns");
  const std::size_t kernel_pairs = std::min(kKernelPairs, sample_.size());
  metric("server.overhead_ns", service_ns - per_query_ns("kernel.batch32", kernel_pairs), "ns");
  metric("server.utilization_pct",
         median_of(cap_, [](const Segment& s) { return s.utilization_pct; }), "%");
  metric("server.queue_depth_p99",
         median_of(high_, [](const Segment& s) { return s.queue_depth_p99; }), "count");
  const auto ratio = [](const Segment& s) { return s.achieved_qps / s.offered_qps; };
  metric("server.achieved_ratio.low", median_of(low_, ratio), "ratio");
  metric("server.achieved_ratio.high", median_of(high_, ratio), "ratio");
  metric("server.rejected", static_cast<double>(rejected_), "count");

  const double untraced = median(setup_untraced_s_);
  metric("trace.setup_overhead_pct", 100.0 * (median(setup_s_) - untraced) / untraced, "%");
}

int Bench::run() {
  std::filesystem::create_directories(opt_.work_dir);
  std::printf("# hublab end-to-end benchmark\n");
  std::printf("# workload %s seed %llu seconds %g trace %d scale %s\n",
              std::string(w_.name).c_str(), static_cast<unsigned long long>(opt_.seed),
              opt_.seconds, opt_.trace ? 1 : 0, opt_.tiny ? "tiny" : "full");
  std::printf("# host nproc %zu simd %s rev %s\n", nproc_, simd::tier_name(simd::active_tier()),
              opt_.rev.c_str());
  std::printf("# threads server %zu workers + 1 generator, offline callers %zu, pll build 1\n",
              workers_, callers_);
  {
    const Graph g = make_graph(w_, opt_.tiny);
    io::save_edge_list(g, graph_path_);
    std::printf("# graph n %zu m %zu weighted %d pairs %s\n", g.num_vertices(), g.num_edges(),
                g.is_weighted() ? 1 : 0, std::string(serve::workload_kind_name(w_.kind)).c_str());
  }
  std::fflush(stdout);

  // The first set-up provides the labels every later step answers from.
  {
    Built b = setup_once(tracer(), 0);
    setup_s_.push_back(b.secs);
    setup_target_ = reps_for(b.secs, kSetupBudgetS);
    graph_.emplace(std::move(b.graph));
    oracle_.emplace(std::move(b.labels));
  }
  if (opt_.trace) setup_untraced_s_.push_back(setup_once(nullptr, 0).secs);
  {
    std::vector<double> gen_ns;
    for (int rep = 0; rep < 3; ++rep) {
      MaybeSpan span(tracer(), "workload.gen");
      Timer timer;
      serve::WorkloadGenerator gen(*graph_, w_.kind, opt_.seed ^ 0xb10cULL);
      sample_ = gen.block(opt_.tiny ? kOfflineBlock : kSamplePairs);
      gen_ns.push_back(timer.elapsed_s() * 1e9 / static_cast<double>(sample_.size()));
    }
    if (opt_.trace) metric("workload.gen_ns", median(gen_ns), "ns");
  }
  first_answer_ = oracle_->labeling().query_with_hub(sample_.front().first, sample_.front().second);
  write_label_file();
  restart_rep();
  restart_target_ = reps_for(restart_s_.front(), kRestartBudgetS);
  verify_sample();
  verify_batches();
  if (opt_.trace) time_kernels();

  serve_phase();
  verify_served();
  metric("setup_s", median(setup_s_), "s");
  metric("restart_s", median(restart_s_), "s");
  metric("label_mb", static_cast<double>(oracle_->labeling().memory_bytes()) / 1e6, "MB");
  if (opt_.trace) layer_metrics();
  return report();
}

int Bench::report() {
  const bool correct = wrong_ == 0;
  const std::uint64_t failed = wrong_ + rejected_;
  const double error_rate =
      attempted_ > 0 ? static_cast<double>(failed) / static_cast<double>(attempted_) : 0.0;
  metric("error_rate", error_rate, "ratio");
  metric("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1e6, "MB");
  for (const Metric& m : metrics_) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (opt_.trace) {
    std::ofstream out(opt_.trace_out);
    if (out) tracer_->write_chrome_trace(out);
    std::printf("# trace spans %zu written to %s\n", tracer_->records().size(),
                opt_.trace_out.c_str());
  }

  // The JSON carries the end-to-end metrics, or with --trace 1 the
  // per-layer ones.  error_rate is 0 on every correct run, so it travels
  // as failed / attempted instead.  The p99s are printed but left out of
  // the JSON: on a drifting host their run-to-run spread exceeds any bound
  // a regression gate may use (README.md, "Steadiness").
  static constexpr std::string_view kEndToEnd[] = {
      "setup_s",    "restart_s",   "label_mb",     "peak_rss_mb", "p50_us.low",
      "p50_us.high", "capacity_qps", "slo_qps",    "batch_qps"};
  static constexpr std::string_view kPrintedOnly[] = {"error_rate", "p99_us.low", "p99_us.high"};
  const auto is_end_to_end = [](const std::string& name) {
    return std::find(std::begin(kEndToEnd), std::end(kEndToEnd), name) != std::end(kEndToEnd);
  };
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    const bool printed_only = std::find(std::begin(kPrintedOnly), std::end(kPrintedOnly),
                                        m.name) != std::end(kPrintedOnly);
    if (printed_only || is_end_to_end(m.name) == opt_.trace) continue;
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += first ? "" : ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "e2e: %s\nusage: hublab_e2e --workload NAME --seed N --seconds S --trace 0|1 "
               "[--tiny] [--work-dir DIR] [--trace-out FILE] [--rev REV]\nworkloads:",
               msg);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", std::string(w.name).c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--tiny") {
        opt.tiny = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value");
      const std::string value = argv[++i];
      if (arg == "--workload") {
        for (const Workload& w : kWorkloads) {
          if (w.name == value) opt.workload = &w;
        }
        if (opt.workload == nullptr) return usage("unknown workload");
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else if (arg == "--work-dir") {
        opt.work_dir = value;
      } else if (arg == "--trace-out") {
        opt.trace_out = value;
      } else if (arg == "--rev") {
        opt.rev = value;
      } else {
        return usage("unknown argument");
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (opt.workload == nullptr) return usage("--workload is required");
  if (!(opt.seconds > 0 && opt.seconds <= 600)) return usage("--seconds must be in (0, 600]");
  if (opt.trace_out.empty()) opt.trace_out = opt.work_dir + "/trace.json";
  log::logger().set_level(log::Level::kWarn);
  try {
    Bench bench(opt);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e: %s\n", e.what());
    return 2;
  }
}
