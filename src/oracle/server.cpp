#include "oracle/server.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <utility>

#include "hub/pll.hpp"
#include "oracle/contraction_hierarchy.hpp"
#include "oracle/oracle.hpp"
#include "oracle/workload.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/querystats.hpp"
#include "util/report.hpp"
#include "util/resource.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace hublab::serve {

namespace {

/// One admitted query: queued in its shard worker's FIFO, then a member of
/// one of the worker's blocks.
struct QueryItem {
  Vertex s = 0;
  Vertex t = 0;
  std::uint64_t seq = 0;         ///< position in the pre-generated stream
  std::uint64_t arrival_ns = 0;  ///< arrival offset from loop start (closed: take time)
  /// Simulated arrival-to-completion latency (kVirtual only; taken from
  /// the pre-simulation so the value is independent of real scheduling).
  std::uint64_t virtual_latency_ns = 0;
};

/// Per-window accumulator.  An untrimmed arrival counts toward `offered`
/// where it is decided: at completion when answered, at admission when shed.
struct WindowAccum {
  std::uint64_t offered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t queries = 0;
  std::uint64_t reachable = 0;
  QuantileSketch latency_ns;
};

/// Everything one shard worker accumulates; merged in worker order.
struct WorkerStats {
  QuantileSketch latency_ns;
  /// FIFO depth at each untrimmed open-loop admission decision.
  QuantileSketch queue_depth;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t reachable = 0;
  std::uint64_t checksum = 0;
  std::uint64_t trimmed_warmup = 0;
  std::uint64_t trimmed_cooldown = 0;
  std::uint64_t busy_ns = 0;  ///< kernel time only; pacing and admission excluded
  perf::HwCounters hw;
  metrics::ExemplarReservoir exemplars;
  metrics::SlowQueryLog slow;
  metrics::SpaceSavingSketch hub_scan_cost;
  std::map<std::uint64_t, WindowAccum> windows;
};

/// A shard worker's block buffers, sized once to the most a block can hold.
struct Block {
  explicit Block(std::size_t batch) : items(batch), pairs(batch), answers(batch) {}
  std::vector<QueryItem> items;
  std::vector<std::pair<Vertex, Vertex>> pairs;
  std::vector<HubQueryResult> answers;
};

/// Arrival offset `t_ns` as an integer; InvalidArgument when the
/// nanosecond clock cannot hold it (a --qps far too low for the run).
std::uint64_t arrival_offset_ns(double t_ns) {
  if (!(t_ns < 0x1p64)) {
    throw InvalidArgument("serve: --qps is too low: an arrival offset reaches 2^64 ns");
  }
  return static_cast<std::uint64_t>(t_ns);
}

/// Scheduled arrival offsets (ns from loop start), ascending.  The RNG
/// stream is salted away from the workload's so pairs and arrivals are
/// independent draws from the one config seed.
std::vector<std::uint64_t> arrival_schedule(const ServerConfig& config) {
  std::vector<std::uint64_t> arrivals;
  arrivals.reserve(config.num_queries);
  Rng rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  const double gap_ns = 1e9 / config.qps;
  if (config.arrival == ArrivalKind::kPoisson) {
    double t = 0.0;
    for (std::uint64_t i = 0; i < config.num_queries; ++i) {
      // Exponential inter-arrival gap with mean gap_ns (inverse CDF;
      // next_double() < 1 keeps the log argument positive).
      t += -std::log(1.0 - rng.next_double()) * gap_ns;
      arrivals.push_back(arrival_offset_ns(t));
    }
  } else {
    // Back-to-back groups of `burst` arrivals; group starts are spaced so
    // the long-run rate still matches the offered qps.
    const std::uint64_t burst = std::max<std::uint64_t>(1, config.burst);
    for (std::uint64_t i = 0; i < config.num_queries; ++i) {
      const std::uint64_t group = i / burst;
      arrivals.push_back(arrival_offset_ns(static_cast<double>(group) * gap_ns *
                                           static_cast<double>(burst)));
    }
  }
  return arrivals;
}

/// Deterministic M/D/c pre-simulation for TimingMode::kVirtual: replay the
/// arrival schedule against `workers` queues of bound `ring_capacity` and
/// constant per-query service time, producing each query's simulated
/// latency, the queue depth its admission decision saw, and (under kShed)
/// whether it was shed.  Runs before the serve loop starts, so every
/// number is independent of real thread scheduling.
struct VirtualPlan {
  std::vector<std::uint64_t> latency_ns;
  std::vector<std::uint64_t> depth;
  std::vector<std::uint8_t> shed;
  std::uint64_t makespan_ns = 0;  ///< last simulated completion
};

VirtualPlan virtual_presim(const std::vector<std::uint64_t>& arrivals, std::size_t workers,
                           std::size_t ring_capacity, const ServerConfig& config) {
  VirtualPlan plan;
  const std::size_t n = arrivals.size();
  plan.latency_ns.assign(n, 0);
  plan.depth.assign(n, 0);
  plan.shed.assign(n, 0);
  const std::uint64_t service = std::max<std::uint64_t>(1, config.virtual_service_ns);
  std::vector<std::deque<std::uint64_t>> queued(workers);  ///< pending completions
  std::vector<std::uint64_t> free_at(workers, 0);          ///< server idle time
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t w = i % workers;
    const std::uint64_t a = arrivals[i];
    auto& dq = queued[w];
    while (!dq.empty() && dq.front() <= a) dq.pop_front();
    plan.depth[i] = dq.size();
    if (config.admission == AdmissionPolicy::kShed && dq.size() >= ring_capacity) {
      plan.shed[i] = 1;
      continue;
    }
    const std::uint64_t start = std::max(a, free_at[w]);
    const std::uint64_t completion = start + service;
    free_at[w] = completion;
    dq.push_back(completion);
    plan.latency_ns[i] = completion - a;
    plan.makespan_ns = std::max(plan.makespan_ns, completion);
  }
  return plan;
}

void emit_registry_metrics(const ServerResult& result, const ServerConfig& config) {
  metrics::Registry& reg = metrics::registry();
  reg.counter("serve.queries").add(result.completed);
  reg.counter("serve.reachable").add(result.reachable);
  reg.counter("serve.offered").add(result.offered);
  reg.counter("serve.rejected").add(result.rejected);
  reg.counter("serve.trimmed_warmup").add(result.trimmed_warmup);
  reg.counter("serve.trimmed_cooldown").add(result.trimmed_cooldown);
  reg.sketch("serve.query_ns").merge(result.latency_ns);
  reg.sketch("serve.queue_depth").merge(result.queue_depth);
  reg.gauge("serve.space_bytes").set(static_cast<std::int64_t>(result.space_bytes));
  reg.gauge("serve.offered_qps").set(static_cast<std::int64_t>(result.offered_qps));
  reg.gauge("serve.achieved_qps").set(static_cast<std::int64_t>(result.achieved_qps));
  reg.gauge("serve.worker_utilization_pct")
      .set(static_cast<std::int64_t>(result.worker_utilization_pct));
  for (std::size_t w = 0; w < result.worker_busy_ns.size(); ++w) {
    reg.gauge("serve.worker_busy_ns." + std::to_string(w))
        .set(static_cast<std::int64_t>(result.worker_busy_ns[w]));
  }
  reg.counter("serve.slow_queries").add(result.slow_queries.total_slow());
  reg.gauge("serve.window.count").set(static_cast<std::int64_t>(result.windows.size()));
  for (const WindowStats& win : result.windows) {
    const std::string idx = std::to_string(win.index);
    reg.gauge("serve.window.queries." + idx).set(static_cast<std::int64_t>(win.queries));
    reg.gauge("serve.window.qps." + idx).set(static_cast<std::int64_t>(win.qps));
    reg.gauge("serve.window.p50_ns." + idx).set(static_cast<std::int64_t>(win.p50_ns));
    reg.gauge("serve.window.p99_ns." + idx).set(static_cast<std::int64_t>(win.p99_ns));
    reg.gauge("serve.window.offered." + idx).set(static_cast<std::int64_t>(win.offered));
    reg.gauge("serve.window.rejected." + idx).set(static_cast<std::int64_t>(win.rejected));
  }
  metrics::ExemplarStore& store = reg.exemplar("serve.query_exemplars");
  store.configure(config.seed, kExemplarsPerBucket);
  store.merge(result.exemplars);
  reg.heavy_hitter("hub.scan_cost").merge(result.hub_scan_cost);
  // Structured slow-query lines go out after the loop, never from it.
  for (const metrics::Exemplar& e : result.slow_queries.entries()) {
    HUBLAB_LOG_WARN("serve", "slow query", log::Field("seq", e.seq),
                    log::Field("s", static_cast<std::uint64_t>(e.s)),
                    log::Field("t", static_cast<std::uint64_t>(e.t)),
                    log::Field("latency_ns", e.latency_ns),
                    log::Field("scan_cost", e.scan_cost),
                    log::Field("meeting_hub", static_cast<std::uint64_t>(e.meeting_hub)),
                    log::Field("threshold_ns", result.slow_queries.threshold_ns()));
  }
  if (result.hw.valid) {
    reg.counter("perf.cycles").add(result.hw.cycles);
    reg.counter("perf.instructions").add(result.hw.instructions);
    reg.counter("perf.l1d_misses").add(result.hw.l1d_misses);
    reg.counter("perf.llc_misses").add(result.hw.llc_misses);
    reg.counter("perf.branch_misses").add(result.hw.branch_misses);
  }
}

}  // namespace

std::string_view oracle_kind_name(OracleKind kind) noexcept {
  switch (kind) {
    case OracleKind::kPllFlat: return "pll-flat";
    case OracleKind::kCh: return "ch";
    case OracleKind::kBidij: return "bidij";
  }
  return "pll-flat";
}

std::optional<OracleKind> parse_oracle_kind(std::string_view name) noexcept {
  if (name == "pll-flat") return OracleKind::kPllFlat;
  if (name == "ch") return OracleKind::kCh;
  if (name == "bidij") return OracleKind::kBidij;
  return std::nullopt;
}

std::unique_ptr<DistanceOracle> make_oracle(const Graph& g, OracleKind kind,
                                            const PllConfig& pll) {
  if (g.num_vertices() == 0) throw InvalidArgument("serve: empty graph");
  switch (kind) {
    case OracleKind::kPllFlat: {
      const auto order = make_vertex_order(g, VertexOrder::kDegreeDescending);
      return std::make_unique<FlatHubLabelOracle>(pruned_landmark_labeling(g, order, pll));
    }
    case OracleKind::kCh:
      return std::make_unique<ContractionHierarchy>(g);
    case OracleKind::kBidij:
      return std::make_unique<BidirectionalOracle>(g);
  }
  HUBLAB_UNREACHABLE();
}

std::string_view arrival_kind_name(ArrivalKind kind) noexcept {
  switch (kind) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kBurst: return "burst";
    case ArrivalKind::kClosed: return "closed";
  }
  return "poisson";
}

std::optional<ArrivalKind> parse_arrival_kind(std::string_view name) noexcept {
  if (name == "poisson") return ArrivalKind::kPoisson;
  if (name == "burst") return ArrivalKind::kBurst;
  if (name == "closed") return ArrivalKind::kClosed;
  return std::nullopt;
}

std::string_view admission_policy_name(AdmissionPolicy policy) noexcept {
  switch (policy) {
    case AdmissionPolicy::kShed: return "shed";
    case AdmissionPolicy::kBlock: return "block";
  }
  return "shed";
}

std::optional<AdmissionPolicy> parse_admission_policy(std::string_view name) noexcept {
  if (name == "shed") return AdmissionPolicy::kShed;
  if (name == "block") return AdmissionPolicy::kBlock;
  return std::nullopt;
}

std::string_view timing_mode_name(TimingMode mode) noexcept {
  switch (mode) {
    case TimingMode::kWall: return "wall";
    case TimingMode::kVirtual: return "virtual";
  }
  return "wall";
}

std::optional<TimingMode> parse_timing_mode(std::string_view name) noexcept {
  if (name == "wall") return TimingMode::kWall;
  if (name == "virtual") return TimingMode::kVirtual;
  return std::nullopt;
}

ServerResult run_server_on(const Graph& g, const DistanceOracle& oracle,
                           const ServerConfig& config, Tracer* tracer) {
  const bool closed = config.arrival == ArrivalKind::kClosed;
  const bool virtual_timing = config.timing == TimingMode::kVirtual;
  if (g.num_vertices() == 0) throw InvalidArgument("serve: empty graph");
  if (config.num_queries == 0) throw InvalidArgument("serve: --queries must be >= 1");
  if (!closed && !valid_open_qps(config.qps)) {
    throw InvalidArgument("serve: --qps must be > 0 and below 2^63");
  }
  if (config.batch == 0) throw InvalidArgument("serve: --batch must be >= 1");
  if (config.ring_capacity == 0) throw InvalidArgument("serve: --ring must be >= 1");
  constexpr std::uint64_t kMaxMs = ~std::uint64_t{0} / 1'000'000;  // the trims are kept in ns
  if (config.warmup_ms > kMaxMs) throw InvalidArgument("serve: --warmup-ms exceeds 2^64 ns");
  if (config.cooldown_ms > kMaxMs) throw InvalidArgument("serve: --cooldown-ms exceeds 2^64 ns");
  if (closed && virtual_timing) {
    throw InvalidArgument("serve: --timing virtual needs an open-loop arrival (poisson|burst)");
  }
  if (par::in_parallel_region()) {
    throw InvalidArgument("serve: cannot run inside a parallel region");
  }
  Tracer local_tracer;
  Tracer& t = tracer != nullptr ? *tracer : local_tracer;

  ServerResult result;
  result.start_unix_ms = unix_time_ms();
  result.oracle_name = oracle.name();
  result.workload_name = workload_kind_name(config.workload);
  result.workers = std::clamp<std::size_t>(config.workers, 1, kMaxServeWorkers);
  result.offered_qps = closed ? 0.0 : config.qps;
  result.space_bytes = oracle.space_bytes();
  const std::size_t workers = result.workers;
  const std::size_t batch = config.batch;

  // Pairs and arrivals are fully materialized before the loop: generation
  // must never steal cycles from (or synchronize with) the serving path,
  // and the schedule must be a pure function of the config.
  std::vector<std::pair<Vertex, Vertex>> pairs;
  {
    auto span = t.span("gen-workload");
    WorkloadGenerator workload(g, config.workload, config.seed);
    pairs = workload.block(config.num_queries);
  }
  result.offered = pairs.size();

  // Open loop only: the schedule and the telemetry trim bounds.  Each trim
  // bound is clamped to a quarter of the schedule span so short smoke runs
  // always keep recorded samples; trimmed queries are still answered and
  // checksummed.
  std::vector<std::uint64_t> arrivals;
  std::uint64_t warm_end_ns = 0;
  std::uint64_t cool_begin_ns = ~std::uint64_t{0};
  if (!closed) {
    {
      auto span = t.span("gen-arrivals");
      arrivals = arrival_schedule(config);
    }
    const std::uint64_t span_ns = arrivals.back();
    warm_end_ns = std::min(config.warmup_ms * 1'000'000, span_ns / 4);
    if (config.cooldown_ms > 0) {
      cool_begin_ns = span_ns - std::min(config.cooldown_ms * 1'000'000, span_ns / 4);
    }
  }

  // kVirtual: decide latencies/depths/shedding up front, deterministically,
  // against the same queue bound the workers enforce.
  VirtualPlan plan;
  if (virtual_timing) plan = virtual_presim(arrivals, workers, config.ring_capacity, config);

  std::vector<WorkerStats> stats(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    // Per-worker seeds derive from the run seed and the fixed worker id,
    // so retained exemplars depend only on (seed, latencies).
    stats[w].exemplars = metrics::ExemplarReservoir(
        config.seed ^ (0x9e3779b97f4a7c15ULL * (w + 1)), kExemplarsPerBucket);
    stats[w].slow = metrics::SlowQueryLog(config.slow_query_ns, kSlowQueryCapacity);
  }
  const std::uint64_t window_ns = std::max<std::uint64_t>(1, config.window_ns);
  const std::size_t n = pairs.size();
  // A closed-loop worker admits one block at a time, so its queue never
  // holds more than a block and never sheds.  No worker ever holds more
  // than its own slice of the queries, so the FIFO is capped at the
  // largest slice whatever --ring or --batch says: a FIFO that full holds
  // the worker's whole slice, leaving no arrival to wait or be shed.
  const std::size_t slice = (n + workers - 1) / workers;
  const std::size_t bound = std::min(closed ? batch : config.ring_capacity, slice);
  const bool sheds = !closed && config.admission == AdmissionPolicy::kShed;

  {
    auto span = t.span("serve-loop");
    Timer loop_timer;
    const std::uint64_t t0 = monotonic_ns();

    auto record = [&](WorkerStats& s, const QueryItem& item, Dist d, Vertex meeting_hub,
                      std::uint64_t scan_cost, std::uint64_t completion_offset_ns) {
      ++s.completed;
      if (d != kInfDist) {
        ++s.reachable;
        s.checksum += d;
      }
      if (item.arrival_ns < warm_end_ns) {
        ++s.trimmed_warmup;
        return;
      }
      if (item.arrival_ns >= cool_begin_ns) {
        ++s.trimmed_cooldown;
        return;
      }
      const std::uint64_t latency_ns = virtual_timing
                                           ? item.virtual_latency_ns
                                           : completion_offset_ns - item.arrival_ns;
      s.latency_ns.record(latency_ns);
      const metrics::Exemplar witness{item.seq, item.s, item.t, latency_ns, scan_cost,
                                      meeting_hub};
      s.exemplars.offer(witness);
      s.slow.offer(witness);
      if (scan_cost > 0 && meeting_hub != metrics::kNoMeetingHub) {
        s.hub_scan_cost.add(meeting_hub, scan_cost);
      }
      WindowAccum& win = s.windows[item.arrival_ns / window_ns];
      ++win.offered;
      ++win.queries;
      if (d != kInfDist) ++win.reachable;
      win.latency_ns.record(latency_ns);
    };

    // Answer block.items[0, got) and record each one.  Every member of a
    // batched block completes when the kernel call returns.
    auto answer = [&](WorkerStats& s, Block& block, std::size_t got) {
      const std::uint64_t block_begin_ns = monotonic_ns();
      if (batch >= 2) {
        for (std::size_t j = 0; j < got; ++j) {
          block.pairs[j] = {block.items[j].s, block.items[j].t};
        }
        {
          perf::ScopedHw hw_scope(s.hw);
          oracle.distance_batch(
              std::span<const std::pair<Vertex, Vertex>>(block.pairs.data(), got),
              std::span<HubQueryResult>(block.answers.data(), got));
        }
        const std::uint64_t completion = monotonic_ns();
        for (std::size_t j = 0; j < got; ++j) {
          record(s, block.items[j], block.answers[j].dist, block.answers[j].meeting_hub, 0,
                 completion - t0);
        }
        s.busy_ns += completion - block_begin_ns;
      } else {
        for (std::size_t j = 0; j < got; ++j) {
          metrics::QueryStats probe;
          Dist d = kInfDist;
          {
            perf::ScopedHw hw_scope(s.hw);
            d = oracle.distance_with_stats(block.items[j].s, block.items[j].t, probe);
          }
          record(s, block.items[j], d, probe.meeting_hub(), probe.scan_cost(),
                 monotonic_ns() - t0);
        }
        s.busy_ns += monotonic_ns() - block_begin_ns;
      }
    };

    // Shard worker w serves its own slice of the stream (seq % workers ==
    // w).  Each pass admits or sheds every arrival that is due into a
    // private FIFO of at most `bound` queries, then answers the oldest
    // <= batch of them.  The worker looks at arrivals only between blocks,
    // so an arrival is shed (kShed) or waits (kBlock) exactly when its
    // worker already holds `bound` admitted, unanswered queries.  Under
    // kVirtual every arrival is due at once and the plan decides; under
    // closed arrivals taking a query is its arrival.
    auto serve_worker = [&](std::size_t w) {
      WorkerStats& s = stats[w];
      Block block(std::min(batch, bound));
      std::vector<QueryItem> fifo(bound);  // ring buffer: `queued` items from `head`
      std::size_t head = 0;
      std::size_t tail = 0;
      std::size_t queued = 0;
      const auto advance = [bound](std::size_t i) { return i + 1 == bound ? 0 : i + 1; };
      std::size_t seq = w;
      while (seq < n || queued > 0) {
        const std::uint64_t now = monotonic_ns() - t0;
        for (; seq < n; seq += workers) {
          const std::uint64_t arrival = closed ? now : arrivals[seq];
          if (!virtual_timing && arrival > now) break;  // not due yet
          const bool full = queued == bound;
          const bool shed = virtual_timing ? plan.shed[seq] != 0 : full && sheds;
          if (full && !shed) break;  // wait until the next block frees space
          const bool trimmed = arrival < warm_end_ns || arrival >= cool_begin_ns;
          if (!closed && !trimmed) s.queue_depth.record(virtual_timing ? plan.depth[seq] : queued);
          if (shed) {
            ++s.rejected;
            if (!trimmed) {
              WindowAccum& win = s.windows[arrival / window_ns];
              ++win.offered;
              ++win.rejected;
            }
            continue;
          }
          fifo[tail] = {pairs[seq].first, pairs[seq].second, seq, arrival,
                        virtual_timing ? plan.latency_ns[seq] : 0};
          tail = advance(tail);
          ++queued;
        }
        const std::size_t got = std::min(queued, batch);
        if (got == 0) {
          par::yield();  // open-loop pacing: nothing queued, nothing due
          continue;
        }
        for (std::size_t j = 0; j < got; ++j, head = advance(head)) block.items[j] = fifo[head];
        queued -= got;
        answer(s, block, got);
      }
    };

    // One role per shard worker, each a single-index chunk on the
    // deterministic pool: each executor claims exactly one long-running
    // role, and run_chunks joins them and rethrows the lowest-indexed
    // failure.  Workers share nothing mutable, so a failing worker cannot
    // stall the others.
    par::run_chunks(par::static_chunks(0, workers, workers), workers,
                    [&](const par::ChunkRange& role) { serve_worker(role.index); });
    result.serve_loop_s = loop_timer.elapsed_s();
  }

  // Merge in fixed worker order: the merged sketch structure and every
  // count are independent of runtime interleaving.
  result.exemplars = metrics::ExemplarReservoir(config.seed, kExemplarsPerBucket);
  result.slow_queries = metrics::SlowQueryLog(config.slow_query_ns, kSlowQueryCapacity);
  result.worker_busy_ns.assign(workers, 0);
  std::map<std::uint64_t, WindowAccum> merged_windows;
  for (std::size_t w = 0; w < workers; ++w) {
    const WorkerStats& s = stats[w];
    result.latency_ns.merge(s.latency_ns);
    result.queue_depth.merge(s.queue_depth);
    result.completed += s.completed;
    result.rejected += s.rejected;
    result.reachable += s.reachable;
    result.checksum += s.checksum;
    result.trimmed_warmup += s.trimmed_warmup;
    result.trimmed_cooldown += s.trimmed_cooldown;
    result.hw += s.hw;
    result.exemplars.merge(s.exemplars);
    result.slow_queries.merge(s.slow);
    result.hub_scan_cost.merge(s.hub_scan_cost);
    result.worker_busy_ns[w] = s.busy_ns;
    for (const auto& [index, win] : s.windows) {
      WindowAccum& acc = merged_windows[index];
      acc.offered += win.offered;
      acc.rejected += win.rejected;
      acc.queries += win.queries;
      acc.reachable += win.reachable;
      acc.latency_ns.merge(win.latency_ns);
    }
  }
  result.windows.reserve(merged_windows.size());
  for (const auto& [index, win] : merged_windows) {
    result.windows.push_back({index, win.queries, win.reachable,
                              static_cast<double>(win.queries) /
                                  (static_cast<double>(window_ns) / 1e9),
                              win.latency_ns.quantile(0.5), win.latency_ns.quantile(0.99),
                              win.offered, win.rejected});
  }
  // Under kVirtual the rate is measured on the simulated clock (the wall
  // loop time includes no pacing), so it is run-to-run identical too.
  if (virtual_timing) {
    result.achieved_qps = plan.makespan_ns > 0
                              ? static_cast<double>(result.completed) /
                                    (static_cast<double>(plan.makespan_ns) / 1e9)
                              : 0.0;
  } else {
    result.achieved_qps = result.serve_loop_s > 0.0
                              ? static_cast<double>(result.completed) / result.serve_loop_s
                              : 0.0;
  }
  std::uint64_t total_busy_ns = 0;
  for (const std::uint64_t busy : result.worker_busy_ns) total_busy_ns += busy;
  const double capacity_ns = result.serve_loop_s * 1e9 * static_cast<double>(workers);
  result.worker_utilization_pct =
      capacity_ns > 0.0 ? 100.0 * static_cast<double>(total_busy_ns) / capacity_ns : 0.0;

  if (config.register_metrics) emit_registry_metrics(result, config);
  HUBLAB_LOG_INFO("serve", "serve loop done", log::Field("oracle", result.oracle_name),
                  log::Field("workload", result.workload_name),
                  log::Field("arrival", arrival_kind_name(config.arrival)),
                  log::Field("offered", result.offered),
                  log::Field("completed", result.completed),
                  log::Field("rejected", result.rejected),
                  log::Field("p99_ns", result.latency_ns.quantile(0.99)));
  return result;
}

void write_server_report_json(std::ostream& os, const ServerResult& result,
                              const ServerConfig& config, const std::vector<SweepPoint>& sweep,
                              const Graph& g, std::string_view graph_family,
                              std::string_view git_rev, bool smoke, const Tracer& tracer) {
  ReportHeader header;
  header.name = "serve-" + std::string(oracle_kind_name(config.oracle));
  header.git_rev = std::string(git_rev);
  header.smoke = smoke;
  header.ok = true;
  header.repetitions = 1;
  header.start_unix_ms = result.start_unix_ms;
  header.threads = result.workers;
  header.graphs.push_back({std::string(graph_family), g.num_vertices(), g.num_edges()});
  const auto quantiles = [](JsonWriter& w, const QuantileSketch& sk) {
    w.kv("count", sk.count());
    w.kv("min", sk.min());
    w.kv("max", sk.max());
    w.kv("p50", sk.quantile(0.5));
    w.kv("p90", sk.quantile(0.9));
    w.kv("p99", sk.quantile(0.99));
    w.kv("p999", sk.quantile(0.999));
    w.kv("rank_error", sk.rank_error_bound());
  };
  write_run_report_json(os, header, tracer, metrics::registry(), [&](JsonWriter& w) {
    w.kv("oracle", oracle_kind_name(config.oracle));
    w.kv("oracle_impl", result.oracle_name);
    w.kv("workload", result.workload_name);
    w.kv("seed", config.seed);
    w.kv("arrival", arrival_kind_name(config.arrival));
    w.kv("admission", admission_policy_name(config.admission));
    w.kv("timing", timing_mode_name(config.timing));
    w.kv("qps", result.offered_qps);
    w.kv("achieved_qps", result.achieved_qps);
    w.kv("burst", config.burst);
    w.kv("ring_capacity", static_cast<std::uint64_t>(config.ring_capacity));
    w.kv("batch", static_cast<std::uint64_t>(config.batch));
    w.kv("virtual_service_ns", config.virtual_service_ns);
    w.kv("warmup_ms", config.warmup_ms);
    w.kv("cooldown_ms", config.cooldown_ms);
    w.kv("offered", result.offered);
    w.kv("queries", result.completed);
    w.kv("rejected", result.rejected);
    w.kv("reachable", result.reachable);
    w.kv("checksum", result.checksum);
    w.kv("trimmed_warmup", result.trimmed_warmup);
    w.kv("trimmed_cooldown", result.trimmed_cooldown);
    w.kv("space_bytes", static_cast<std::uint64_t>(result.space_bytes));
    w.kv("build_s", result.build_s);
    w.kv("serve_loop_s", result.serve_loop_s);
    w.kv("worker_utilization_pct", result.worker_utilization_pct);
    w.key("workers").begin_array();
    for (std::size_t i = 0; i < result.worker_busy_ns.size(); ++i) {
      w.begin_object();
      w.kv("worker", static_cast<std::uint64_t>(i));
      w.kv("busy_ns", result.worker_busy_ns[i]);
      const double loop_ns = result.serve_loop_s * 1e9;
      w.kv("utilization_pct",
           loop_ns > 0.0 ? 100.0 * static_cast<double>(result.worker_busy_ns[i]) / loop_ns : 0.0);
      w.end_object();
    }
    w.end_array();
    if (result.hw.valid) {
      w.key("hw_query_loop").begin_object();
      w.kv("cycles", result.hw.cycles);
      w.kv("instructions", result.hw.instructions);
      w.kv("ipc", result.hw.ipc());
      w.kv("l1d_misses", result.hw.l1d_misses);
      w.kv("llc_misses", result.hw.llc_misses);
      w.kv("branch_misses", result.hw.branch_misses);
      w.kv("llc_miss_rate", result.hw.llc_miss_rate());
      w.kv("branch_miss_rate", result.hw.branch_miss_rate());
      w.end_object();
    }
    w.key("latency_ns").begin_object();
    quantiles(w, result.latency_ns);
    w.end_object();
    w.key("queue_depth").begin_object();
    quantiles(w, result.queue_depth);
    w.end_object();
    w.kv("window_ns", config.window_ns);
    w.kv("slow_query_ns", config.slow_query_ns);
    w.key("windows").begin_array();
    for (const WindowStats& win : result.windows) {
      w.begin_object();
      w.kv("index", win.index);
      w.kv("queries", win.queries);
      w.kv("reachable", win.reachable);
      w.kv("qps", win.qps);
      w.kv("p50_ns", win.p50_ns);
      w.kv("p99_ns", win.p99_ns);
      w.kv("offered", win.offered);
      w.kv("rejected", win.rejected);
      w.end_object();
    }
    w.end_array();
    w.key("slow_queries").begin_array();
    for (const metrics::Exemplar& e : result.slow_queries.entries()) {
      w.begin_object();
      w.kv("seq", e.seq);
      w.kv("s", static_cast<std::uint64_t>(e.s));
      w.kv("t", static_cast<std::uint64_t>(e.t));
      w.kv("latency_ns", e.latency_ns);
      w.kv("scan_cost", e.scan_cost);
      w.kv("meeting_hub", static_cast<std::uint64_t>(e.meeting_hub));
      w.end_object();
    }
    w.end_array();
    w.kv("slow_queries_total", result.slow_queries.total_slow());
    w.key("sweep").begin_array();
    for (const SweepPoint& point : sweep) {
      w.begin_object();
      w.kv("qps", point.offered_qps);
      w.kv("achieved_qps", point.achieved_qps);
      w.kv("queries", point.completed);
      w.kv("rejected", point.rejected);
      w.kv("p50_ns", point.p50_ns);
      w.kv("p99_ns", point.p99_ns);
      w.end_object();
    }
    w.end_array();
  });
}

}  // namespace hublab::serve
