#include "oracle/server.hpp"

#include <algorithm>
#include <atomic>
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
#include "util/spsc.hpp"
#include "util/timer.hpp"

namespace hublab::serve {

namespace {

/// One query in flight: between the generator and a shard worker under
/// open arrivals, inside its worker's block under closed arrivals.
struct QueryItem {
  Vertex s = 0;
  Vertex t = 0;
  std::uint64_t seq = 0;         ///< position in the pre-generated stream
  std::uint64_t arrival_ns = 0;  ///< arrival offset from loop start (closed: take time)
  /// Simulated arrival-to-completion latency (kVirtual only; computed on
  /// the generator so the value is independent of real scheduling).
  std::uint64_t virtual_latency_ns = 0;
};

/// Per-window accumulator; the generator owns offered/rejected (it sees
/// every arrival), the workers own the completion-side members.
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
  std::uint64_t completed = 0;
  std::uint64_t reachable = 0;
  std::uint64_t checksum = 0;
  std::uint64_t trimmed_warmup = 0;
  std::uint64_t trimmed_cooldown = 0;
  std::uint64_t busy_ns = 0;  ///< kernel time only; ring-wait excluded
  perf::HwCounters hw;
  metrics::ExemplarReservoir exemplars;
  metrics::SlowQueryLog slow;
  metrics::SpaceSavingSketch hub_scan_cost;
  std::map<std::uint64_t, WindowAccum> windows;
};

/// The generator-side accumulators (admission control happens there).
struct GeneratorStats {
  std::uint64_t rejected = 0;
  QuantileSketch queue_depth;
  std::map<std::uint64_t, WindowAccum> windows;  ///< offered/rejected only
};

/// A shard worker's block buffers, sized once to the drain batch.
struct Block {
  explicit Block(std::size_t batch) : items(batch), pairs(batch), answers(batch) {}
  std::vector<QueryItem> items;
  std::vector<std::pair<Vertex, Vertex>> pairs;
  std::vector<HubQueryResult> answers;
};

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
      arrivals.push_back(static_cast<std::uint64_t>(t));
    }
  } else {
    // Back-to-back groups of `burst` arrivals; group starts are spaced so
    // the long-run rate still matches the offered qps.
    const std::uint64_t burst = std::max<std::uint64_t>(1, config.burst);
    for (std::uint64_t i = 0; i < config.num_queries; ++i) {
      const std::uint64_t group = i / burst;
      arrivals.push_back(static_cast<std::uint64_t>(
          static_cast<double>(group) * gap_ns * static_cast<double>(burst)));
    }
  }
  return arrivals;
}

/// Deterministic M/D/c pre-simulation for TimingMode::kVirtual: replay the
/// arrival schedule against `workers` queues of bound `ring_capacity` and
/// constant per-query service time, producing each query's simulated
/// latency, the queue depth its admission decision saw, and (under kShed)
/// whether it was shed.  Runs on the generator before dispatch, so every
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
  store.configure(config.seed, config.exemplars_per_bucket);
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
      // Single-pass finalize straight into the flat layout.
      return std::make_unique<FlatHubLabelOracle>(pruned_landmark_labeling_flat(g, order, pll));
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
  if (!closed && !(config.qps > 0.0)) throw InvalidArgument("serve: --qps must be > 0");
  if (config.batch == 0) throw InvalidArgument("serve: --batch must be >= 1");
  if (config.ring_capacity == 0) throw InvalidArgument("serve: --ring must be >= 1");
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

  // Open loop only: the schedule, the telemetry trim bounds and the rings.
  // Each trim bound is clamped to a quarter of the schedule span so short
  // smoke runs always keep recorded samples; trimmed queries are still
  // answered and checksummed.
  std::vector<std::uint64_t> arrivals;
  std::uint64_t warm_end_ns = 0;
  std::uint64_t cool_begin_ns = ~std::uint64_t{0};
  std::vector<std::unique_ptr<SpscRing<QueryItem>>> rings;
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
    rings.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      rings.push_back(std::make_unique<SpscRing<QueryItem>>(config.ring_capacity));
    }
  }

  // kVirtual: decide latencies/depths/shedding up front, deterministically,
  // against the same rounded ring bound the real rings enforce.
  VirtualPlan plan;
  if (virtual_timing) {
    plan = virtual_presim(arrivals, workers, rings.front()->capacity(), config);
  }

  GeneratorStats gen;
  std::vector<WorkerStats> stats(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    // Per-worker seeds derive from the run seed and the fixed worker id,
    // so retained exemplars depend only on (seed, latencies).
    stats[w].exemplars = metrics::ExemplarReservoir(
        config.seed ^ (0x9e3779b97f4a7c15ULL * (w + 1)), config.exemplars_per_bucket);
    stats[w].slow = metrics::SlowQueryLog(config.slow_query_ns, config.slow_query_capacity);
  }
  const std::uint64_t window_ns = std::max<std::uint64_t>(1, config.window_ns);

  // done: producer finished (or died) — release-published after its last
  // push.  failed: some executor threw; the others unwind instead of
  // spinning on a peer that will never make progress.
  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};

  {
    auto span = t.span("serve-loop");
    Timer loop_timer;
    const std::uint64_t t0 = monotonic_ns();

    auto produce = [&] {
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        const std::size_t w = i % workers;
        const std::uint64_t due = arrivals[i];
        if (!virtual_timing) {
          // Open-loop pacing: dispatch at the scheduled offset regardless
          // of how the workers are doing.
          while (monotonic_ns() - t0 < due) {
            if (failed.load(std::memory_order_acquire)) return;
            par::yield();
          }
        }
        const bool trimmed = due < warm_end_ns || due >= cool_begin_ns;
        QueryItem item;
        item.s = pairs[i].first;
        item.t = pairs[i].second;
        item.seq = i;
        item.arrival_ns = due;
        bool admitted = true;
        std::uint64_t depth = 0;
        if (virtual_timing) {
          depth = plan.depth[i];
          admitted = plan.shed[i] == 0;
          item.virtual_latency_ns = plan.latency_ns[i];
          if (admitted) {
            // The simulated bound already admitted it; the real ring only
            // needs to take it eventually.
            while (!rings[w]->try_push(item)) {
              if (failed.load(std::memory_order_acquire)) return;
              par::yield();
            }
          }
        } else {
          depth = rings[w]->size_approx();
          if (config.admission == AdmissionPolicy::kShed) {
            admitted = rings[w]->try_push(item);
          } else {
            while (!rings[w]->try_push(item)) {
              if (failed.load(std::memory_order_acquire)) return;
              par::yield();
            }
          }
        }
        if (!admitted) ++gen.rejected;
        if (!trimmed) {
          gen.queue_depth.record(depth);
          WindowAccum& win = gen.windows[due / window_ns];
          ++win.offered;
          if (!admitted) ++win.rejected;
        }
      }
    };

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

    auto drain = [&](std::size_t w) {
      SpscRing<QueryItem>& ring = *rings[w];
      Block block(batch);
      for (;;) {
        std::size_t got = ring.pop_bulk(block.items.data(), batch);
        if (got == 0) {
          if (failed.load(std::memory_order_acquire)) return;
          if (done.load(std::memory_order_acquire)) {
            // done was published after the producer's last push; one more
            // drain pass observes anything that raced the flag.
            got = ring.pop_bulk(block.items.data(), batch);
            if (got == 0) break;
          } else {
            par::yield();
            continue;
          }
        }
        answer(stats[w], block, got);
      }
    };

    // Closed loop: worker w takes its next block of its own pairs
    // (seq % workers == w) when the previous block returned, and taking an
    // item is its arrival — so the recorded latency is service time.
    auto serve_closed = [&](std::size_t w) {
      Block block(batch);
      for (std::size_t seq = w; seq < pairs.size();) {
        const std::uint64_t taken_ns = monotonic_ns() - t0;
        std::size_t got = 0;
        for (; got < batch && seq < pairs.size(); ++got, seq += workers) {
          block.items[got] = {pairs[seq].first, pairs[seq].second, seq, taken_ns, 0};
        }
        answer(stats[w], block, got);
      }
    };

    // Every role is a single-index chunk on the deterministic pool: each
    // executor claims exactly one long-running role, and run_chunks's
    // ticket loop plus exception parking give us joining and
    // deterministic rethrow for free.  Open loop: role 0 is the generator
    // and role r >= 1 is shard worker r-1.  Closed loop: role r is worker r.
    const std::size_t num_roles = closed ? workers : workers + 1;
    const auto roles = par::static_chunks(0, num_roles, num_roles);
    par::run_chunks(roles, num_roles, [&](const par::ChunkRange& role) {
      try {
        if (closed) {
          serve_closed(role.index);
        } else if (role.index == 0) {
          produce();
          done.store(true, std::memory_order_release);
        } else {
          drain(role.index - 1);
        }
      } catch (...) {
        failed.store(true, std::memory_order_release);
        done.store(true, std::memory_order_release);
        throw;
      }
    });
    result.serve_loop_s = loop_timer.elapsed_s();
  }

  // Merge in fixed worker order (generator first): the merged sketch
  // structure and every count are independent of runtime interleaving.
  result.rejected = gen.rejected;
  result.queue_depth = gen.queue_depth;
  result.exemplars = metrics::ExemplarReservoir(config.seed, config.exemplars_per_bucket);
  result.slow_queries = metrics::SlowQueryLog(config.slow_query_ns, config.slow_query_capacity);
  result.worker_busy_ns.assign(workers, 0);
  std::map<std::uint64_t, WindowAccum> merged_windows;
  for (const auto& [index, win] : gen.windows) {
    WindowAccum& acc = merged_windows[index];
    acc.offered += win.offered;
    acc.rejected += win.rejected;
  }
  for (std::size_t w = 0; w < workers; ++w) {
    const WorkerStats& s = stats[w];
    result.latency_ns.merge(s.latency_ns);
    result.completed += s.completed;
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
      acc.queries += win.queries;
      acc.reachable += win.reachable;
      acc.latency_ns.merge(win.latency_ns);
    }
  }
  result.windows.reserve(merged_windows.size());
  for (const auto& [index, win] : merged_windows) {
    // A closed-loop arrival is its worker taking it, so every window's
    // arrivals are exactly its (never shed, never trimmed) queries.
    result.windows.push_back({index, win.queries, win.reachable,
                              static_cast<double>(win.queries) /
                                  (static_cast<double>(window_ns) / 1e9),
                              win.latency_ns.quantile(0.5), win.latency_ns.quantile(0.99),
                              closed ? win.queries : win.offered, win.rejected});
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
  header.bp_roots = static_cast<std::int64_t>(config.bp_roots);
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
