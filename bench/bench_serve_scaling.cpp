/// \file bench_serve_scaling.cpp
/// Experiment PRACT, open-loop edition: throughput-vs-latency scaling of
/// the concurrent query server (oracle/server.hpp) — shard workers that
/// each pace, admit and answer their own slice of the schedule through the
/// SIMD batched kernel — on the same connected-gnm(2000, 4000) family the
/// query microbenches use.
///
/// Two configurations ride an offered-load ladder under `kBlock` admission
/// (nothing is shed, so completed == offered deterministically at every
/// rung): `scalar1w` (one worker, per-query blocks) and `batch4w` (four
/// workers answering blocks of 32 through HubLabeling::query_batch).
/// The headline gauges are each configuration's peak sustained throughput
/// (`pract.serve_peak_qps.<label>`, higher is better — bench-compare's
/// qps class gates *decreases*) and the arrival-to-completion p99 at the
/// ladder rung nearest half the peak (`pract.serve_p99_at_halfpeak_ns.
/// <label>`, the SLO-at-half-capacity number), plus the scalar peak as a
/// percent of the batched peak.  Absolute peaks depend on the host's core
/// count — single-core CI boxes time-slice the workers, so cross-host
/// numbers are not comparable; the committed baseline pins *this* host.
///
/// The virtual-time phases exercise the parts wall clocks cannot gate:
/// under `TimingMode::kVirtual` the latency / queue-depth / shed numbers
/// come from the deterministic M/D/c pre-simulation, so a sub-capacity run
/// must shed nothing, an over-capacity run against a small queue must shed
/// a byte-stable count, and two identical overload runs must agree on
/// every latency quantile, the checksum, and the merged-window series.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "graph/generators.hpp"
#include "oracle/oracle.hpp"
#include "oracle/server.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace hublab {
namespace {

struct LadderPoint {
  double offered_qps = 0.0;
  double achieved_qps = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
};

struct LadderSummary {
  std::vector<LadderPoint> points;
  double peak_qps = 0.0;
  std::uint64_t p99_at_halfpeak_ns = 0;
  bool ok = true;
};

serve::ServerConfig base_config(const bench::Harness& harness) {
  serve::ServerConfig config;
  config.oracle = serve::OracleKind::kPllFlat;
  config.workload = serve::WorkloadKind::kUniform;
  config.num_queries = harness.smoke() ? 2000 : 20000;
  config.seed = 1;
  config.register_metrics = false;  // committed baselines carry only pract gauges
  return config;
}

/// Drive one configuration up the offered-load ladder under kBlock
/// admission and summarize its throughput curve.
LadderSummary run_ladder(const Graph& g, const DistanceOracle& oracle,
                         const bench::Harness& harness, const char* label,
                         std::size_t workers, std::size_t batch, Tracer& tracer) {
  const std::vector<double> ladder =
      harness.smoke() ? std::vector<double>{50e3, 200e3, 800e3}
                      : std::vector<double>{25e3, 50e3, 100e3, 200e3, 400e3, 800e3, 1.6e6};
  LadderSummary summary;
  serve::ServerConfig config = base_config(harness);
  config.workers = workers;
  config.batch = batch;
  config.admission = serve::AdmissionPolicy::kBlock;
  // Each rung runs a few times, keeping the best achieved rate and the
  // cleanest p99: open-loop wall numbers on a shared box carry multi-ms
  // scheduler stalls in single runs, and the committed-baseline gate needs
  // the envelope, not one draw.
  // Smoke rungs are short (tens of ms), so a stall contaminates a larger
  // fraction of them — they get more repeats, not fewer.
  const std::size_t reps = harness.smoke() ? 4 : 3;
  for (const double qps : ladder) {
    config.qps = qps;
    LadderPoint point;
    point.offered_qps = qps;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const serve::ServerResult r = serve::run_server_on(g, oracle, config, &tracer);
      // Block admission answers everything; shedding here would be a bug.
      if (r.completed + r.rejected != r.offered || r.rejected != 0) summary.ok = false;
      // The serve loop cannot complete meaningfully faster than the
      // offered schedule spans (small Poisson slack allowed).
      if (r.achieved_qps > qps * 1.25) summary.ok = false;
      point.completed = r.completed;
      point.rejected = r.rejected;
      if (r.achieved_qps > point.achieved_qps) point.achieved_qps = r.achieved_qps;
      const std::uint64_t p50 = r.latency_ns.quantile(0.5);
      const std::uint64_t p99 = r.latency_ns.quantile(0.99);
      if (rep == 0 || p50 < point.p50_ns) point.p50_ns = p50;
      if (rep == 0 || p99 < point.p99_ns) point.p99_ns = p99;
    }
    summary.points.push_back(point);
    if (point.achieved_qps > summary.peak_qps) summary.peak_qps = point.achieved_qps;
  }
  // SLO-at-half-capacity: the p99 of the ladder rung whose offered rate is
  // nearest half the measured peak — among rungs the server actually kept
  // up with (achieved >= 90% of offered).  A rung past the box's true
  // capacity has queueing-dominated p99 orders of magnitude above the
  // served regime, which would make the committed gauge meaningless noise.
  double best_gap = -1.0;
  for (const LadderPoint& p : summary.points) {
    if (p.achieved_qps < 0.9 * p.offered_qps) continue;
    const double gap = p.offered_qps > summary.peak_qps / 2.0
                           ? p.offered_qps - summary.peak_qps / 2.0
                           : summary.peak_qps / 2.0 - p.offered_qps;
    if (best_gap < 0.0 || gap < best_gap) {
      best_gap = gap;
      summary.p99_at_halfpeak_ns = p.p99_ns;
    }
  }
  if (best_gap < 0.0 && !summary.points.empty()) {
    summary.p99_at_halfpeak_ns = summary.points.front().p99_ns;
  }
  if (summary.peak_qps <= 0.0) summary.ok = false;
  std::printf("%s: peak=%.0f qps, p99@halfpeak=%llu ns\n", label, summary.peak_qps,
              static_cast<unsigned long long>(summary.p99_at_halfpeak_ns));
  return summary;
}

void print_ladder(bench::Harness& harness, const char* label, const LadderSummary& s) {
  TextTable table({"offered_qps", "achieved_qps", "completed", "rejected", "p50_ns", "p99_ns"});
  for (const LadderPoint& p : s.points) {
    table.add_row({fmt_double(p.offered_qps, 0), fmt_double(p.achieved_qps, 0),
                   std::to_string(p.completed), std::to_string(p.rejected),
                   std::to_string(p.p50_ns), std::to_string(p.p99_ns)});
  }
  harness.print(table, std::string("open-loop ladder: ") + label);
}

/// Virtual-time semantics: sub-capacity traffic sheds nothing; overload
/// against a small queue sheds deterministically; two identical overload
/// runs agree byte-for-byte on everything the determinism contract names.
bool run_virtual_checks(const Graph& g, const DistanceOracle& oracle,
                        const bench::Harness& harness, Tracer& tracer) {
  bool ok = true;
  serve::ServerConfig config = base_config(harness);
  config.workers = 4;
  config.batch = 32;
  config.timing = serve::TimingMode::kVirtual;
  config.virtual_service_ns = 1000;  // 1M queries/s/worker simulated capacity

  config.qps = 200e3;  // well under 4 workers x 1M/s
  config.admission = serve::AdmissionPolicy::kShed;
  {
    const serve::ServerResult r = serve::run_server_on(g, oracle, config, &tracer);
    if (r.rejected != 0 || r.completed != r.offered) {
      std::printf("virtual sub-capacity: unexpected shedding (rejected=%llu)\n",
                  static_cast<unsigned long long>(r.rejected));
      ok = false;
    }
  }

  config.qps = 16e6;  // 4x the simulated capacity; the small queue must shed
  config.ring_capacity = 256;
  const serve::ServerResult first = serve::run_server_on(g, oracle, config, &tracer);
  const serve::ServerResult second = serve::run_server_on(g, oracle, config, &tracer);
  if (first.rejected == 0) {
    std::printf("virtual overload: expected shedding, saw none\n");
    ok = false;
  }
  const bool identical =
      first.rejected == second.rejected && first.completed == second.completed &&
      first.checksum == second.checksum && first.reachable == second.reachable &&
      first.latency_ns.quantile(0.5) == second.latency_ns.quantile(0.5) &&
      first.latency_ns.quantile(0.99) == second.latency_ns.quantile(0.99) &&
      first.queue_depth.quantile(0.99) == second.queue_depth.quantile(0.99) &&
      first.windows.size() == second.windows.size();
  if (!identical) {
    std::printf("virtual overload: two identical runs DISAGREE\n");
    ok = false;
  }
  std::printf("virtual: subcap clean, overload rejected=%llu/%llu, rerun %s\n",
              static_cast<unsigned long long>(first.rejected),
              static_cast<unsigned long long>(first.offered),
              identical ? "identical" : "DIVERGED");
  return ok;
}

}  // namespace
}  // namespace hublab

int main(int argc, char** argv) {
  using namespace hublab;
  bench::Harness harness(argc, argv, "serve_scaling",
                         "Experiment PRACT: open-loop serve scaling (shard workers over the "
                         "batched kernel)");

  Rng rng(3);
  const Graph g = gen::connected_gnm(2000, 4000, rng);
  harness.add_graph("connected-gnm", g.num_vertices(), g.num_edges());

  std::unique_ptr<DistanceOracle> oracle;
  {
    auto span = harness.phase("build-oracle");
    oracle = serve::make_oracle(g, serve::OracleKind::kPllFlat, harness.pll_config());
  }

  LadderSummary scalar1w;
  {
    auto span = harness.phase("wall-ladder-scalar1w");
    scalar1w = run_ladder(g, *oracle, harness, "scalar1w", 1, 1, harness.tracer());
  }
  LadderSummary batch4w;
  {
    auto span = harness.phase("wall-ladder-batch4w");
    batch4w = run_ladder(g, *oracle, harness, "batch4w", 4, 32, harness.tracer());
  }
  print_ladder(harness, "scalar1w", scalar1w);
  print_ladder(harness, "batch4w", batch4w);

  bool virtual_ok = false;
  {
    auto span = harness.phase("virtual-determinism");
    virtual_ok = run_virtual_checks(g, *oracle, harness, harness.tracer());
  }

  // The serve runs kept the registry untouched (register_metrics=false),
  // but the PLL build and the batch kernel registered timing-dependent
  // counters (query.batch.calls varies with block sizes).  Zero
  // everything, then set only the deterministic headline gauges, so the
  // committed baseline diff is meaningful.
  metrics::registry().reset();
  metrics::Registry& reg = metrics::registry();
  const auto commit = [&reg](const std::string& label, const LadderSummary& s) {
    reg.gauge("pract.serve_peak_qps." + label).set(static_cast<std::int64_t>(s.peak_qps));
    reg.gauge("pract.serve_p99_at_halfpeak_ns." + label)
        .set(static_cast<std::int64_t>(s.p99_at_halfpeak_ns));
  };
  commit("scalar1w", scalar1w);
  commit("batch4w", batch4w);
  // The cross-config ratio is printed, not committed: on few-core hosts
  // the two peaks time-slice the same cores and their quotient is pure
  // scheduler noise, far outside any honest structural threshold.
  if (batch4w.peak_qps > 0.0) {
    std::printf("scalar1w peak is %.0f%% of batch4w peak\n",
                100.0 * scalar1w.peak_qps / batch4w.peak_qps);
  }

  const bool ok = scalar1w.ok && batch4w.ok && virtual_ok;
  return harness.finish("PRACT serve scaling", ok);
}
