/// \file bench_query_oracles.cpp
/// Experiment PRACT (DESIGN.md): "hub labeling in practice" (Section 1.1 of
/// the paper) -- microbenchmarks of exact distance-query strategies on
/// road-like and random sparse graphs, using google-benchmark.
///
/// Expected shape: hub-label queries are orders of magnitude faster than
/// Dijkstra-style searches, at the cost of preprocessed space -- the
/// tradeoff the paper's oracle discussion formalizes.
///
/// Unlike the table benches this one drives google-benchmark, so main()
/// registers the cases explicitly (capped iteration counts under --smoke)
/// and forwards only benchmark's own flags to its parser.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "algo/shortest_paths.hpp"
#include "bench/harness.hpp"
#include "graph/generators.hpp"
#include "hub/flat_labeling.hpp"
#include "hub/pll.hpp"
#include "hub/simd_kernel.hpp"
#include "oracle/oracle.hpp"
#include "oracle/workload.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace hublab {
namespace {

/// Pairs per workload; pair streams come from the same WorkloadGenerator
/// `hublab serve` serves (oracle/workload.hpp), generated once per family and
/// shared by every phase.  Power of two so the google-benchmark loops can
/// mask instead of dividing.
constexpr std::size_t kQueryPairs = 1024;
static_assert((kQueryPairs & (kQueryPairs - 1)) == 0);

struct Workload {
  Graph graph;
  HubLabeling labels;
  FlatHubLabeling flat;
  std::vector<std::pair<Vertex, Vertex>> queries;
};

const Workload& road_workload() {
  static const Workload w = [] {
    Workload wl;
    Rng rng(1);
    wl.graph = gen::road_like(40, 40, 0.15, 10, rng);
    wl.labels = pruned_landmark_labeling(wl.graph);
    wl.flat = FlatHubLabeling(wl.labels);
    wl.queries =
        serve::WorkloadGenerator(wl.graph, serve::WorkloadKind::kUniform, 2).block(kQueryPairs);
    return wl;
  }();
  return w;
}

/// Local pairs on the road graph: long target labels that share most of
/// their hubs with the source label, so the SIMD probes fold many hits per
/// step.
const std::vector<std::pair<Vertex, Vertex>>& road_near_queries() {
  static const std::vector<std::pair<Vertex, Vertex>> q =
      serve::WorkloadGenerator(road_workload().graph, serve::WorkloadKind::kNear, 6)
          .block(kQueryPairs);
  return q;
}

const Workload& sparse_workload() {
  static const Workload w = [] {
    Workload wl;
    Rng rng(3);
    wl.graph = gen::connected_gnm(2000, 4000, rng);
    wl.labels = pruned_landmark_labeling(wl.graph);
    wl.flat = FlatHubLabeling(wl.labels);
    wl.queries =
        serve::WorkloadGenerator(wl.graph, serve::WorkloadKind::kUniform, 4).block(kQueryPairs);
    return wl;
  }();
  return w;
}

void bm_hub_query(benchmark::State& state, const Workload& w) {
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [u, v] = w.queries[i++ & (kQueryPairs - 1)];
    benchmark::DoNotOptimize(w.labels.query(u, v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void bm_flat_query(benchmark::State& state, const Workload& w) {
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [u, v] = w.queries[i++ & (kQueryPairs - 1)];
    benchmark::DoNotOptimize(w.flat.query(u, v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void bm_bidirectional(benchmark::State& state, const Workload& w) {
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [u, v] = w.queries[i++ & (kQueryPairs - 1)];
    benchmark::DoNotOptimize(bidirectional_distance(w.graph, u, v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void bm_full_sssp(benchmark::State& state, const Workload& w) {
  std::size_t i = 0;
  for (auto _ : state) {
    const auto [u, v] = w.queries[i++ & (kQueryPairs - 1)];
    benchmark::DoNotOptimize(sssp_distances(w.graph, u)[v]);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void bm_pll_construction(benchmark::State& state) {
  Rng rng(5);
  const Graph g = gen::connected_gnm(static_cast<std::size_t>(state.range(0)),
                                     static_cast<std::size_t>(2 * state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pruned_landmark_labeling(g));
  }
}

void register_benchmarks(bool smoke) {
  using Fn = void (*)(benchmark::State&, const Workload&);
  struct QueryCase {
    const char* name;
    Fn fn;
    const Workload& (*workload)();
    std::int64_t smoke_iterations;  ///< 0 = let benchmark pick, even in smoke
  };
  const std::vector<QueryCase> cases{
      {"bm_hub_query/road40x40", &bm_hub_query, &road_workload, 256},
      {"bm_flat_query/road40x40", &bm_flat_query, &road_workload, 256},
      {"bm_bidirectional/road40x40", &bm_bidirectional, &road_workload, 16},
      {"bm_full_sssp/road40x40", &bm_full_sssp, &road_workload, 4},
      {"bm_hub_query/gnm2000", &bm_hub_query, &sparse_workload, 256},
      {"bm_flat_query/gnm2000", &bm_flat_query, &sparse_workload, 256},
      {"bm_bidirectional/gnm2000", &bm_bidirectional, &sparse_workload, 16},
      {"bm_full_sssp/gnm2000", &bm_full_sssp, &sparse_workload, 4},
  };
  for (const QueryCase& c : cases) {
    auto* b = benchmark::RegisterBenchmark(
        c.name, [fn = c.fn, wl = c.workload](benchmark::State& s) { fn(s, wl()); });
    if (smoke) {
      b->Iterations(c.smoke_iterations);
    } else if (std::strstr(c.name, "bm_full_sssp") != nullptr) {
      b->Iterations(200);
    }
  }
  auto* pll = benchmark::RegisterBenchmark("bm_pll_construction", &bm_pll_construction)
                  ->Unit(benchmark::kMillisecond);
  if (smoke) {
    pll->Arg(250)->Iterations(1);
  } else {
    pll->Arg(250)->Arg(500)->Arg(1000);
  }
}

/// Vector-label vs flat-label merge on the *same* labeling: equal answers
/// (checksummed) and a relative timing.  The gauge records flat time as a
/// percent of vector time — lower is better, so bench-compare's
/// increase-only gate fires exactly when the flat kernel's advantage
/// erodes.  Byte gauges expose the AoS-vs-SoA space cost side by side.
bool run_flat_phase(bench::Harness& harness, const char* family, const Workload& w) {
  const std::size_t passes = harness.smoke() ? 32 : 256;
  std::uint64_t vector_sum = 0;
  std::uint64_t flat_sum = 0;

  Timer vector_timer;
  for (std::size_t p = 0; p < passes; ++p) {
    for (const auto& [u, v] : w.queries) {
      const Dist d = w.labels.query(u, v);
      if (d != kInfDist) vector_sum += d;
    }
  }
  const double vector_s = vector_timer.elapsed_s();

  Timer flat_timer;
  for (std::size_t p = 0; p < passes; ++p) {
    for (const auto& [u, v] : w.queries) {
      const Dist d = w.flat.query(u, v);
      if (d != kInfDist) flat_sum += d;
    }
  }
  const double flat_s = flat_timer.elapsed_s();

  const double pct = vector_s > 0.0 ? 100.0 * flat_s / vector_s : 100.0;
  metrics::Registry& reg = metrics::registry();
  reg.gauge(std::string("pract.flat_query_pct_of_vector.") + family)
      .set(static_cast<std::int64_t>(pct));
  reg.gauge(std::string("pract.label_bytes.") + family)
      .set(static_cast<std::int64_t>(w.labels.memory_bytes()));
  reg.gauge(std::string("pract.flat_label_bytes.") + family)
      .set(static_cast<std::int64_t>(w.flat.memory_bytes()));
  std::printf("flat/%s: vector=%.3fms flat=%.3fms (%.0f%%), bytes %zu -> %zu, checksums %s\n",
              family, vector_s * 1e3, flat_s * 1e3, pct, w.labels.memory_bytes(),
              w.flat.memory_bytes(), vector_sum == flat_sum ? "agree" : "DISAGREE");
  return vector_sum == flat_sum;
}

/// Batched vs per-query flat kernel on the same pairs: the headline gauge
/// `pract.batch_query_pct_of_scalar.<family>` records the batched block's
/// wall time as a percent of the one-query-at-a-time loop, and
/// `pract.batch1_query_pct_of_scalar.<family>` the same pairs answered as
/// one-pair query_batch calls — the block a lightly loaded server worker
/// drains (lower is better for both; bench-compare's increase-only gate
/// fires when the batched kernel's advantage erodes).  Before timing, every
/// host-supported dispatch tier is swept over the full block and checked
/// byte-identical — distance AND meeting hub — against per-query
/// query_with_hub.
bool run_batch_phase(bench::Harness& harness, const char* family, const FlatHubLabeling& flat,
                     std::span<const std::pair<Vertex, Vertex>> pairs) {
  const std::size_t passes = harness.smoke() ? 32 : 256;
  std::vector<HubQueryResult> answers(pairs.size());

  bool identical = true;
  for (const simd::Tier tier : simd::supported_tiers()) {
    flat.query_batch_tier(pairs, answers, tier);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const HubQueryResult ref = flat.query_with_hub(pairs[i].first, pairs[i].second);
      if (answers[i].dist != ref.dist || answers[i].meeting_hub != ref.meeting_hub) {
        std::printf("batch/%s: tier=%s pair %zu DISAGREES with query_with_hub\n", family,
                    simd::tier_name(tier), i);
        identical = false;
        break;
      }
    }
  }

  std::uint64_t scalar_sum = 0;
  Timer scalar_timer;
  for (std::size_t p = 0; p < passes; ++p) {
    for (const auto& [u, v] : pairs) {
      const Dist d = flat.query(u, v);
      if (d != kInfDist) scalar_sum += d;
    }
  }
  const double scalar_s = scalar_timer.elapsed_s();

  std::uint64_t batch_sum = 0;
  Timer batch_timer;
  for (std::size_t p = 0; p < passes; ++p) {
    flat.query_batch(pairs, answers);
    for (const HubQueryResult& r : answers) {
      if (r.dist != kInfDist) batch_sum += r.dist;
    }
  }
  const double batch_s = batch_timer.elapsed_s();

  std::uint64_t batch1_sum = 0;
  HubQueryResult one;
  Timer batch1_timer;
  for (std::size_t p = 0; p < passes; ++p) {
    for (const std::pair<Vertex, Vertex>& pair : pairs) {
      flat.query_batch({&pair, 1}, {&one, 1});
      if (one.dist != kInfDist) batch1_sum += one.dist;
    }
  }
  const double batch1_s = batch1_timer.elapsed_s();

  const double pct = scalar_s > 0.0 ? 100.0 * batch_s / scalar_s : 100.0;
  const double pct1 = scalar_s > 0.0 ? 100.0 * batch1_s / scalar_s : 100.0;
  metrics::Registry& reg = metrics::registry();
  reg.gauge("pract.batch_query_pct_of_scalar." + std::string(family))
      .set(static_cast<std::int64_t>(pct));
  reg.gauge("pract.batch1_query_pct_of_scalar." + std::string(family))
      .set(static_cast<std::int64_t>(pct1));
  reg.gauge("pract.query_pairs." + std::string(family))
      .set(static_cast<std::int64_t>(pairs.size()));
  const bool sums_agree = scalar_sum == batch_sum && scalar_sum == batch1_sum;
  std::printf(
      "batch/%s: scalar=%.3fms batch=%.3fms (%.0f%%) batch1=%.3fms (%.0f%%), checksums %s\n",
      family, scalar_s * 1e3, batch_s * 1e3, pct, batch1_s * 1e3, pct1,
      sums_agree ? "agree" : "DISAGREE");
  return identical && sums_agree;
}

/// With --perf-counters on a perf-capable host: LLC misses per thousand
/// hub queries over a fixed sweep, the cache-residency number behind the
/// flat-vs-vector comparison (a hub query is a scan of two label arrays,
/// so LLC misses *are* its cost model).  Silently skipped when counters
/// are unavailable — the gauge simply doesn't appear.
void run_llc_phase(bench::Harness& harness, const char* family, const Workload& w) {
  if (!perf::enabled()) return;
  const std::size_t passes = harness.smoke() ? 8 : 64;
  perf::HwCounters hw;
  std::uint64_t queries = 0;
  {
    perf::ScopedHw scope(hw);
    for (std::size_t p = 0; p < passes; ++p) {
      for (const auto& [u, v] : w.queries) {
        benchmark::DoNotOptimize(w.flat.query(u, v));
        ++queries;
      }
    }
  }
  if (!hw.valid || queries == 0) return;
  const double per_kquery =
      1000.0 * static_cast<double>(hw.llc_misses) / static_cast<double>(queries);
  metrics::registry()
      .gauge(std::string("pract.llc_miss_per_kquery.") + family)
      .set(static_cast<std::int64_t>(per_kquery));
  std::printf("llc/%s: %llu queries, %.1f LLC misses per kquery (ipc %.2f)\n", family,
              static_cast<unsigned long long>(queries), per_kquery, hw.ipc());
}

}  // namespace
}  // namespace hublab

int main(int argc, char** argv) {
  hublab::bench::Harness harness(
      argc, argv, "query_oracles",
      "Experiment PRACT: exact distance-query microbenchmarks (google-benchmark)");

  // Forward only benchmark's own flags; the harness flags are not its.
  std::vector<char*> bm_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_", 12) == 0) bm_argv.push_back(argv[i]);
  }
  int bm_argc = static_cast<int>(bm_argv.size());
  benchmark::Initialize(&bm_argc, bm_argv.data());

  hublab::register_benchmarks(harness.smoke());
  harness.add_graph("road-like-40x40", hublab::road_workload().graph.num_vertices(),
                    hublab::road_workload().graph.num_edges());
  harness.add_graph("connected-gnm", hublab::sparse_workload().graph.num_vertices(),
                    hublab::sparse_workload().graph.num_edges());

  std::size_t ran = 0;
  {
    auto run_span = harness.phase("run-benchmarks");
    ran = benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();

  bool flat_ok = true;
  {
    auto flat_span = harness.phase("flat-vs-vector");
    flat_ok = hublab::run_flat_phase(harness, "road40x40", hublab::road_workload());
    flat_ok = hublab::run_flat_phase(harness, "gnm2000", hublab::sparse_workload()) && flat_ok;
  }
  bool batch_ok = true;
  {
    auto batch_span = harness.phase("batch-vs-scalar");
    std::printf("batch kernel: tier=%s\n",
                hublab::simd::tier_name(hublab::simd::active_tier()));
    const hublab::Workload& road = hublab::road_workload();
    const hublab::Workload& sparse = hublab::sparse_workload();
    batch_ok = hublab::run_batch_phase(harness, "road40x40", road.flat, road.queries);
    batch_ok = hublab::run_batch_phase(harness, "road40x40_near", road.flat,
                                       hublab::road_near_queries()) &&
               batch_ok;
    batch_ok = hublab::run_batch_phase(harness, "gnm2000", sparse.flat, sparse.queries) && batch_ok;
  }
  {
    auto llc_span = harness.phase("llc-miss-scan");
    hublab::run_llc_phase(harness, "road40x40", hublab::road_workload());
    hublab::run_llc_phase(harness, "gnm2000", hublab::sparse_workload());
  }
  return harness.finish("PRACT microbench", ran > 0 && flat_ok && batch_ok);
}
