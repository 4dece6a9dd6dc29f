/// \file bench_oracle_tradeoff.cpp
/// Experiment TRADEOFF (DESIGN.md): the space/time landscape of exact
/// distance oracles the paper's introduction discusses (S*T ~ n^2 endpoints
/// are trivial; the open middle is what hub labelings would give -- and
/// Theorem 1.1 limits how good hub-label-based points can be on sparse
/// graphs).
///
/// For each oracle: preprocessed space, measured average query time over a
/// fixed query set, and the S*T product.  The landmark oracle is inexact;
/// its observed stretch is reported instead of assumed.

#include <cstdio>
#include <memory>
#include <vector>

#include "algo/distance_matrix.hpp"
#include "bench/harness.hpp"
#include "graph/generators.hpp"
#include "hub/pll.hpp"
#include "oracle/alt.hpp"
#include "oracle/arc_flags.hpp"
#include "oracle/contraction_hierarchy.hpp"
#include "oracle/oracle.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace hublab;

namespace {

void run_workload(bench::Harness& harness, const Graph& g, const char* family,
                  const char* name) {
  const std::size_t n = g.num_vertices();
  harness.add_graph(family, g.num_vertices(), g.num_edges());
  Rng pick(42);
  std::vector<std::pair<Vertex, Vertex>> queries;
  const int num_queries = harness.smoke() ? 400 : 2000;
  for (int i = 0; i < num_queries; ++i) {
    queries.emplace_back(static_cast<Vertex>(pick.next_below(n)),
                         static_cast<Vertex>(pick.next_below(n)));
  }
  const DistanceMatrix truth = DistanceMatrix::compute(g);

  std::vector<std::unique_ptr<DistanceOracle>> oracles;
  {
    auto build_span = harness.phase(std::string("build-oracles-") + family);
    oracles.push_back(std::make_unique<ApspOracle>(g));
    oracles.push_back(std::make_unique<FlatHubLabelOracle>(pruned_landmark_labeling(g)));
    oracles.push_back(std::make_unique<ContractionHierarchy>(g));
    oracles.push_back(std::make_unique<ArcFlagsOracle>(g, 16));
    oracles.push_back(std::make_unique<AltOracle>(g, farthest_landmarks(g, 8)));
    oracles.push_back(std::make_unique<BidirectionalOracle>(g));
    oracles.push_back(std::make_unique<SsspOracle>(g));
    std::vector<Vertex> landmarks;
    for (Vertex v = 0; v < 16 && v < n; ++v) {
      landmarks.push_back(static_cast<Vertex>(v * (n / 16)));
    }
    oracles.push_back(std::make_unique<LandmarkOracle>(g, landmarks));
  }

  auto query_span = harness.phase(std::string("query-oracles-") + family);
  TextTable table({"oracle", "space (KiB)", "avg query (us)", "S*T (KiB*us)", "exact %",
                   "avg stretch"});
  for (const auto& oracle : oracles) {
    // The on-demand oracles are slow; subsample their query load.
    const bool fast = oracle->name() == "apsp-table" || oracle->name() == "hub-labels-flat" ||
                      oracle->name() == "landmarks-upper-bound";
    const std::size_t step = fast ? 1 : 40;

    std::size_t used = 0;
    std::size_t exact = 0;
    double stretch_sum = 0.0;
    std::size_t stretch_count = 0;
    Timer timer;
    for (std::size_t i = 0; i < queries.size(); i += step) {
      const auto [u, v] = queries[i];
      const Dist d = oracle->distance(u, v);
      ++used;
      const Dist t = truth.at(u, v);
      if (d == t) ++exact;
      if (t != kInfDist && t > 0 && d != kInfDist) {
        stretch_sum += static_cast<double>(d) / static_cast<double>(t);
        ++stretch_count;
      }
    }
    const double per_query_us = timer.elapsed_s() * 1e6 / static_cast<double>(used);
    const double space_kib = static_cast<double>(oracle->space_bytes()) / 1024.0;
    table.add_row({oracle->name(), fmt_double(space_kib, 1), fmt_double(per_query_us, 2),
                   fmt_double(space_kib * per_query_us, 1),
                   fmt_double(100.0 * static_cast<double>(exact) / static_cast<double>(used), 1),
                   stretch_count > 0 ? fmt_double(stretch_sum / static_cast<double>(stretch_count), 3)
                                     : "-"});
  }
  query_span.end();
  harness.print(table, std::string("Oracle space/time tradeoff on ") + name);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "oracle_tradeoff",
                         "Experiment TRADEOFF: exact-distance oracle landscape");
  {
    const Graph g = harness.smoke() ? gen::grid(16, 16) : gen::grid(32, 32);
    run_workload(harness, g, "grid", harness.smoke() ? "grid 16x16 (n=256)" : "grid 32x32 (n=1024)");
  }
  {
    Rng rng(7);
    const Graph g = harness.smoke() ? gen::connected_gnm(500, 1000, rng)
                                    : gen::connected_gnm(1500, 3000, rng);
    run_workload(harness, g, "connected-gnm",
                 harness.smoke() ? "connected G(n,m) n=500 m=1000"
                                 : "connected G(n,m) n=1500 m=3000");
  }
  return harness.finish("TRADEOFF experiment", true);
}
