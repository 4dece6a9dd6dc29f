/// \file bench_pll_orderings.cpp
/// Ablation: how the PLL vertex order drives label size (DESIGN.md calls
/// out the order as the key design choice; the paper's related work notes
/// that practical schemes hinge on choosing good hubs).
///
/// Families where the answer differs: scale-free (degree order shines),
/// grids/roads (betweenness shines, natural order is poor), random regular
/// (no signal -- everything is similar), the adversarial gadget (nothing
/// helps, by Theorem 2.1).

#include <cmath>
#include <cstdio>

#include "bench/harness.hpp"
#include "graph/generators.hpp"
#include "hub/order.hpp"
#include "hub/pll.hpp"
#include "hub/simd_kernel.hpp"
#include "lowerbound/gadget.hpp"
#include "oracle/contraction_hierarchy.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace hublab;

namespace {

double avg_for_order(const Graph& g, const std::vector<Vertex>& order, const PllConfig& config) {
  return pruned_landmark_labeling(g, order, config).average_label_size();
}

}  // namespace

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "pll_orderings",
                         "Ablation: PLL vertex orderings across graph families");

  // The cover kernel every build below runs (the graphs are far below the
  // gathers' index limit, so it is the active tier).
  std::printf("pll cover: tier=%s\n", simd::tier_name(simd::active_tier()));

  TextTable table({"family", "n", "m", "degree", "betweenness~", "random", "natural",
                   "CH-derived"});

  struct Family {
    std::string name;
    Graph graph;
  };
  const std::size_t n = harness.smoke() ? 200 : 600;
  std::vector<Family> families;
  {
    Rng rng(1);
    families.push_back({"barabasi-albert k=3", gen::barabasi_albert(n, 3, rng)});
  }
  {
    Rng rng(2);
    families.push_back({"road-like 24x24", gen::road_like(24, 24, 0.2, 9, rng)});
  }
  {
    Rng rng(3);
    families.push_back({"random 3-regular", gen::random_regular(n, 3, rng)});
  }
  {
    Rng rng(4);
    families.push_back({"gnm m=2n", gen::connected_gnm(n, 2 * n, rng)});
  }
  families.push_back({"gadget H_{3,2}", lb::LayeredGadget(lb::GadgetParams{3, 2}).graph()});
  if (!harness.smoke()) families.push_back({"grid 25x25", gen::grid(25, 25)});

  for (const auto& f : families) {
    const Graph& g = f.graph;
    harness.add_graph(f.name, g.num_vertices(), g.num_edges());
    auto family_span = harness.phase("orderings-" + f.name);
    Rng bt_rng(7);
    const auto bt_order = betweenness_order(g, std::min<std::size_t>(64, g.num_vertices()), bt_rng);
    // Hub labels read off a contraction hierarchy (the CH ordering is its
    // own heuristic; Section 1.1's point that CH reduces to hub labeling).
    const double ch_avg = ContractionHierarchy(g).extract_hub_labeling().average_label_size();
    const PllConfig pll = harness.pll_config();
    table.add_row({f.name, fmt_u64(g.num_vertices()), fmt_u64(g.num_edges()),
                   fmt_double(avg_for_order(g, make_vertex_order(g, VertexOrder::kDegreeDescending), pll), 2),
                   fmt_double(avg_for_order(g, bt_order, pll), 2),
                   fmt_double(avg_for_order(g, make_vertex_order(g, VertexOrder::kRandom, 11), pll), 2),
                   fmt_double(avg_for_order(g, make_vertex_order(g, VertexOrder::kNatural), pll), 2),
                   fmt_double(ch_avg, 2)});
  }
  harness.print(table, "average |S(v)| by PLL order (all labelings exact by construction)");

  // Construction kernel at construction scale, reported as build time per
  // label entry: the random 3-regular graph is the weak-hierarchy family
  // the Theorem 4.1 / RS pipelines rebuild labelings on (pruned BFS), the
  // road-like grid is weighted (pruned Dijkstra).  The `_ns` suffix puts
  // both gauges in bench-compare's wall-clock class, which gates increases.
  const auto build_ns_per_entry = [&](const char* name, const Graph& g) {
    harness.add_graph(name, g.num_vertices(), g.num_edges());
    const auto order = make_vertex_order(g, VertexOrder::kDegreeDescending);
    const std::size_t reps = harness.smoke() ? 2 : 3;
    double secs = 0.0;
    std::size_t entries = 0;
    for (std::size_t r = 0; r < reps; ++r) {
      Timer t;
      const HubLabeling labels = pruned_landmark_labeling(g, order, harness.pll_config());
      secs += t.elapsed_s();
      entries += labels.total_hubs();
    }
    const std::int64_t ns = std::llround(1e9 * secs / static_cast<double>(entries));
    std::printf("\n%s: PLL build %lld ns per label entry (n=%zu, %zu entries)\n", name,
                static_cast<long long>(ns), g.num_vertices(), entries / reps);
    return ns;
  };
  {
    auto span = harness.phase("pll-build");
    Rng regular_rng(5);
    const Graph regular = gen::random_regular(harness.smoke() ? 2000 : 3000, 3, regular_rng);
    Rng road_rng(6);
    const Graph road = gen::road_like(40, 40, 0.2, 10, road_rng);
    metrics::Registry& reg = metrics::registry();
    reg.gauge("pract.pll_build_entry_ns.regular3")
        .set(build_ns_per_entry("random 3-regular (kernel)", regular));
    reg.gauge("pract.pll_build_entry_ns.road")
        .set(build_ns_per_entry("road-like 40x40 (kernel)", road));
  }

  std::printf("\nNote the gadget row: per Theorem 2.1 no ordering can make its labels small.\n");
  return harness.finish("PLL ordering ablation", true);
}
