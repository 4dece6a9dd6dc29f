/// \file road_grid_oracle.cpp
/// Domain example: exact point-to-point distances on a synthetic road
/// network (weighted grid with shortcuts), comparing the oracle options a
/// routing service would choose between.  This is the "hub labeling in
/// practice" story of Section 1.1 of the paper.
///
/// Usage: road_grid_oracle [rows] [cols]   (defaults: 30 30)

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "algo/shortest_paths.hpp"
#include "graph/generators.hpp"
#include "hub/pll.hpp"
#include "oracle/oracle.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace hublab;

int main(int argc, char** argv) {
  std::size_t rows = 30;
  std::size_t cols = 30;
  if (argc > 1) rows = static_cast<std::size_t>(std::atoi(argv[1]));
  if (argc > 2) cols = static_cast<std::size_t>(std::atoi(argv[2]));

  Rng rng(7);
  const Graph g = gen::road_like(rows, cols, /*shortcut_prob=*/0.2, /*max_weight=*/10, rng);
  std::printf("road network: %zux%zu grid with shortcuts -> n=%zu m=%zu\n", rows, cols,
              g.num_vertices(), g.num_edges());

  Timer build;
  const HubLabeling labels = pruned_landmark_labeling(g);
  std::printf("PLL preprocessing: %.2f ms, avg label %.1f hubs, %zu KiB\n", build.elapsed_ms(),
              labels.average_label_size(), labels.memory_bytes() / 1024);

  const FlatHubLabelOracle hub_oracle(labels);
  const BidirectionalOracle bidir(g);

  Rng pick(8);
  std::vector<std::pair<Vertex, Vertex>> queries;
  for (int i = 0; i < 1000; ++i) {
    queries.emplace_back(static_cast<Vertex>(pick.next_below(g.num_vertices())),
                         static_cast<Vertex>(pick.next_below(g.num_vertices())));
  }

  // Cross-check and time both strategies.
  std::size_t agree = 0;
  Timer t_hub;
  std::uint64_t sink = 0;
  for (const auto& [u, v] : queries) sink += hub_oracle.distance(u, v);
  const double hub_us = t_hub.elapsed_s() * 1e6 / static_cast<double>(queries.size());

  Timer t_bidir;
  for (const auto& [u, v] : queries) {
    if (bidir.distance(u, v) == hub_oracle.distance(u, v)) ++agree;
  }
  const double bidir_us = t_bidir.elapsed_s() * 1e6 / static_cast<double>(queries.size());

  TextTable table({"strategy", "prep space (KiB)", "avg query (us)", "agreement"});
  table.add_row({"hub labels (PLL)", fmt_u64(hub_oracle.space_bytes() / 1024),
                 fmt_double(hub_us, 2), fmt_u64(agree) + "/1000"});
  table.add_row({"bidirectional dijkstra", "0", fmt_double(bidir_us, 2), "(reference)"});
  table.print(std::cout, "routing strategies");

  // Show one concrete route.
  const Vertex s = 0;
  const Vertex t = static_cast<Vertex>(g.num_vertices() - 1);
  const SsspResult tree = sssp(g, s);
  const auto path = extract_path(tree, s, t);
  std::printf("\nsample route corner-to-corner: length %llu, %zu hops, via hub %u\n",
              static_cast<unsigned long long>(tree.dist[t]), path.size() - 1,
              hub_oracle.labeling().query_with_hub(s, t).meeting_hub);
  (void)sink;
  return agree == queries.size() ? 0 : 1;
}
