#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

/// \file workload.hpp
/// Deterministic query-pair generation, shared by the query server
/// (oracle/server.hpp), the query microbenches (bench_query_oracles) and
/// tests — one implementation, so "the same workload" means the same
/// pairs everywhere a gauge compares two query paths.
///
/// Workloads (all deterministic given the seed):
///  - `uniform`: independent uniform endpoints — the adversarial baseline;
///  - `zipf`:    endpoints drawn from a Zipf(~1.0) popularity ranking over
///               vertex ids, approximating skewed production traffic;
///  - `near`:    u uniform, v the endpoint of a short random walk from u
///               (1..4 hops) — local queries, the PLL fast path;
///  - `far`:     endpoints from opposite distance quartiles of a BFS/
///               Dijkstra sweep — long-range queries, the worst case the
///               lower-bound gadgets are built from.

namespace hublab::serve {

enum class WorkloadKind { kUniform, kZipf, kNear, kFar };

[[nodiscard]] std::string_view workload_kind_name(WorkloadKind kind) noexcept;
[[nodiscard]] std::optional<WorkloadKind> parse_workload_kind(std::string_view name) noexcept;

/// Deterministic query-pair generator for one workload (exposed for tests
/// and future replay tooling).  Pairs are over [0, n); the graph is needed
/// for the near/far structure.
class WorkloadGenerator {
 public:
  WorkloadGenerator(const Graph& g, WorkloadKind kind, std::uint64_t seed);

  /// Next (source, target) pair.
  [[nodiscard]] std::pair<Vertex, Vertex> next();

  /// `count` pairs in one block (the batched-query benches).
  [[nodiscard]] std::vector<std::pair<Vertex, Vertex>> block(std::size_t count);

 private:
  [[nodiscard]] Vertex zipf_vertex();
  [[nodiscard]] Vertex walk_from(Vertex u);

  const Graph& g_;
  WorkloadKind kind_;
  Rng rng_;
  std::vector<double> zipf_cdf_;       ///< cumulative popularity, zipf only
  std::vector<Vertex> near_pool_;      ///< far workload: bottom distance quartile
  std::vector<Vertex> far_pool_;       ///< far workload: top distance quartile
};

}  // namespace hublab::serve
