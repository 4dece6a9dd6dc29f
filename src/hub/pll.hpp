#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "hub/labeling.hpp"

/// \file pll.hpp
/// Pruned Landmark Labeling (Akiba, Iwata, Yoshida; SIGMOD'13): the standard
/// practical hub-labeling construction.  Processes vertices in a fixed order
/// of decreasing importance; the k-th vertex runs a BFS/Dijkstra pruned at
/// every vertex already answered correctly by the first k-1 hubs.
///
/// PLL yields a *canonical* labeling for its order: it is exact (a
/// shortest-path cover) and minimal in the sense that no entry can be
/// dropped without breaking exactness for that order.  The paper's related
/// work positions hub labeling practice around exactly this family of
/// constructions, so PLL is the measurement yardstick in our benches.
///
/// Construction kernel (docs/performance.md, "The construction kernel"):
/// the builder keeps each in-progress label as one contiguous row in rank
/// order, with 8-byte entries whenever the graph bounds every distance
/// below 2^32 - 1, and answers every prune test with one scan of that row
/// by the cover kernel of the active ISA tier (`simd::CoverFn`; the
/// 16-byte rows take the scalar scan).  The weighted search pops from a
/// monotone radix heap.  The produced labels are invariant in
/// `PllConfig::threads`, the ISA tier and the queue's order among equal
/// keys.

namespace hublab {

enum class VertexOrder {
  kDegreeDescending,  ///< classic heuristic; good on scale-free graphs
  kNatural,           ///< vertex id order (deterministic baseline)
  kRandom,            ///< uniform random order (seeded)
};

/// Compute the processing order.
std::vector<Vertex> make_vertex_order(const Graph& g, VertexOrder order, std::uint64_t seed = 0);

/// Default root count of a standalone BitParallelRoots table build.
inline constexpr std::size_t kPllDefaultBpRoots = 64;

/// Construction-time knobs.  Every setting is a pure performance knob: the
/// produced labeling is byte-identical for every combination.
struct PllConfig {
  /// Worker threads for the prune scan of large BFS frontiers.  0 defers
  /// to HUBLAB_THREADS (util/parallel.hpp); label commits stay in frontier
  /// order, so the labeling does not depend on this.
  std::size_t threads = 1;
};

/// Build a PLL labeling using the given precomputed order (a permutation of
/// the vertices; order[0] is the most important vertex).
HubLabeling pruned_landmark_labeling(const Graph& g, const std::vector<Vertex>& order,
                                     const PllConfig& config = {});

/// Convenience overload choosing the order internally.
HubLabeling pruned_landmark_labeling(const Graph& g,
                                     VertexOrder order = VertexOrder::kDegreeDescending,
                                     std::uint64_t seed = 0, const PllConfig& config = {});

// perfbench/e2e.cpp spells this; the next benchmark PR deletes it.
inline HubLabeling pruned_landmark_labeling_flat(const Graph& g, const std::vector<Vertex>& order) { return pruned_landmark_labeling(g, order); }

/// Exact distances from the first min(bp_roots, n) roots of an order plus
/// Akiba–Iwata–Yoshida bit-parallel neighborhood masks, built by one
/// mask-propagating multi-source BFS per root (the 64-bit batch being the
/// root's first <= 64 neighbors).  A standalone structure: a cheap
/// distance-upper-bound oracle, not used by the PLL builder.
class BitParallelRoots {
 public:
  /// Sentinel distance row value: unreachable from the root.
  static constexpr std::uint16_t kUnreachable = 0xFFFF;

  BitParallelRoots() = default;

  /// Build tables for the first min(bp_roots, n) entries of `order`.
  /// `threads` parallelizes over roots (per-root results are written to
  /// disjoint rows, so the tables are thread-count invariant).  On
  /// weighted graphs or n > 65535 the table set is empty.
  BitParallelRoots(const Graph& g, const std::vector<Vertex>& order, std::size_t bp_roots,
                   std::size_t threads);

  [[nodiscard]] std::size_t num_roots() const { return num_roots_; }
  [[nodiscard]] bool active() const { return num_roots_ > 0; }

  /// Distance row of v: dist(i) = BFS distance from the i-th root
  /// (kUnreachable when disconnected).  Valid for i < num_roots().
  [[nodiscard]] const std::uint16_t* dist_row(Vertex v) const {
    return dist_.data() + static_cast<std::size_t>(v) * num_roots_;
  }

  /// Mask rows of v: bit j of sm1(v)[i] / s0(v)[i] is set when the j-th
  /// selected neighbor s of root i satisfies dist(s, v) == dist(root, v) - 1
  /// (respectively == dist(root, v)).
  [[nodiscard]] const std::uint64_t* sm1_row(Vertex v) const {
    return sm1_.data() + static_cast<std::size_t>(v) * num_roots_;
  }
  [[nodiscard]] const std::uint64_t* s0_row(Vertex v) const {
    return s0_.data() + static_cast<std::size_t>(v) * num_roots_;
  }

  /// Upper bound on dist(u, v) through root i or one of its selected
  /// neighbors: d(r,u) + d(r,v) minus the AIY mask correction (2 when the
  /// S_{-1} masks intersect, 1 on a cross S_{-1}/S_0 hit).  kInfDist when
  /// either endpoint cannot see the root.
  [[nodiscard]] Dist estimate(Vertex u, Vertex v, std::size_t i) const;

  /// Minimum of estimate(u, v, i) over all roots.
  [[nodiscard]] Dist estimate(Vertex u, Vertex v) const;

  /// Peak BFS frontier size of root i's table build (the construction-side
  /// analog of a pruned search's peak frontier).  Valid for i < num_roots().
  [[nodiscard]] std::uint64_t peak_frontier(std::size_t i) const { return peaks_[i]; }

  /// Heap footprint of the tables in bytes.
  [[nodiscard]] std::size_t memory_bytes() const {
    return dist_.capacity() * sizeof(std::uint16_t) +
           (sm1_.capacity() + s0_.capacity()) * sizeof(std::uint64_t);
  }

 private:
  std::size_t num_roots_ = 0;
  std::vector<std::uint16_t> dist_;  ///< n rows of num_roots_ distances
  std::vector<std::uint64_t> sm1_;   ///< n rows of num_roots_ S_{-1} masks
  std::vector<std::uint64_t> s0_;    ///< n rows of num_roots_ S_0 masks
  std::vector<std::uint64_t> peaks_;  ///< per-root peak BFS frontier size
};

}  // namespace hublab
