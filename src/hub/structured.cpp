#include "hub/structured.hpp"

#include <algorithm>

#include "algo/shortest_paths.hpp"
#include "graph/transforms.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"

namespace hublab {

namespace {

/// Centroid decomposition state over one forest.
class CentroidDecomposer {
 public:
  explicit CentroidDecomposer(const Graph& g)
      : g_(g), alive_(g.num_vertices(), true), size_(g.num_vertices(), 0),
        rows_(g.num_vertices()) {}

  HubLabeling run() {
    std::vector<bool> processed(g_.num_vertices(), false);
    for (Vertex v = 0; v < g_.num_vertices(); ++v) {
      if (!processed[v]) {
        decompose(v);
        // Mark the whole original component processed.
        mark_component(v, processed);
      }
    }
    return HubLabeling(std::move(rows_));
  }

 private:
  void mark_component(Vertex start, std::vector<bool>& processed) {
    std::vector<Vertex> stack{start};
    processed[start] = true;
    while (!stack.empty()) {
      const Vertex u = stack.back();
      stack.pop_back();
      for (const Arc& a : g_.arcs(u)) {
        if (!processed[a.to]) {
          processed[a.to] = true;
          stack.push_back(a.to);
        }
      }
    }
  }

  /// Subtree sizes of the alive component containing `root` (iterative DFS).
  std::size_t compute_sizes(Vertex root) {
    order_.clear();
    parent_.assign(g_.num_vertices(), kInvalidVertex);
    std::vector<Vertex> stack{root};
    std::vector<bool> seen(g_.num_vertices(), false);
    seen[root] = true;
    while (!stack.empty()) {
      const Vertex u = stack.back();
      stack.pop_back();
      order_.push_back(u);
      for (const Arc& a : g_.arcs(u)) {
        if (alive_[a.to] && !seen[a.to]) {
          seen[a.to] = true;
          parent_[a.to] = u;
          stack.push_back(a.to);
        }
      }
    }
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) size_[*it] = 1;
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      if (parent_[*it] != kInvalidVertex) size_[parent_[*it]] += size_[*it];
    }
    return order_.size();
  }

  Vertex find_centroid(Vertex root, std::size_t component_size) {
    Vertex c = root;
    for (;;) {
      Vertex heavy = kInvalidVertex;
      for (const Arc& a : g_.arcs(c)) {
        if (!alive_[a.to] || a.to == parent_[c]) continue;
        if (size_[a.to] > component_size / 2) {
          heavy = a.to;
          break;
        }
      }
      if (heavy == kInvalidVertex) return c;
      // Walk into the heavy child.  Once size_[heavy] > comp/2, the "up"
      // component of heavy has size comp - size_[heavy] < comp/2, so the
      // original DFS sizes/parents remain valid for the rest of the walk.
      c = heavy;
    }
  }

  /// Distances from `center` inside the alive component (tree walk).
  void assign_hubs(Vertex center) {
    std::vector<std::pair<Vertex, Dist>> stack{{center, 0}};
    std::vector<bool> seen(g_.num_vertices(), false);
    seen[center] = true;
    while (!stack.empty()) {
      const auto [u, d] = stack.back();
      stack.pop_back();
      rows_[u].push_back({center, d});
      for (const Arc& a : g_.arcs(u)) {
        if (alive_[a.to] && !seen[a.to]) {
          seen[a.to] = true;
          stack.emplace_back(a.to, d + a.weight);
        }
      }
    }
  }

  void decompose(Vertex root) {
    const std::size_t component_size = compute_sizes(root);
    const Vertex centroid = find_centroid(root, component_size);
    assign_hubs(centroid);
    alive_[centroid] = false;
    for (const Arc& a : g_.arcs(centroid)) {
      if (alive_[a.to]) decompose(a.to);
    }
  }

  const Graph& g_;
  std::vector<bool> alive_;
  std::vector<std::size_t> size_;
  std::vector<Vertex> parent_;
  std::vector<Vertex> order_;
  std::vector<std::vector<HubEntry>> rows_;
};

}  // namespace

HubLabeling tree_centroid_labeling(const Graph& g) {
  // Forest check: edges == vertices - components.
  const std::size_t components = num_connected_components(g);
  if (g.num_edges() + components != g.num_vertices()) {
    throw InvalidArgument("tree_centroid_labeling requires a forest");
  }
  return CentroidDecomposer(g).run();
}

namespace {

/// Validate the grid contract: ids are row-major and edges join 4-neighbors.
void check_grid_shape(const Graph& g, std::size_t rows, std::size_t cols) {
  if (g.num_vertices() != rows * cols) {
    throw InvalidArgument("grid_separator_labeling: vertex count != rows*cols");
  }
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const std::size_t r = u / cols;
    const std::size_t c = u % cols;
    for (const Arc& a : g.arcs(u)) {
      const std::size_t r2 = a.to / cols;
      const std::size_t c2 = a.to % cols;
      const std::size_t dr = r > r2 ? r - r2 : r2 - r;
      const std::size_t dc = c > c2 ? c - c2 : c2 - c;
      if (dr + dc != 1) {
        throw InvalidArgument("grid_separator_labeling: non-grid edge found");
      }
    }
  }
}

struct Region {
  std::size_t r0, r1, c0, c1;  // inclusive bounds

  [[nodiscard]] std::size_t height() const { return r1 - r0 + 1; }
  [[nodiscard]] std::size_t width() const { return c1 - c0 + 1; }
};

class GridSeparatorLabeler {
 public:
  GridSeparatorLabeler(const Graph& g, std::size_t rows, std::size_t cols)
      : g_(g), rows_(rows), cols_(cols), labels_(g.num_vertices()) {}

  HubLabeling run() {
    split(Region{0, rows_ - 1, 0, cols_ - 1});
    return HubLabeling(std::move(labels_));
  }

 private:
  [[nodiscard]] Vertex id(std::size_t r, std::size_t c) const {
    return static_cast<Vertex>(r * cols_ + c);
  }

  /// Add every separator vertex as a hub of every vertex in the region,
  /// with exact whole-graph distances.
  void add_separator_hubs(const Region& reg, const std::vector<Vertex>& separator) {
    HUBLAB_ASSERT(reg.r1 < rows_ && reg.c1 < cols_);
    for (Vertex s : separator) {
      const auto dist = sssp_distances(g_, s);
      for (std::size_t r = reg.r0; r <= reg.r1; ++r) {
        for (std::size_t c = reg.c0; c <= reg.c1; ++c) {
          const Vertex v = id(r, c);
          if (dist[v] != kInfDist) labels_[v].push_back({s, dist[v]});
        }
      }
    }
  }

  void split(const Region& reg) {
    if (reg.height() == 1 && reg.width() == 1) {
      labels_[id(reg.r0, reg.c0)].push_back({id(reg.r0, reg.c0), 0});
      return;
    }
    std::vector<Vertex> separator;
    if (reg.width() >= reg.height()) {
      const std::size_t mid = reg.c0 + reg.width() / 2;
      for (std::size_t r = reg.r0; r <= reg.r1; ++r) separator.push_back(id(r, mid));
      add_separator_hubs(reg, separator);
      if (mid > reg.c0) split(Region{reg.r0, reg.r1, reg.c0, mid - 1});
      if (mid < reg.c1) split(Region{reg.r0, reg.r1, mid + 1, reg.c1});
    } else {
      const std::size_t mid = reg.r0 + reg.height() / 2;
      for (std::size_t c = reg.c0; c <= reg.c1; ++c) separator.push_back(id(mid, c));
      add_separator_hubs(reg, separator);
      if (mid > reg.r0) split(Region{reg.r0, mid - 1, reg.c0, reg.c1});
      if (mid < reg.r1) split(Region{mid + 1, reg.r1, reg.c0, reg.c1});
    }
  }

  const Graph& g_;
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::vector<HubEntry>> labels_;  ///< per-vertex rows
};

}  // namespace

HubLabeling grid_separator_labeling(const Graph& g, std::size_t rows, std::size_t cols) {
  if (rows == 0 || cols == 0) throw InvalidArgument("grid_separator_labeling: empty grid");
  check_grid_shape(g, rows, cols);
  return GridSeparatorLabeler(g, rows, cols).run();
}

namespace {

class BfsSeparatorLabeler {
 public:
  explicit BfsSeparatorLabeler(const Graph& g)
      : g_(g), in_region_(g.num_vertices(), 0), hop_(g.num_vertices(), kInfDist),
        rows_(g.num_vertices()) {}

  HubLabeling run() {
    // Seed the recursion with each connected component.
    const auto comp = connected_components(g_);
    std::uint32_t num_comps = 0;
    for (Vertex v = 0; v < g_.num_vertices(); ++v) {
      num_comps = std::max(num_comps, comp[v] + 1);
    }
    std::vector<std::vector<Vertex>> regions(num_comps);
    for (Vertex v = 0; v < g_.num_vertices(); ++v) regions[comp[v]].push_back(v);
    for (auto& region : regions) split(std::move(region));
    return HubLabeling(std::move(rows_));
  }

 private:
  /// Hop-BFS restricted to the current region (marked with `epoch_`).
  /// Fills hop_ for region vertices; returns the max level and a farthest
  /// vertex.
  std::pair<Dist, Vertex> region_bfs(const std::vector<Vertex>& region, Vertex root) {
    for (Vertex v : region) hop_[v] = kInfDist;
    std::vector<Vertex> frontier{root};
    hop_[root] = 0;
    Dist level = 0;
    Vertex far = root;
    std::vector<Vertex> next;
    while (!frontier.empty()) {
      for (Vertex u : frontier) {
        for (const Arc& a : g_.arcs(u)) {
          if (in_region_[a.to] == epoch_ && hop_[a.to] == kInfDist) {
            hop_[a.to] = level + 1;
            far = a.to;
            next.push_back(a.to);
          }
        }
      }
      ++level;
      frontier.swap(next);
      next.clear();
    }
    return {level - 1, far};
  }

  void split(std::vector<Vertex> region) {
    HUBLAB_ASSERT(!region.empty());
    if (region.size() == 1) {
      rows_[region[0]].push_back({region[0], 0});
      return;
    }
    ++epoch_;
    for (Vertex v : region) in_region_[v] = epoch_;

    // Two-sweep eccentric root, then take the middle BFS level as separator.
    auto [depth1, far1] = region_bfs(region, region[0]);
    (void)depth1;
    auto [depth, far2] = region_bfs(region, far1);
    (void)far2;
    HUBLAB_ASSERT_MSG(depth >= 1, "connected region of size >= 2 must have depth >= 1");
    const Dist mid = (depth + 1) / 2;

    std::vector<Vertex> separator;
    for (Vertex v : region) {
      if (hop_[v] == mid) separator.push_back(v);
    }
    HUBLAB_ASSERT(!separator.empty());

    // Whole-graph distances from every separator vertex to the region.
    for (Vertex s : separator) {
      const auto dist = sssp_distances(g_, s);
      for (Vertex v : region) {
        if (dist[v] != kInfDist) rows_[v].push_back({s, dist[v]});
      }
      in_region_[s] = 0;  // remove from region
    }

    // Components of region \ separator, found by BFS over surviving marks.
    const std::uint32_t survivors_epoch = epoch_;
    std::vector<Vertex> stack;
    for (Vertex v : region) {
      if (in_region_[v] != survivors_epoch) continue;
      std::vector<Vertex> piece;
      stack.push_back(v);
      in_region_[v] = 0;
      while (!stack.empty()) {
        const Vertex u = stack.back();
        stack.pop_back();
        piece.push_back(u);
        for (const Arc& a : g_.arcs(u)) {
          if (in_region_[a.to] == survivors_epoch) {
            in_region_[a.to] = 0;
            stack.push_back(a.to);
          }
        }
      }
      split(std::move(piece));
    }
  }

  const Graph& g_;
  std::vector<std::uint32_t> in_region_;
  std::vector<Dist> hop_;
  std::vector<std::vector<HubEntry>> rows_;
  std::uint32_t epoch_ = 0;
};

}  // namespace

HubLabeling bfs_separator_labeling(const Graph& g) { return BfsSeparatorLabeler(g).run(); }

}  // namespace hublab
