#include "hub/pll.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <type_traits>
#include <utility>

#include "hub/simd_kernel.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/qsketch.hpp"
#include "util/rng.hpp"

namespace hublab {

std::vector<Vertex> make_vertex_order(const Graph& g, VertexOrder order, std::uint64_t seed) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  std::vector<Vertex> result(n);
  for (Vertex v = 0; v < n; ++v) result[v] = v;
  switch (order) {
    case VertexOrder::kNatural:
      break;
    case VertexOrder::kRandom: {
      Rng rng(seed);
      shuffle(result, rng);
      break;
    }
    case VertexOrder::kDegreeDescending:
      std::stable_sort(result.begin(), result.end(),
                       [&g](Vertex a, Vertex b) { return g.degree(a) > g.degree(b); });
      break;
    default:
      HUBLAB_UNREACHABLE();
  }
  return result;
}

BitParallelRoots::BitParallelRoots(const Graph& g, const std::vector<Vertex>& order,
                                   std::size_t bp_roots, std::size_t threads) {
  const std::size_t n = g.num_vertices();
  // 16-bit distance rows: any finite BFS distance is < n, so n <= 65535
  // guarantees the tables never truncate (kUnreachable is the only
  // sentinel).  Weighted graphs get no tables.
  if (g.is_weighted() || n == 0 || n > 0xFFFF || bp_roots == 0) return;
  num_roots_ = std::min(bp_roots, n);
  const std::size_t stride = num_roots_;
  dist_.assign(n * stride, kUnreachable);
  sm1_.assign(n * stride, 0);
  s0_.assign(n * stride, 0);
  peaks_.assign(num_roots_, 0);

  metrics::Counter& c_visited = metrics::registry().counter("pll.bp_visited");
  // One mask-propagating BFS per root.  Each BFS runs in contiguous
  // per-root scratch (the strided table rows would cost a cache line per
  // arc) and scatters into its column once at the end; roots write
  // disjoint columns, so the fan-out over the pool is race-free and
  // thread-count invariant.
  par::parallel_for(0, num_roots_, threads, [&](const par::ChunkRange& chunk) {
    std::vector<Vertex> frontier;
    std::vector<Vertex> next;
    std::vector<std::uint16_t> dist;
    std::vector<std::uint64_t> sm1;
    std::vector<std::uint64_t> s0;
    std::uint64_t visited = 0;
    for (std::size_t i = chunk.begin; i < chunk.end; ++i) {
      const Vertex root = order[i];
      dist.assign(n, kUnreachable);
      sm1.assign(n, 0);
      s0.assign(n, 0);
      dist[root] = 0;
      ++visited;
      frontier.assign(1, root);
      std::uint16_t level = 0;
      bool seeded = false;
      while (!frontier.empty()) {
        peaks_[i] = std::max(peaks_[i], static_cast<std::uint64_t>(frontier.size()));
        // Pass 1 — same-level edges: dist(s, v) == dist(root, v) exactly
        // when a selected neighbor's S_{-1} mask crosses a level-parallel
        // edge.  Runs before expansion so S_0 of this level is complete
        // before it propagates to the next level.
        for (const Vertex u : frontier) {
          const std::uint64_t mask = sm1[u];
          if (mask == 0) continue;
          for (const Arc& a : g.arcs(u)) {
            if (dist[a.to] == level) s0[a.to] |= mask;
          }
        }
        // Pass 2 — expansion: discover the next level and push both masks
        // down tree/cross edges into it.
        for (const Vertex u : frontier) {
          const std::uint64_t sm1_u = sm1[u];
          const std::uint64_t s0_u = s0[u];
          for (const Arc& a : g.arcs(u)) {
            std::uint16_t& dv = dist[a.to];
            if (dv == kUnreachable) {
              dv = static_cast<std::uint16_t>(level + 1);
              ++visited;
              next.push_back(a.to);
            }
            if (dv == level + 1) {
              sm1[a.to] |= sm1_u;
              s0[a.to] |= s0_u;
            }
          }
        }
        if (!seeded) {
          // The 64-bit batch: the root's first <= 64 neighbors, seeded
          // after discovery (dist(s, s) == 0 == dist(root, s) - 1 puts
          // each s in its own S_{-1}).
          std::uint64_t bit = 1;
          for (const Arc& a : g.arcs(root)) {
            sm1[a.to] |= bit;
            if (bit == (1ULL << 63)) break;
            bit <<= 1;
          }
          seeded = true;
        }
        ++level;
        frontier.swap(next);
        next.clear();
      }
      for (std::size_t v = 0; v < n; ++v) {
        dist_[v * stride + i] = dist[v];
        sm1_[v * stride + i] = sm1[v];
        s0_[v * stride + i] = s0[v];
      }
    }
    c_visited.add(visited);
  });
}

Dist BitParallelRoots::estimate(Vertex u, Vertex v, std::size_t i) const {
  HUBLAB_ASSERT_RANGE(i, num_roots_);
  const std::uint16_t du = dist_row(u)[i];
  const std::uint16_t dv = dist_row(v)[i];
  if (du == kUnreachable || dv == kUnreachable) return kInfDist;
  Dist d = static_cast<Dist>(du) + static_cast<Dist>(dv);
  if ((sm1_row(u)[i] & sm1_row(v)[i]) != 0) {
    d -= 2;
  } else if (((sm1_row(u)[i] & s0_row(v)[i]) | (s0_row(u)[i] & sm1_row(v)[i])) != 0) {
    d -= 1;
  }
  return d;
}

Dist BitParallelRoots::estimate(Vertex u, Vertex v) const {
  Dist best = kInfDist;
  for (std::size_t i = 0; i < num_roots_; ++i) best = std::min(best, estimate(u, v, i));
  return best;
}

namespace {

/// True when every distance a pruned search settles fits in 32 bits below
/// the narrow rows' "absent" value 0xFFFFFFFF.  A settled distance is the
/// length of a simple path (its search-tree path), so it is at most
/// (n - 1) * max_weight; the product cannot overflow 64 bits.
bool distances_fit_u32(const Graph& g) {
  const std::uint64_t n = g.num_vertices();
  return n <= 1 || (n - 1) * std::uint64_t{g.max_weight()} < 0xFFFFFFFFu;
}

/// The pruned Dijkstra's queue: a monotone radix heap of (key, vertex)
/// items.  Every pushed key is at least the last popped one, because
/// weights are nonnegative.  Bucket 0 holds the items whose key equals the
/// last popped key, bucket b >= 1 those whose key first differs from it in
/// bit b - 1.  A pop that finds bucket 0 empty takes the lowest nonempty
/// bucket's minimum as the new last key and moves that bucket's items into
/// lower buckets, so an item moves at most 64 times.  Equal keys pop in an
/// unspecified order; the canonical labels do not depend on it.  The
/// buckets keep their capacity across searches.
class RadixHeap {
 public:
  using Item = std::pair<Dist, Vertex>;

  /// Start a search; the queue is empty between searches.
  void reset() { last_ = 0; }

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void push(Dist key, Vertex v) {
    buckets_[bucket(key)].emplace_back(key, v);
    ++size_;
  }

  /// Remove and return an item of minimum key; the queue must not be
  /// empty.
  Item pop() {
    if (buckets_[0].empty()) {
      std::size_t b = 1;
      while (buckets_[b].empty()) ++b;
      std::vector<Item>& from = buckets_[b];
      last_ = from.front().first;
      for (const Item& item : from) last_ = std::min(last_, item.first);
      for (const Item& item : from) buckets_[bucket(item.first)].push_back(item);
      from.clear();
    }
    const Item item = buckets_[0].back();
    buckets_[0].pop_back();
    --size_;
    return item;
  }

 private:
  /// 0 for the last popped key, else one past the highest differing bit.
  [[nodiscard]] std::size_t bucket(Dist key) const {
    return static_cast<std::size_t>(std::bit_width(key ^ last_));
  }

  std::array<std::vector<Item>, 65> buckets_;
  Dist last_ = 0;
  std::size_t size_ = 0;
};

/// The pruned-landmark loop over one contiguous, rank-ordered row per
/// vertex, storing distances as `D`.  The search itself (tentative
/// distances, queue keys) stays in Dist, so the labels do not depend on
/// `D`.
template <typename D>
class PllBuilder {
 public:
  PllBuilder(const Graph& g, const std::vector<Vertex>& order, const PllConfig& config)
      : g_(g),
        order_(order),
        threads_(par::resolve_threads(config.threads)),
        cover_(pick_cover(g.num_vertices())),
        rows_(g.num_vertices()),
        root_dist_(g.num_vertices(), kAbsent),
        dist_(g.num_vertices(), kInfDist) {
    HUBLAB_ASSERT_MSG(order.size() == g.num_vertices(), "order must be a permutation");
    // Ranks are stored as 32-bit values next to the kInvalidVertex
    // sentinel, and the rank loop compares a size_t bound, so the vertex
    // count must stay strictly below the Vertex maximum.
    HUBLAB_ASSERT_MSG(g.num_vertices() < static_cast<std::size_t>(kInvalidVertex),
                      "graph too large: vertex count must stay below kInvalidVertex");
  }

  HubLabeling run() {
    build_labels();
    // Ranks are unique, so the rows hold no duplicate hub; the construction
    // loop sorts each row from rank order into hub order.
    std::size_t entries = 0;
    for (const std::vector<Entry>& row : rows_) entries += row.size();
    return HubLabeling(g_.num_vertices(), entries,
                       [this](Vertex v, std::vector<HubEntry>& row) { take_row(v, row); });
  }

 private:
  using Entry = simd::RankEntry<D>;
  using CoverFn = bool (*)(const Entry* row, std::size_t size, const D* root_dist, D d);

  /// root_dist_ value of a rank not in the current root's label.  Every
  /// distance a search settles is below it (distances_fit_u32 for the
  /// narrow rows, finiteness for the wide ones).
  static constexpr D kAbsent = std::numeric_limits<D>::max();

  /// Frontiers below this size are pruned inline: the fan-out overhead
  /// would outweigh the scan.
  static constexpr std::size_t kParallelFrontierMin = 512;

  /// The cover kernel, picked once per build.  Narrow rows run the tier
  /// of simd::active_tier() (so HUBLAB_FORCE_SCALAR pins it), which
  /// gather_tier drops to scalar when ranks outgrow the gathers' signed
  /// 32-bit indices; the wide rows run the scalar scan.
  static CoverFn pick_cover(std::size_t n) {
    if constexpr (std::is_same_v<D, std::uint32_t>) {
      return simd::cover_for(simd::gather_tier(simd::active_tier(), n));
    } else {
      return &simd::detail::cover_scan<D>;
    }
  }

  /// Run the per-rank pruned searches.  The searches share every piece of
  /// scratch state (frontier buffers, the Dijkstra queue, touched lists),
  /// so per-root work allocates only when a row grows.
  void build_labels() {
    const bool weighted = g_.is_weighted();
    for (std::size_t k = 0; k < order_.size(); ++k) {
      peak_frontier_ = 0;
      scatter_root_label(order_[k]);
      if (weighted) {
        pruned_dijkstra(k);
      } else {
        pruned_bfs(k);
      }
      clear_root_label(order_[k]);
      frontier_sizes_.record(peak_frontier_);
    }
    metrics::Registry& reg = metrics::registry();
    reg.sketch("pll.frontier_size").merge(frontier_sizes_);
    reg.counter("pll.visited").add(c_visited_);
    reg.counter("pll.cover_entries").add(c_cover_entries_);
    reg.counter("pll.pruned").add(c_pruned_);
    reg.counter("pll.label_pushes").add(c_pushes_);
  }

  /// Move v's row out as hub-id entries in rank order, freeing the row.
  void take_row(Vertex v, std::vector<HubEntry>& out) {
    out.reserve(rows_[v].size());
    for (const Entry& e : rows_[v]) out.push_back(HubEntry{order_[e.rank], e.dist});
    std::vector<Entry>().swap(rows_[v]);
    label_sizes_.record(out.size());
  }

  /// Scatter the root's label into the rank-indexed root_dist_ before its
  /// search, and clear it again after.
  void scatter_root_label(Vertex root) {
    for (const Entry& e : rows_[root]) root_dist_[e.rank] = e.dist;
  }

  void clear_root_label(Vertex root) {
    for (const Entry& e : rows_[root]) root_dist_[e.rank] = kAbsent;
  }

  /// True when some entry (r, d(r, u)) of u's label has a root entry
  /// (r, d(r, root)) with d(r, u) + d(r, root) <= d, i.e. an earlier hub
  /// answers (u, root) within d (simd::CoverFn).
  [[nodiscard]] bool covered(Vertex u, D d) const {
    return cover_(rows_[u].data(), rows_[u].size(), root_dist_.data(), d);
  }

  /// Count a settled vertex and the label entries its cover test is handed.
  void count_settled(Vertex u) {
    ++c_visited_;
    c_cover_entries_ += rows_[u].size();
  }

  void push(Vertex u, std::size_t k, Dist d) {
    rows_[u].push_back(Entry{static_cast<Vertex>(k), static_cast<D>(d)});
    ++c_pushes_;
  }

  /// Fill prune_flags_[0..frontier_.size()) with the per-vertex decision.
  /// The scan is read-only (labels mutate only in the commit loop), so
  /// fanning it out over static chunks cannot change any flag — the
  /// labeling stays bit-identical for every thread count.
  void decide_prunes(Dist level) {
    prune_flags_.resize(frontier_.size());
    const auto decide = [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        prune_flags_[i] = covered(frontier_[i], static_cast<D>(level)) ? 1 : 0;
      }
    };
    if (threads_ > 1 && frontier_.size() >= kParallelFrontierMin && !par::in_parallel_region()) {
      par::parallel_for(0, frontier_.size(), threads_,
                        [&](const par::ChunkRange& chunk) { decide(chunk.begin, chunk.end); });
    } else {
      decide(0, frontier_.size());
    }
  }

  void pruned_bfs(std::size_t k) {
    const Vertex root = order_[k];
    frontier_.assign(1, root);
    touched_.assign(1, root);
    dist_[root] = 0;
    Dist level = 0;
    while (!frontier_.empty()) {
      peak_frontier_ = std::max(peak_frontier_, static_cast<std::uint64_t>(frontier_.size()));
      decide_prunes(level);
      // Commit in frontier order: label pushes and frontier discovery are
      // exactly the sequential builder's, whatever chunking decided the
      // flags.
      for (std::size_t i = 0; i < frontier_.size(); ++i) {
        const Vertex u = frontier_[i];
        count_settled(u);
        if (prune_flags_[i] != 0) {
          ++c_pruned_;
          continue;
        }
        push(u, k, level);
        for (const Arc& a : g_.arcs(u)) {
          if (dist_[a.to] == kInfDist) {
            dist_[a.to] = level + 1;
            touched_.push_back(a.to);
            next_.push_back(a.to);
          }
        }
      }
      ++level;
      frontier_.swap(next_);
      next_.clear();
    }
    for (const Vertex v : touched_) dist_[v] = kInfDist;
  }

  void pruned_dijkstra(std::size_t k) {
    const Vertex root = order_[k];
    queue_.reset();
    touched_.assign(1, root);
    dist_[root] = 0;
    queue_.push(0, root);
    while (!queue_.empty()) {
      peak_frontier_ = std::max(peak_frontier_, static_cast<std::uint64_t>(queue_.size()));
      const auto [d, u] = queue_.pop();
      if (d != dist_[u]) continue;  // stale: a smaller key for u was pushed since
      count_settled(u);
      if (covered(u, static_cast<D>(d))) {
        ++c_pruned_;
        continue;
      }
      push(u, k, d);
      for (const Arc& a : g_.arcs(u)) {
        const Dist nd = d + a.weight;
        if (nd < dist_[a.to]) {
          if (dist_[a.to] == kInfDist) touched_.push_back(a.to);
          dist_[a.to] = nd;
          queue_.push(nd, a.to);
        }
      }
    }
    for (const Vertex v : touched_) dist_[v] = kInfDist;
  }

  const Graph& g_;
  const std::vector<Vertex>& order_;
  std::size_t threads_;
  CoverFn cover_;
  std::vector<std::vector<Entry>> rows_;  ///< per-vertex label, rank order
  std::vector<D> root_dist_;              ///< rank-indexed distances of current root
  std::vector<Dist> dist_;                ///< per-search tentative distances
  std::vector<Vertex> frontier_;
  std::vector<Vertex> next_;
  std::vector<Vertex> touched_;
  std::vector<std::uint8_t> prune_flags_;  ///< 1 = covered (bytes: chunks write in parallel)
  RadixHeap queue_;                        ///< reused Dijkstra queue
  QuantileSketch frontier_sizes_;  ///< peak frontier / queue size per root
  metrics::Histogram& label_sizes_ = metrics::registry().histogram("pll.label_size");
  std::uint64_t peak_frontier_ = 0;
  std::uint64_t c_visited_ = 0;
  std::uint64_t c_cover_entries_ = 0;
  std::uint64_t c_pruned_ = 0;
  std::uint64_t c_pushes_ = 0;
};

}  // namespace

HubLabeling pruned_landmark_labeling(const Graph& g, const std::vector<Vertex>& order,
                                     const PllConfig& config) {
  if (distances_fit_u32(g)) return PllBuilder<std::uint32_t>(g, order, config).run();
  return PllBuilder<Dist>(g, order, config).run();
}

HubLabeling pruned_landmark_labeling(const Graph& g, VertexOrder order, std::uint64_t seed,
                                     const PllConfig& config) {
  return pruned_landmark_labeling(g, make_vertex_order(g, order, seed), config);
}

}  // namespace hublab
