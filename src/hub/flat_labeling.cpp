#include "hub/flat_labeling.hpp"

#include <algorithm>
#include <numeric>

#include "util/metrics.hpp"

namespace hublab {

FlatHubLabeling::FlatHubLabeling(const HubLabeling& labels)
    : num_vertices_(labels.num_vertices()) {
  const std::size_t slots = labels.total_hubs() + num_vertices_;  // one sentinel per label
  offsets_.reserve(num_vertices_ + 1);
  hubs_.reserve(slots);
  dists_.reserve(slots);
  for (Vertex v = 0; v < num_vertices_; ++v) {
    const std::size_t first = hubs_.size();
    offsets_.push_back(first);
    for (const HubEntry& e : labels.label(v)) {
      HUBLAB_ASSERT_MSG(e.hub != kInvalidVertex, "kInvalidVertex is reserved as the sentinel");
      HUBLAB_ASSERT_MSG(hubs_.size() == first || hubs_.back() < e.hub,
                        "FlatHubLabeling requires a finalized (sorted, deduplicated) labeling");
      hubs_.push_back(e.hub);
      dists_.push_back(e.dist);
    }
    hubs_.push_back(kInvalidVertex);
    dists_.push_back(kInfDist);
  }
  offsets_.push_back(hubs_.size());
}

FlatHubLabeling::FlatHubLabeling(std::size_t num_vertices, std::vector<std::size_t> offsets,
                                 std::vector<Vertex> hubs, std::vector<Dist> dists)
    : num_vertices_(num_vertices),
      offsets_(std::move(offsets)),
      hubs_(std::move(hubs)),
      dists_(std::move(dists)) {
  HUBLAB_ASSERT_MSG(offsets_.size() == num_vertices_ + 1, "offsets must have n + 1 entries");
  HUBLAB_ASSERT_MSG(hubs_.size() == dists_.size(), "hub/dist arrays must be parallel");
  HUBLAB_ASSERT_MSG(offsets_.empty() || offsets_.back() == hubs_.size(),
                    "final offset must close the hub array");
  for (std::size_t v = 0; v < num_vertices_; ++v) {
    const std::size_t first = offsets_[v];
    const std::size_t last = offsets_[v + 1] - 1;  // sentinel slot
    HUBLAB_ASSERT_MSG(hubs_[last] == kInvalidVertex && dists_[last] == kInfDist,
                      "every label must be sentinel-terminated");
    for (std::size_t i = first + 1; i < last; ++i) {
      HUBLAB_ASSERT_MSG(hubs_[i - 1] < hubs_[i], "labels must be sorted and deduplicated");
    }
  }
}

void FlatHubLabeling::query_batch(std::span<const std::pair<Vertex, Vertex>> pairs,
                                  std::span<HubQueryResult> out) const {
  query_batch_tier(pairs, out, simd::active_tier());
}

namespace {

/// The batched kernel's scratch, one per calling thread and kept across
/// calls, so a block pays only for the labels it touches.  `stamp` and
/// `sdist` grow to the largest labeling the thread has queried (12 B per
/// vertex) and are zeroed only when the epoch wraps; the epoch only grows,
/// so a stamp left by an earlier group, call or labeling never matches.
struct BatchScratch {
  std::vector<std::uint32_t> stamp;  ///< stamp[h] == epoch: h is in the current source label
  std::vector<Dist> sdist;           ///< distance of h in the current source label
  std::vector<std::uint32_t> order;  ///< block indices, grouped by source
  std::uint32_t epoch = 0;
};

thread_local BatchScratch t_batch_scratch;

}  // namespace

void FlatHubLabeling::query_batch_tier(std::span<const std::pair<Vertex, Vertex>> pairs,
                                       std::span<HubQueryResult> out, simd::Tier tier) const {
  HUBLAB_ASSERT_MSG(pairs.size() == out.size(), "query_batch: pairs and out must be parallel");
  BatchScratch& s = t_batch_scratch;
  if (s.stamp.size() < num_vertices_) {
    s.stamp.resize(num_vertices_, 0);  // 0 is never a current epoch
    s.sdist.resize(num_vertices_);
  }
  // Group the block by source vertex, so consecutive queries share the same
  // source label (the cache-blocking win) while results land at their
  // original positions.  Sorting indices by (source, index) gives a stable
  // sort's order without std::stable_sort's per-call temporary buffer.
  s.order.resize(pairs.size());
  std::iota(s.order.begin(), s.order.end(), 0U);
  std::sort(s.order.begin(), s.order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return pairs[x].first != pairs[y].first ? pairs[x].first < pairs[y].first : x < y;
  });
  // Scatter each source group's label into the tables once under a fresh
  // epoch, then answer every query of the group with one linear probe scan
  // of its target label — no merge, no data-dependent branches.
  const simd::ProbeFn probe = simd::probe_for(tier);  // one dispatch per block
  std::uint64_t groups = 0;
  Vertex prev_source = kInvalidVertex;  // never a valid source
  for (const std::uint32_t idx : s.order) {
    const auto [u, v] = pairs[idx];
    HUBLAB_ASSERT_RANGE(u, num_vertices_);
    HUBLAB_ASSERT_RANGE(v, num_vertices_);
    if (u != prev_source) {
      ++groups;
      s.epoch = simd::detail::next_epoch(s.epoch, s.stamp);
      const Vertex* sh = hubs_.data() + offsets_[u];
      const Dist* sd = dists_.data() + offsets_[u];
      const std::size_t sn = label_size(u);
      for (std::size_t i = 0; i < sn; ++i) {
        s.stamp[sh[i]] = s.epoch;
        s.sdist[sh[i]] = sd[i];
      }
      prev_source = u;
    }
    out[idx] = probe(hubs_.data() + offsets_[v], dists_.data() + offsets_[v], label_size(v),
                     s.stamp.data(), s.sdist.data(), s.epoch);
  }
  // Looked up once per process: the registry's lookup takes its global
  // mutex, and reset() zeroes values in place, so the handles stay valid.
  static metrics::Counter& calls = metrics::registry().counter("query.batch.calls");
  static metrics::Counter& batched = metrics::registry().counter("query.batch.pairs");
  static metrics::Counter& source_groups = metrics::registry().counter("query.batch.source_groups");
  calls.add(1);
  batched.add(pairs.size());
  source_groups.add(groups);
}

}  // namespace hublab
