#include "hub/labeling.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "algo/distance_matrix.hpp"
#include "algo/shortest_paths.hpp"
#include "hub/simd_kernel.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace hublab {

namespace {

/// Sort a row by hub id, keeping the minimum distance per hub.  Rows with
/// strictly increasing hub ids are already in final form; one scan beats
/// the sort for producers that emit hub-sorted rows.
void sort_row(std::vector<HubEntry>& row) {
  const bool strictly_sorted =
      std::adjacent_find(row.begin(), row.end(), [](const HubEntry& a, const HubEntry& b) {
        return a.hub >= b.hub;
      }) == row.end();
  if (strictly_sorted) return;
  std::sort(row.begin(), row.end(), [](const HubEntry& a, const HubEntry& b) {
    return a.hub != b.hub ? a.hub < b.hub : a.dist < b.dist;
  });
  row.erase(std::unique(row.begin(), row.end(),
                        [](const HubEntry& a, const HubEntry& b) { return a.hub == b.hub; }),
            row.end());
}

/// Appends the row's distances and its sentinel to `column`.
template <class D>
void append_dists(std::vector<D>& column, const std::vector<HubEntry>& row, D sentinel) {
  const std::size_t at = column.size();
  column.resize(at + row.size() + 1, sentinel);
  D* dists = column.data() + at;
  for (std::size_t i = 0; i < row.size(); ++i) dists[i] = static_cast<D>(row[i].dist);
}

/// Sorts every row in place and returns the entry count left.
std::size_t sort_rows(std::vector<std::vector<HubEntry>>& rows) {
  std::size_t entries = 0;
  for (auto& row : rows) {
    sort_row(row);
    entries += row.size();
  }
  return entries;
}

}  // namespace

HubLabeling::HubLabeling(std::size_t num_vertices, std::size_t num_entries,
                         const RowFiller& fill_row)
    : num_vertices_(num_vertices) {
  HUBLAB_ASSERT_MSG(num_vertices < kInvalidVertex,
                    "vertex count must stay below the kInvalidVertex sentinel");
  offsets_.reserve(num_vertices + 1);
  hubs_.reserve(num_entries + num_vertices);  // one sentinel per label
  narrow_dists_.reserve(num_entries + num_vertices);
  std::vector<HubEntry> row;
  for (Vertex v = 0; v < num_vertices; ++v) {
    row.clear();
    fill_row(v, row);
    sort_row(row);
    // Grow the columns by the row and its sentinel, which the fill value
    // writes, and copy the row through raw pointers: per-entry push_back
    // costs a capacity check and a store of the end pointer.
    const std::size_t at = hubs_.size();
    offsets_.push_back(at);
    hubs_.resize(at + row.size() + 1, kInvalidVertex);
    Vertex* hubs = hubs_.data() + at;
    Dist top = 0;
    for (std::size_t i = 0; i < row.size(); ++i) {
      HUBLAB_ASSERT_RANGE(row[i].hub, num_vertices);  // S(v) is a subset of V
      hubs[i] = row[i].hub;
      top = std::max(top, row[i].dist);
    }
    if (!wide() && top <= kMaxNarrowDist) {
      append_dists(narrow_dists_, row, kNarrowSentinel);
    } else {
      if (!wide()) widen();  // the first distance past the narrow range
      append_dists(wide_dists_, row, kInfDist);
    }
  }
  offsets_.push_back(hubs_.size());
}

void HubLabeling::widen() {
  wide_dists_.reserve(narrow_dists_.capacity());
  for (const std::uint32_t d : narrow_dists_) {
    wide_dists_.push_back(d == kNarrowSentinel ? kInfDist : d);
  }
  std::vector<std::uint32_t>().swap(narrow_dists_);
}

HubLabeling::HubLabeling(std::vector<std::vector<HubEntry>> rows)
    : HubLabeling(rows.size(), sort_rows(rows), [&rows](Vertex v, std::vector<HubEntry>& row) {
        row = std::move(rows[v]);  // frees the previous row
      }) {}

bool HubLabeling::has_hub(Vertex v, Vertex hub) const {
  const auto label = hubs(v);
  return std::binary_search(label.begin(), label.end(), hub);
}

double HubLabeling::average_label_size() const {
  if (num_vertices_ == 0) return 0.0;
  return static_cast<double>(total_hubs()) / static_cast<double>(num_vertices_);
}

std::size_t HubLabeling::max_label_size() const {
  std::size_t best = 0;
  for (Vertex v = 0; v < num_vertices_; ++v) best = std::max(best, label_size(v));
  return best;
}

void HubLabeling::query_batch(std::span<const std::pair<Vertex, Vertex>> pairs,
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
  std::vector<std::uint64_t> order;  ///< (source << 32) | position, grouped by source
  std::uint32_t epoch = 0;
};

thread_local BatchScratch t_batch_scratch;

}  // namespace

void HubLabeling::query_batch_tier(std::span<const std::pair<Vertex, Vertex>> pairs,
                                   std::span<HubQueryResult> out, simd::Tier tier) const {
  HUBLAB_ASSERT_MSG(pairs.size() == out.size(), "query_batch: pairs and out must be parallel");
  BatchScratch& s = t_batch_scratch;
  if (s.stamp.size() < num_vertices_) {
    s.stamp.resize(num_vertices_, 0);  // 0 is never a current epoch
    s.sdist.resize(num_vertices_);
  }
  // Group the block by source vertex, so consecutive queries share the same
  // source label (the cache-blocking win) while results land at their
  // original positions.  Sorting (source << 32) | position keys gives a
  // stable sort's order without std::stable_sort's per-call temporary
  // buffer, and without a comparator loading pairs[] indirectly.
  HUBLAB_ASSERT_MSG(pairs.size() <= std::uint64_t{1} << 32,
                    "query_batch: a block's positions must fit in 32 bits");
  s.order.resize(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    s.order[i] = (std::uint64_t{pairs[i].first} << 32) | i;
  }
  std::sort(s.order.begin(), s.order.end());
  // Scatter each source group's label into the tables once under a fresh
  // epoch, then answer every query of the group with one linear probe scan
  // of its target label — no merge, no data-dependent branches.  The
  // scatter widens the source distances into the 64-bit `sdist` table.
  // One dispatch per block, on the column's width; hub ids index the stamp
  // tables.
  const auto probe_groups = [&](const auto* dists, const auto probe) {
    std::uint64_t groups = 0;
    Vertex prev_source = kInvalidVertex;  // never a valid source
    for (const std::uint64_t key : s.order) {
      const auto idx = static_cast<std::uint32_t>(key);
      const auto [u, v] = pairs[idx];
      HUBLAB_ASSERT_RANGE(u, num_vertices_);
      HUBLAB_ASSERT_RANGE(v, num_vertices_);
      if (u != prev_source) {
        ++groups;
        s.epoch = simd::detail::next_epoch(s.epoch, s.stamp);
        const Vertex* sh = hubs_.data() + offsets_[u];
        const auto* sd = dists + offsets_[u];
        const std::size_t sn = label_size(u);
        for (std::size_t i = 0; i < sn; ++i) {
          s.stamp[sh[i]] = s.epoch;
          s.sdist[sh[i]] = sd[i];
        }
        prev_source = u;
      }
      out[idx] = probe(hubs_.data() + offsets_[v], dists + offsets_[v], label_size(v),
                       s.stamp.data(), s.sdist.data(), s.epoch);
    }
    return groups;
  };
  const simd::Tier gathered = simd::gather_tier(tier, num_vertices_);
  const std::uint64_t groups =
      wide() ? probe_groups(wide_dists_.data(), simd::probe_for<Dist>(gathered))
             : probe_groups(narrow_dists_.data(), simd::probe_for<std::uint32_t>(gathered));
  // Looked up once per process: the registry's lookup takes its global
  // mutex, and reset() zeroes values in place, so the handles stay valid.
  static metrics::Counter& calls = metrics::registry().counter("query.batch.calls");
  static metrics::Counter& batched = metrics::registry().counter("query.batch.pairs");
  static metrics::Counter& source_groups = metrics::registry().counter("query.batch.source_groups");
  calls.add(1);
  batched.add(pairs.size());
  source_groups.add(groups);
}

AuditReport HubLabeling::audit(const Graph& g, std::size_t num_samples, std::uint64_t seed,
                               std::size_t threads) const {
  AuditReport report;
  const std::string ctx = "hub-labeling";
  const std::size_t n = num_vertices_;
  threads = par::resolve_threads(threads);

  if (!report.require(n == g.num_vertices(), ctx,
                      "labeling has " + std::to_string(n) + " vertices, graph has " +
                          std::to_string(g.num_vertices()))) {
    return report;
  }

  // Structural pass over deterministic chunks; per-chunk reports merged in
  // chunk order reproduce the sequential issue list for every thread count.
  {
    const auto chunks = par::static_chunks(0, n, threads);
    std::vector<AuditReport> parts(chunks.size());
    par::run_chunks(chunks, threads, [&](const par::ChunkRange& chunk) {
      AuditReport& part = parts[chunk.index];
      for (std::size_t v = chunk.begin; v < chunk.end; ++v) {
        const auto hub = hubs(static_cast<Vertex>(v));
        const auto dist = dists(static_cast<Vertex>(v));
        for (std::size_t i = 0; i < hub.size(); ++i) {
          const std::string entry =
              "label S(" + std::to_string(v) + ") entry #" + std::to_string(i);
          part.require(hub[i] < n, ctx,
                       entry + " hub " + std::to_string(hub[i]) + " out of range, n=" +
                           std::to_string(n));
          if (i > 0) {
            part.require(hub[i - 1] < hub[i], ctx,
                         entry + " hub " + std::to_string(hub[i]) +
                             " not strictly after previous hub " + std::to_string(hub[i - 1]) +
                             " (unsorted or duplicate)");
          }
          if (hub[i] == v) {
            part.require(dist[i] == 0, ctx,
                         entry + " self-hub distance expected 0, observed " +
                             std::to_string(dist[i]));
          }
        }
      }
    });
    for (const AuditReport& part : parts) report.merge(part);
  }
  if (!report.ok() || num_samples == 0 || n == 0) return report;

  // Sampled cover property: entries are exact and sampled pairs query
  // exact.  Pairs are drawn sequentially up front so the samples do not
  // depend on the thread count.
  Rng rng(seed);
  std::vector<std::pair<Vertex, Vertex>> samples;
  samples.reserve(num_samples);
  for (std::size_t s = 0; s < num_samples; ++s) {
    const auto u = static_cast<Vertex>(rng.next_below(n));
    const auto v = static_cast<Vertex>(rng.next_below(n));
    samples.emplace_back(u, v);
  }
  const auto chunks = par::static_chunks(0, num_samples, threads);
  std::vector<AuditReport> parts(chunks.size());
  par::run_chunks(chunks, threads, [&](const par::ChunkRange& chunk) {
    AuditReport& part = parts[chunk.index];
    for (std::size_t s = chunk.begin; s < chunk.end; ++s) {
      const auto [u, v] = samples[s];
      const std::vector<Dist> dist_u = sssp_distances(g, u);
      const auto hub = hubs(u);
      const auto dist = dists(u);
      for (std::size_t i = 0; i < hub.size(); ++i) {
        part.require(dist_u[hub[i]] == dist[i], ctx,
                     "S(" + std::to_string(u) + ") stores dist " + std::to_string(dist[i]) +
                         " to hub " + std::to_string(hub[i]) + ", true distance is " +
                         std::to_string(dist_u[hub[i]]));
      }
      if (dist_u[v] == kInfDist) continue;
      const Dist answered = query(u, v);
      part.require(answered == dist_u[v], ctx,
                   "query(" + std::to_string(u) + ", " + std::to_string(v) + ") = " +
                       (answered == kInfDist ? std::string("inf (uncovered pair)")
                                             : std::to_string(answered)) +
                       ", true distance is " + std::to_string(dist_u[v]));
    }
  });
  for (const AuditReport& part : parts) report.merge(part);
  return report;
}

namespace {

/// Shared state for a chunked first-defect scan: each chunk owns a result
/// slot keyed by its index, and `first_found` lets higher-indexed chunks
/// stop early once a lower-indexed chunk has a defect (their results would
/// be discarded anyway, so early exit never changes the answer).
struct DefectScan {
  explicit DefectScan(std::size_t num_chunks)
      : slots(num_chunks), first_found(num_chunks) {}

  /// True when a strictly lower-indexed chunk already found a defect.
  [[nodiscard]] bool superseded(std::size_t chunk_index) const {
    return first_found.load(std::memory_order_relaxed) < chunk_index;
  }

  void record(std::size_t chunk_index, const LabelingDefect& defect) {
    slots[chunk_index] = defect;
    std::size_t cur = first_found.load(std::memory_order_relaxed);
    while (chunk_index < cur &&
           !first_found.compare_exchange_weak(cur, chunk_index, std::memory_order_relaxed)) {
    }
  }

  /// The defect of the lowest-indexed chunk that found one == the first
  /// defect in sequential scan order.
  [[nodiscard]] std::optional<LabelingDefect> first() const {
    for (const auto& slot : slots) {
      if (slot) return slot;
    }
    return std::nullopt;
  }

  std::vector<std::optional<LabelingDefect>> slots;
  std::atomic<std::size_t> first_found;
};

}  // namespace

std::optional<LabelingDefect> verify_labeling(const Graph& g, const HubLabeling& labeling,
                                              const DistanceMatrix& truth, std::size_t threads) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  HUBLAB_ASSERT(labeling.num_vertices() == n && truth.num_vertices() == n);
  threads = par::resolve_threads(threads);

  // Phase 1: every stored entry is exact.
  {
    const auto chunks = par::static_chunks(0, n, threads);
    DefectScan scan(chunks.size());
    par::run_chunks(chunks, threads, [&](const par::ChunkRange& chunk) {
      for (std::size_t vi = chunk.begin; vi < chunk.end; ++vi) {
        if (scan.superseded(chunk.index)) return;
        const auto v = static_cast<Vertex>(vi);
        const auto hubs = labeling.hubs(v);
        const auto dists = labeling.dists(v);
        for (std::size_t i = 0; i < hubs.size(); ++i) {
          if (hubs[i] >= n || truth.at(v, hubs[i]) != dists[i]) {
            scan.record(chunk.index,
                        LabelingDefect{LabelingDefect::Kind::kWrongDistance, v, hubs[i], dists[i],
                                       hubs[i] < n ? truth.at(v, hubs[i]) : kInfDist});
            return;
          }
        }
      }
    });
    if (auto defect = scan.first()) return defect;
  }

  // Phase 2: every connected pair queries to the true distance.
  const auto chunks = par::static_chunks(0, n, threads);
  DefectScan scan(chunks.size());
  par::run_chunks(chunks, threads, [&](const par::ChunkRange& chunk) {
    for (std::size_t ui = chunk.begin; ui < chunk.end; ++ui) {
      if (scan.superseded(chunk.index)) return;
      const auto u = static_cast<Vertex>(ui);
      for (Vertex v = u; v < n; ++v) {
        const Dist actual = truth.at(u, v);
        if (actual == kInfDist) continue;
        const Dist answered = labeling.query(u, v);
        if (answered != actual) {
          scan.record(chunk.index,
                      LabelingDefect{LabelingDefect::Kind::kUncoveredPair, u, v, answered, actual});
          return;
        }
      }
    }
  });
  return scan.first();
}

std::optional<LabelingDefect> verify_labeling_sampled(const Graph& g, const HubLabeling& labeling,
                                                      std::size_t num_samples, std::uint64_t seed,
                                                      std::size_t threads) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  HUBLAB_ASSERT(labeling.num_vertices() == n);
  if (n == 0) return std::nullopt;
  threads = par::resolve_threads(threads);

  // Draw all sample pairs sequentially first: the Rng stream — and hence
  // the samples and the first defect — do not depend on the thread count.
  Rng rng(seed);
  std::vector<std::pair<Vertex, Vertex>> samples;
  samples.reserve(num_samples);
  for (std::size_t s = 0; s < num_samples; ++s) {
    const auto u = static_cast<Vertex>(rng.next_below(n));
    const auto v = static_cast<Vertex>(rng.next_below(n));
    samples.emplace_back(u, v);
  }

  const auto chunks = par::static_chunks(0, num_samples, threads);
  DefectScan scan(chunks.size());
  par::run_chunks(chunks, threads, [&](const par::ChunkRange& chunk) {
    for (std::size_t s = chunk.begin; s < chunk.end; ++s) {
      if (scan.superseded(chunk.index)) return;
      const auto [u, v] = samples[s];
      const auto dist_u = sssp_distances(g, u);
      // Check u's own entries while we have its distances.
      bool found = false;
      const auto hubs = labeling.hubs(u);
      const auto dists = labeling.dists(u);
      for (std::size_t i = 0; i < hubs.size(); ++i) {
        if (hubs[i] >= n || dist_u[hubs[i]] != dists[i]) {
          scan.record(chunk.index,
                      LabelingDefect{LabelingDefect::Kind::kWrongDistance, u, hubs[i], dists[i],
                                     hubs[i] < n ? dist_u[hubs[i]] : kInfDist});
          found = true;
          break;
        }
      }
      if (found) return;
      if (dist_u[v] == kInfDist) continue;
      const Dist answered = labeling.query(u, v);
      if (answered != dist_u[v]) {
        scan.record(chunk.index, LabelingDefect{LabelingDefect::Kind::kUncoveredPair, u, v,
                                                answered, dist_u[v]});
        return;
      }
    }
  });
  return scan.first();
}

HubLabeling monotone_closure(const Graph& g, const HubLabeling& labeling, std::size_t threads) {
  const auto n = static_cast<Vertex>(g.num_vertices());
  HUBLAB_ASSERT(labeling.num_vertices() == n);
  // Per-vertex closed labels land in per-vertex slots, so the assembled
  // labeling is identical for every thread count.
  std::vector<std::vector<HubEntry>> closed(n);
  par::parallel_for(0, n, threads, [&](const par::ChunkRange& chunk) {
    std::vector<bool> marked(n, false);
    for (std::size_t vi = chunk.begin; vi < chunk.end; ++vi) {
      const auto v = static_cast<Vertex>(vi);
      const SsspResult tree = sssp(g, v);
      // Mark every tree ancestor of every hub; collect marked vertices.
      std::fill(marked.begin(), marked.end(), false);
      const auto hubs = labeling.hubs(v);
      const auto dists = labeling.dists(v);
      for (std::size_t i = 0; i < hubs.size(); ++i) {
        HUBLAB_ASSERT_MSG(hubs[i] < n && tree.dist[hubs[i]] == dists[i],
                          "monotone_closure requires exact-distance labels");
        for (Vertex x = hubs[i]; x != kInvalidVertex && !marked[x]; x = tree.parent[x]) {
          marked[x] = true;
          if (x == v) break;
        }
      }
      marked[v] = true;  // v always belongs to its own closed label
      for (Vertex x = 0; x < n; ++x) {
        if (marked[x]) closed[v].push_back(HubEntry{x, tree.dist[x]});
      }
    }
  });
  return HubLabeling(std::move(closed));
}

}  // namespace hublab
