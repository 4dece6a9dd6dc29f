#include "hub/labeling.hpp"

#include <algorithm>
#include <atomic>
#include <string>
#include <utility>

#include "algo/distance_matrix.hpp"
#include "algo/shortest_paths.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace hublab {

void HubLabeling::finalize() {
  if (finalized_) return;
  for (auto& label : labels_) {
    // Rows with strictly increasing hub ids are already in finalized form;
    // one scan beats the sort for builders that emit hub-sorted rows.
    const bool strictly_sorted =
        std::adjacent_find(label.begin(), label.end(), [](const HubEntry& a, const HubEntry& b) {
          return a.hub >= b.hub;
        }) == label.end();
    if (!strictly_sorted) {
      std::sort(label.begin(), label.end(), [](const HubEntry& a, const HubEntry& b) {
        return a.hub != b.hub ? a.hub < b.hub : a.dist < b.dist;
      });
      label.erase(std::unique(label.begin(), label.end(),
                              [](const HubEntry& a, const HubEntry& b) { return a.hub == b.hub; }),
                  label.end());
    }
    label.shrink_to_fit();
  }
  finalized_ = true;
}

Dist HubLabeling::query(Vertex u, Vertex v) const { return query_with_hub(u, v).dist; }

HubQueryResult HubLabeling::query_with_hub(Vertex u, Vertex v) const {
  HUBLAB_ASSERT_RANGE(u, labels_.size());
  HUBLAB_ASSERT_RANGE(v, labels_.size());
  HUBLAB_ASSERT_MSG(finalized_, "HubLabeling::finalize() must be called before querying");
  const auto& a = labels_[u];
  const auto& b = labels_[v];
  HubQueryResult best;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].hub < b[j].hub) {
      ++i;
    } else if (a[i].hub > b[j].hub) {
      ++j;
    } else {
      const Dist d = a[i].dist + b[j].dist;
      if (d < best.dist) {
        best.dist = d;
        best.meeting_hub = a[i].hub;
      }
      ++i;
      ++j;
    }
  }
  return best;
}

bool HubLabeling::has_hub(Vertex v, Vertex hub) const {
  HUBLAB_ASSERT_RANGE(v, labels_.size());
  const auto& label = labels_[v];
  const auto it = std::lower_bound(label.begin(), label.end(), hub,
                                   [](const HubEntry& e, Vertex h) { return e.hub < h; });
  return it != label.end() && it->hub == hub;
}

std::size_t HubLabeling::memory_bytes() const {
  std::size_t bytes = labels_.capacity() * sizeof(std::vector<HubEntry>);
  for (const auto& label : labels_) bytes += label.capacity() * sizeof(HubEntry);
  return bytes;
}

std::size_t HubLabeling::total_hubs() const {
  std::size_t total = 0;
  for (const auto& label : labels_) total += label.size();
  return total;
}

double HubLabeling::average_label_size() const {
  if (labels_.empty()) return 0.0;
  return static_cast<double>(total_hubs()) / static_cast<double>(labels_.size());
}

std::size_t HubLabeling::max_label_size() const {
  std::size_t best = 0;
  for (const auto& label : labels_) best = std::max(best, label.size());
  return best;
}

AuditReport HubLabeling::audit(const Graph& g, std::size_t num_samples, std::uint64_t seed,
                               std::size_t threads) const {
  AuditReport report;
  const std::string ctx = "hub-labeling";
  const std::size_t n = labels_.size();
  threads = par::resolve_threads(threads);

  if (!report.require(n == g.num_vertices(), ctx,
                      "labeling has " + std::to_string(n) + " vertices, graph has " +
                          std::to_string(g.num_vertices()))) {
    return report;
  }
  report.require(finalized_ || total_hubs() == 0, ctx,
                 "labeling has entries but finalize() was not called since the last add_hub()");

  // Structural pass over deterministic chunks; per-chunk reports merged in
  // chunk order reproduce the sequential issue list for every thread count.
  {
    const auto chunks = par::static_chunks(0, n, threads);
    std::vector<AuditReport> parts(chunks.size());
    par::run_chunks(chunks, threads, [&](const par::ChunkRange& chunk) {
      AuditReport& part = parts[chunk.index];
      for (std::size_t v = chunk.begin; v < chunk.end; ++v) {
        const auto& label = labels_[v];
        for (std::size_t i = 0; i < label.size(); ++i) {
          const std::string entry =
              "label S(" + std::to_string(v) + ") entry #" + std::to_string(i);
          part.require(label[i].hub < n, ctx,
                       entry + " hub " + std::to_string(label[i].hub) + " out of range, n=" +
                           std::to_string(n));
          if (i > 0) {
            part.require(label[i - 1].hub < label[i].hub, ctx,
                         entry + " hub " + std::to_string(label[i].hub) +
                             " not strictly after previous hub " +
                             std::to_string(label[i - 1].hub) + " (unsorted or duplicate)");
          }
          if (label[i].hub == v) {
            part.require(label[i].dist == 0, ctx,
                         entry + " self-hub distance expected 0, observed " +
                             std::to_string(label[i].dist));
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
      for (const HubEntry& e : labels_[u]) {
        part.require(dist_u[e.hub] == e.dist, ctx,
                     "S(" + std::to_string(u) + ") stores dist " + std::to_string(e.dist) +
                         " to hub " + std::to_string(e.hub) + ", true distance is " +
                         std::to_string(dist_u[e.hub]));
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
        for (const HubEntry& e : labeling.label(v)) {
          if (e.hub >= n || truth.at(v, e.hub) != e.dist) {
            scan.record(chunk.index,
                        LabelingDefect{LabelingDefect::Kind::kWrongDistance, v, e.hub, e.dist,
                                       e.hub < n ? truth.at(v, e.hub) : kInfDist});
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
      for (const HubEntry& e : labeling.label(u)) {
        if (e.hub >= n || dist_u[e.hub] != e.dist) {
          scan.record(chunk.index,
                      LabelingDefect{LabelingDefect::Kind::kWrongDistance, u, e.hub, e.dist,
                                     e.hub < n ? dist_u[e.hub] : kInfDist});
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
      for (const HubEntry& e : labeling.label(v)) {
        HUBLAB_ASSERT_MSG(e.hub < n && tree.dist[e.hub] == e.dist,
                          "monotone_closure requires exact-distance labels");
        for (Vertex x = e.hub; x != kInvalidVertex && !marked[x]; x = tree.parent[x]) {
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
  HubLabeling result(std::move(closed));
  result.finalize();
  return result;
}

}  // namespace hublab
