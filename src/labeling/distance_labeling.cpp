#include "labeling/distance_labeling.hpp"

#include <algorithm>

#include "algo/distance_matrix.hpp"
#include "algo/shortest_paths.hpp"
#include "hub/approx.hpp"
#include "hub/labeling.hpp"
#include "util/error.hpp"

namespace hublab {

std::size_t EncodedLabels::total_bits() const {
  std::size_t total = 0;
  for (const auto& l : labels) total += l.size_bits();
  return total;
}

double EncodedLabels::average_bits() const {
  if (labels.empty()) return 0.0;
  return static_cast<double>(total_bits()) / static_cast<double>(labels.size());
}

std::size_t EncodedLabels::max_bits() const {
  std::size_t best = 0;
  for (const auto& l : labels) best = std::max(best, l.size_bits());
  return best;
}

HubDistanceLabeling::HubDistanceLabeling(Factory factory, std::string name, DistCodec codec)
    : factory_(factory), name_(std::move(name)), codec_(codec) {
  HUBLAB_ASSERT(factory_ != nullptr);
}

namespace {

void put_dist(BitWriter& w, DistCodec codec, Dist d) {
  switch (codec) {
    case DistCodec::kGamma:
      w.put_gamma0(d);
      break;
    case DistCodec::kDelta:
      w.put_delta0(d);
      break;
    case DistCodec::kFixed32:
      HUBLAB_ASSERT_MSG(d <= 0xffffffffULL, "distance exceeds fixed-32 codec");
      w.put_bits(d, 32);
      break;
  }
}

Dist get_dist(BitReader& r, DistCodec codec) {
  switch (codec) {
    case DistCodec::kGamma:
      return r.get_gamma0();
    case DistCodec::kDelta:
      return r.get_delta0();
    case DistCodec::kFixed32:
      return r.get_bits(32);
  }
  throw ParseError("hub label: unknown codec");
}

}  // namespace

EncodedLabels HubDistanceLabeling::encode_labeling(const HubLabeling& labeling, DistCodec codec) {
  EncodedLabels out;
  out.labels.reserve(labeling.num_vertices());
  for (Vertex v = 0; v < labeling.num_vertices(); ++v) {
    BitWriter w;
    const auto hubs = labeling.hubs(v);
    const auto dists = labeling.dists(v);
    w.put_bits(static_cast<std::uint64_t>(codec), 2);  // self-describing codec tag
    w.put_gamma0(hubs.size());
    Vertex prev_plus_one = 0;  // hubs are strictly ascending
    for (std::size_t i = 0; i < hubs.size(); ++i) {
      w.put_gamma(hubs[i] + 1 - prev_plus_one);  // gap >= 1
      prev_plus_one = hubs[i] + 1;
      put_dist(w, codec, dists[i]);
    }
    out.labels.push_back(w.take());
  }
  return out;
}

EncodedLabels HubDistanceLabeling::encode(const Graph& g) const {
  const HubLabeling labeling = factory_(g);
  return encode_labeling(labeling, codec_);
}

namespace {

struct DecodedHubLabel {
  std::vector<HubEntry> entries;  // ascending hub ids
};

DecodedHubLabel parse_hub_label(const BitString& bits) {
  BitReader r(bits);
  DecodedHubLabel out;
  const std::uint64_t codec_tag = r.get_bits(2);
  if (codec_tag > 2) throw ParseError("hub label: unknown codec tag");
  const auto codec = static_cast<DistCodec>(codec_tag);
  const std::uint64_t count = r.get_gamma0();
  if (count > bits.size_bits()) throw ParseError("hub label: implausible entry count");
  out.entries.reserve(count);
  std::uint64_t hub_plus_one = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    hub_plus_one += r.get_gamma();
    const Dist dist = get_dist(r, codec);
    if (hub_plus_one - 1 > std::numeric_limits<Vertex>::max()) {
      throw ParseError("hub label: hub id overflow");
    }
    out.entries.push_back(HubEntry{static_cast<Vertex>(hub_plus_one - 1), dist});
  }
  return out;
}

}  // namespace

Dist HubDistanceLabeling::decode(const BitString& label_u, const BitString& label_v) const {
  const DecodedHubLabel a = parse_hub_label(label_u);
  const DecodedHubLabel b = parse_hub_label(label_v);
  Dist best = kInfDist;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.entries.size() && j < b.entries.size()) {
    if (a.entries[i].hub < b.entries[j].hub) {
      ++i;
    } else if (a.entries[i].hub > b.entries[j].hub) {
      ++j;
    } else {
      best = std::min(best, a.entries[i].dist + b.entries[j].dist);
      ++i;
      ++j;
    }
  }
  return best;
}

EncodedLabels FlatDistanceLabeling::encode(const Graph& g) const {
  const auto n = static_cast<Vertex>(g.num_vertices());
  // Find the largest finite distance to size the fixed-width cells.
  Dist max_dist = 0;
  std::vector<std::vector<Dist>> rows(n);
  for (Vertex u = 0; u < n; ++u) {
    rows[u] = sssp_distances(g, u);
    for (Dist d : rows[u]) {
      if (d != kInfDist) max_dist = std::max(max_dist, d);
    }
  }
  const Dist inf_cell = max_dist + 1;  // sentinel for unreachable
  const unsigned width = ceil_log2(inf_cell + 1);

  EncodedLabels out;
  out.labels.reserve(n);
  for (Vertex u = 0; u < n; ++u) {
    BitWriter w;
    w.put_gamma(n + 1);         // n (gamma needs >= 1)
    w.put_gamma(width + 1);     // cell width
    w.put_gamma0(inf_cell);     // unreachable sentinel value
    w.put_bits(u, 32);          // own id, fixed 32 bits
    for (Vertex v = 0; v < n; ++v) {
      w.put_bits(rows[u][v] == kInfDist ? inf_cell : rows[u][v], width);
    }
    out.labels.push_back(w.take());
  }
  return out;
}

Dist FlatDistanceLabeling::decode(const BitString& label_u, const BitString& label_v) const {
  BitReader ru(label_u);
  const std::uint64_t n = ru.get_gamma() - 1;
  const auto width = static_cast<unsigned>(ru.get_gamma() - 1);
  if (width > 64) throw ParseError("flat label: bad width");
  const std::uint64_t inf_cell = ru.get_gamma0();
  [[maybe_unused]] const std::uint64_t id_u = ru.get_bits(32);

  BitReader rv(label_v);
  const std::uint64_t n2 = rv.get_gamma() - 1;
  const auto width2 = static_cast<unsigned>(rv.get_gamma() - 1);
  const std::uint64_t inf2 = rv.get_gamma0();
  if (n != n2 || width != width2 || inf_cell != inf2) {
    throw ParseError("flat label: header mismatch");
  }
  const std::uint64_t id_v = rv.get_bits(32);
  if (id_v >= n) throw ParseError("flat label: id out of range");

  // Seek into u's row.
  std::uint64_t cell = 0;
  for (std::uint64_t v = 0; v <= id_v; ++v) cell = ru.get_bits(width);
  return cell == inf_cell ? kInfDist : cell;
}

CorrectedApproxLabeling::CorrectedApproxLabeling(Factory exact_factory)
    : exact_factory_(exact_factory) {
  HUBLAB_ASSERT(exact_factory_ != nullptr);
}

namespace {

/// Write one approx-hub block: gamma0 count, then (gap, dist) gamma pairs.
void write_hub_block(BitWriter& w, const HubLabeling& labeling, Vertex v) {
  const auto hubs = labeling.hubs(v);
  const auto dists = labeling.dists(v);
  w.put_gamma0(hubs.size());
  Vertex prev_plus_one = 0;
  for (std::size_t i = 0; i < hubs.size(); ++i) {
    w.put_gamma(hubs[i] + 1 - prev_plus_one);
    prev_plus_one = hubs[i] + 1;
    w.put_gamma0(dists[i]);
  }
}

std::vector<HubEntry> read_hub_block(BitReader& r, std::size_t bit_budget) {
  const std::uint64_t count = r.get_gamma0();
  if (count > bit_budget) throw ParseError("approx label: implausible entry count");
  std::vector<HubEntry> entries;
  entries.reserve(count);
  std::uint64_t hub_plus_one = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    hub_plus_one += r.get_gamma();
    const std::uint64_t dist = r.get_gamma0();
    entries.push_back(HubEntry{static_cast<Vertex>(hub_plus_one - 1), dist});
  }
  return entries;
}

constexpr std::uint64_t kCorrUnreachable = 3;

}  // namespace

EncodedLabels CorrectedApproxLabeling::encode(const Graph& g) const {
  const auto n = static_cast<Vertex>(g.num_vertices());
  const HubLabeling exact = exact_factory_(g);
  const DistanceMatrix truth = DistanceMatrix::compute(g);
  const ApproxHubLabeling approx = approximate_labeling(g, exact, truth);

  EncodedLabels out;
  out.labels.reserve(n);
  for (Vertex v = 0; v < n; ++v) {
    BitWriter w;
    w.put_gamma(static_cast<std::uint64_t>(n) + 1);
    w.put_bits(v, 32);
    write_hub_block(w, approx.labels, v);
    // 2-bit corrections: est - actual in {0,1,2}; 3 marks unreachable.
    for (Vertex u = 0; u < n; ++u) {
      const Dist actual = truth.at(v, u);
      if (actual == kInfDist) {
        w.put_bits(kCorrUnreachable, 2);
        continue;
      }
      const Dist est = approx.estimate(v, u);
      HUBLAB_ASSERT_MSG(est != kInfDist && est >= actual && est - actual <= 2,
                        "additive guarantee violated");
      w.put_bits(est - actual, 2);
    }
    out.labels.push_back(w.take());
  }
  return out;
}

Dist CorrectedApproxLabeling::decode(const BitString& label_u, const BitString& label_v) const {
  BitReader ru(label_u);
  const std::uint64_t n = ru.get_gamma() - 1;
  [[maybe_unused]] const std::uint64_t id_u = ru.get_bits(32);
  const auto hubs_u = read_hub_block(ru, label_u.size_bits());

  BitReader rv(label_v);
  const std::uint64_t n2 = rv.get_gamma() - 1;
  if (n != n2) throw ParseError("approx label: header mismatch");
  const std::uint64_t id_v = rv.get_bits(32);
  if (id_v >= n) throw ParseError("approx label: id out of range");
  const auto hubs_v = read_hub_block(rv, label_v.size_bits());

  // Approximate estimate by hub merge.
  Dist est = kInfDist;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < hubs_u.size() && j < hubs_v.size()) {
    if (hubs_u[i].hub < hubs_v[j].hub) {
      ++i;
    } else if (hubs_u[i].hub > hubs_v[j].hub) {
      ++j;
    } else {
      est = std::min(est, hubs_u[i].dist + hubs_v[j].dist);
      ++i;
      ++j;
    }
  }

  // Correction from u's table at position id_v.
  std::uint64_t corr = kCorrUnreachable;
  for (std::uint64_t k = 0; k <= id_v; ++k) corr = ru.get_bits(2);
  if (corr == kCorrUnreachable) return kInfDist;
  if (est == kInfDist || est < corr) throw ParseError("approx label: inconsistent correction");
  return est - corr;
}

}  // namespace hublab
