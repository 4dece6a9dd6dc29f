#include "hub/serialize.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "util/error.hpp"

namespace hublab {

namespace {

constexpr char kMagic[4] = {'H', 'L', 'A', 'B'};

template <typename T>
void write_pod(std::ostream& out, T value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof value);
  if (!in) throw ParseError("labeling file truncated");
  return value;
}

/// Smallest on-disk footprint of one vertex (its label size) and of one
/// label entry (hub + distance).
constexpr std::uint64_t kCountBytes = sizeof(std::uint64_t);
constexpr std::uint64_t kEntryBytes = sizeof(std::uint32_t) + sizeof(std::uint64_t);

/// Bytes between the read position of a seekable stream and its end.
std::uint64_t bytes_left(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (!in || end < here) throw ParseError("labeling file: cannot determine its size");
  return static_cast<std::uint64_t>(end - here);
}

}  // namespace

void save_labeling(const HubLabeling& labeling, std::ostream& out) {
  out.write(kMagic, sizeof kMagic);
  write_pod<std::uint32_t>(out, kLabelingFormatVersion);
  write_pod<std::uint64_t>(out, labeling.num_vertices());
  for (Vertex v = 0; v < labeling.num_vertices(); ++v) {
    const auto hubs = labeling.hubs(v);
    const auto dists = labeling.dists(v);
    write_pod<std::uint64_t>(out, hubs.size());
    for (std::size_t i = 0; i < hubs.size(); ++i) {
      write_pod<std::uint32_t>(out, hubs[i]);
      write_pod<std::uint64_t>(out, dists[i]);
    }
  }
  if (!out) throw Error("labeling write failed");
}

HubLabeling load_labeling(std::istream& in) {
  if (in.tellg() == std::istream::pos_type(-1)) {
    // Unseekable (a pipe): buffer it so the size checks below see the end.
    std::stringstream buffered;
    buffered << in.rdbuf();
    buffered.clear();  // an empty copy sets failbit; a stringstream always seeks
    return load_labeling(buffered);
  }
  char magic[4];
  in.read(magic, sizeof magic);
  if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw ParseError("labeling file: bad magic");
  }
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kLabelingFormatVersion) throw ParseError("labeling file: unsupported version");
  const auto n = read_pod<std::uint64_t>(in);
  if (n >= kInvalidVertex) throw ParseError("labeling file: vertex count exceeds the vertex range");
  // Declared sizes are checked against the bytes actually present before
  // anything is allocated for them.  Invariant: `left` holds at least the
  // counts of the vertices not yet read.
  std::uint64_t left = bytes_left(in);
  if (n > left / kCountBytes) throw ParseError("labeling file: vertex count exceeds file size");

  // A well-formed file holds exactly n counts and (left - 8n) / 12
  // entries, so the columns are sized once.  Every label is checked before
  // it reaches the construction loop, whose assertions never see bad input.
  std::vector<char> block;  // one label's entries, as stored
  HubLabeling labeling(
      n, (left - n * kCountBytes) / kEntryBytes, [&](Vertex v, std::vector<HubEntry>& row) {
        const auto count = read_pod<std::uint64_t>(in);
        left -= kCountBytes;
        if (count > n) throw ParseError("labeling file: label larger than vertex count");
        if (count > (left - (n - v - 1) * kCountBytes) / kEntryBytes) {
          throw ParseError("labeling file: label size exceeds file size");
        }
        left -= count * kEntryBytes;
        block.resize(count * kEntryBytes);
        in.read(block.data(), static_cast<std::streamsize>(block.size()));
        if (!in) throw ParseError("labeling file truncated");
        row.resize(count);
        std::uint64_t prev_hub_plus_one = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
          const char* entry = block.data() + i * kEntryBytes;
          std::uint32_t hub = 0;
          std::uint64_t dist = 0;
          std::memcpy(&hub, entry, sizeof hub);
          std::memcpy(&dist, entry + sizeof hub, sizeof dist);
          if (hub >= n) throw ParseError("labeling file: hub id out of range");
          if (hub + 1ULL <= prev_hub_plus_one) throw ParseError("labeling file: hubs not ascending");
          prev_hub_plus_one = hub + 1ULL;
          row[i] = {hub, dist};
        }
      });
  if (left != 0) throw ParseError("labeling file: trailing bytes after the last label");
  return labeling;
}

void save_labeling_file(const HubLabeling& labeling, const std::string& file_path) {
  std::ofstream out(file_path, std::ios::binary);
  if (!out) throw Error("cannot open for writing: " + file_path);
  save_labeling(labeling, out);
}

HubLabeling load_labeling_file(const std::string& file_path) {
  std::ifstream in(file_path, std::ios::binary);
  if (!in) throw Error("cannot open: " + file_path);
  return load_labeling(in);
}

}  // namespace hublab
