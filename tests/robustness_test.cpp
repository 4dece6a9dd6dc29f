#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "hub/pll.hpp"
#include "hub/serialize.hpp"
#include "labeling/distance_labeling.hpp"
#include "util/bitstream.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/metrics.hpp"
#include "util/report.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

/// Fuzz-style robustness tests: every decoder that consumes bytes from an
/// untrusted channel (bit streams, label blobs, graph files) must either
/// produce a value or throw hublab::ParseError -- never crash, hang, or
/// read out of bounds.  (Sanitizer-friendly by construction: all inputs
/// are owned buffers.)

namespace hublab {
namespace {

BitString random_bits(Rng& rng, std::size_t max_bytes) {
  BitString s;
  const std::size_t len = rng.next_below(max_bytes) + 1;
  s.bytes.resize(len);
  for (auto& b : s.bytes) b = static_cast<std::uint8_t>(rng.next_below(256));
  s.bit_count = len * 8 - rng.next_below(8);
  return s;
}

TEST(Fuzz, BitReaderNeverCrashes) {
  Rng rng(1);
  for (int trial = 0; trial < 500; ++trial) {
    const BitString s = random_bits(rng, 64);
    BitReader r(s);
    try {
      while (!r.exhausted()) {
        switch (trial % 4) {
          case 0: (void)r.get_gamma(); break;
          case 1: (void)r.get_delta(); break;
          case 2: (void)r.get_bits(static_cast<unsigned>(rng.next_below(65))); break;
          default: (void)r.get_bit(); break;
        }
      }
    } catch (const ParseError&) {
      // Expected for malformed codes.
    }
  }
}

HubLabeling pll_natural(const Graph& g) {
  return pruned_landmark_labeling(g, VertexOrder::kNatural);
}

TEST(Fuzz, HubLabelDecodeNeverCrashes) {
  const HubDistanceLabeling scheme(&pll_natural);
  Rng rng(2);
  for (int trial = 0; trial < 300; ++trial) {
    const BitString a = random_bits(rng, 48);
    const BitString b = random_bits(rng, 48);
    try {
      (void)scheme.decode(a, b);
    } catch (const ParseError&) {
    }
  }
}

TEST(Fuzz, TruncatedRealHubLabels) {
  Rng rng(3);
  const Graph g = gen::connected_gnm(30, 60, rng);
  const HubDistanceLabeling scheme(&pll_natural);
  const EncodedLabels enc = scheme.encode(g);
  for (Vertex v = 0; v < 30; v += 5) {
    BitString cut = enc.labels[v];
    for (const std::size_t keep : {std::size_t{1}, cut.bit_count / 3, cut.bit_count - 1}) {
      BitString prefix = cut;
      prefix.bit_count = keep;
      try {
        (void)scheme.decode(prefix, enc.labels[0]);
      } catch (const ParseError&) {
      }
    }
  }
}

TEST(Fuzz, FlatLabelDecodeNeverCrashes) {
  const FlatDistanceLabeling scheme;
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    const BitString a = random_bits(rng, 64);
    const BitString b = random_bits(rng, 64);
    try {
      (void)scheme.decode(a, b);
    } catch (const ParseError&) {
    }
  }
}

TEST(Fuzz, CorrectedApproxDecodeNeverCrashes) {
  const CorrectedApproxLabeling scheme(&pll_natural);
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const BitString a = random_bits(rng, 64);
    const BitString b = random_bits(rng, 64);
    try {
      (void)scheme.decode(a, b);
    } catch (const ParseError&) {
    }
  }
}

TEST(Fuzz, LabelingLoaderNeverCrashes) {
  Rng rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    std::string bytes;
    // Half the trials start with the right magic to get past the header.
    if (trial % 2 == 0) bytes = "HLAB";
    const std::size_t len = rng.next_below(100) + 4;
    for (std::size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.next_below(256)));
    }
    std::stringstream stream(bytes);
    try {
      (void)load_labeling(stream);
    } catch (const ParseError&) {
    }
  }
}

/// A labeling-file header (magic, version, vertex count) with no body.
std::string labeling_header(std::uint64_t n) {
  std::string bytes = "HLAB";
  const std::uint32_t version = kLabelingFormatVersion;
  bytes.append(reinterpret_cast<const char*>(&version), sizeof version);
  bytes.append(reinterpret_cast<const char*>(&n), sizeof n);
  return bytes;
}

TEST(Fuzz, LabelingLoaderRejectsOversizedDeclarationsBeforeAllocating) {
  // n = 2^32 is past the vertex range; n = 2^30 fits the range but the
  // stream holds none of the 8 bytes per vertex it declares.  Both must be
  // refused from the header alone, not after allocating n labels.
  for (const std::uint64_t n : {std::uint64_t{1} << 32, std::uint64_t{1} << 30}) {
    std::stringstream stream(labeling_header(n));
    EXPECT_THROW((void)load_labeling(stream), ParseError) << "n=" << n;
  }
}

/// Every row strictly ascending, every hub < num_vertices().
void expect_well_formed(const HubLabeling& l) {
  for (Vertex v = 0; v < l.num_vertices(); ++v) {
    const auto hubs = l.hubs(v);
    for (std::size_t i = 0; i < hubs.size(); ++i) {
      ASSERT_LT(hubs[i], l.num_vertices()) << "v=" << v;
      if (i > 0) {
        ASSERT_LT(hubs[i - 1], hubs[i]) << "v=" << v;
      }
    }
  }
}

/// Each byte of `bytes` XORed in turn with 0x01, 0x80 and 0xFF and handed
/// to `read`, which must return or throw `Caught`.
template <class Caught, class Read>
void byte_flip_sweep(const std::string& bytes, const Read& read) {
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (const unsigned mask : {0x01u, 0x80u, 0xFFu}) {
      std::string flipped = bytes;
      flipped[i] = static_cast<char>(static_cast<unsigned char>(flipped[i]) ^ mask);
      SCOPED_TRACE("byte " + std::to_string(i) + " ^ " + std::to_string(mask));
      try {
        read(flipped);
      } catch (const Caught&) {
      }
    }
  }
}

TEST(Fuzz, LabelingLoaderByteFlipSweep) {
  Rng rng(9);
  const Graph graphs[] = {gen::road_like(6, 6, 0.2, 10, rng), gen::connected_gnm(30, 60, rng)};
  for (const Graph& g : graphs) {
    const HubLabeling labels = pruned_landmark_labeling(g);
    std::stringstream saved;
    save_labeling(labels, saved);
    const std::string bytes = saved.str();
    // Every flipped load throws ParseError or yields well-formed rows.
    byte_flip_sweep<ParseError>(bytes, [](const std::string& flipped) {
      std::stringstream stream(flipped);
      expect_well_formed(load_labeling(stream));
    });
    // A cut at every label boundary (16-byte header, then an 8-byte count
    // and 12 bytes per entry for each vertex), and one inside an entry.
    std::size_t boundary = 16;
    std::size_t mid_entry = 0;
    for (Vertex v = 0; v < labels.num_vertices(); ++v) {
      std::stringstream cut(bytes.substr(0, boundary));
      EXPECT_THROW((void)load_labeling(cut), ParseError) << "cut at label " << v;
      if (mid_entry == 0 && labels.label_size(v) > 0) mid_entry = boundary + 8 + 6;
      boundary += 8 + 12 * labels.label_size(v);
    }
    ASSERT_EQ(boundary, bytes.size());
    ASSERT_GT(mid_entry, 0u);
    std::stringstream cut(bytes.substr(0, mid_entry));
    EXPECT_THROW((void)load_labeling(cut), ParseError) << "cut inside an entry";
  }
}

TEST(Fuzz, EdgeListReaderNeverCrashes) {
  Rng rng(7);
  const std::string alphabet = "0123456789 \n-#ab";
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const std::size_t len = rng.next_below(120);
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[rng.next_below(alphabet.size())]);
    }
    std::stringstream stream(text);
    try {
      (void)io::read_edge_list(stream);
    } catch (const Error&) {
    }
  }
}

TEST(Fuzz, DimacsReaderNeverCrashes) {
  Rng rng(8);
  const std::string alphabet = "0123456789 \npsa c";
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const std::size_t len = rng.next_below(120);
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(alphabet[rng.next_below(alphabet.size())]);
    }
    std::stringstream stream(text);
    try {
      (void)io::read_dimacs(stream);
    } catch (const Error&) {
    }
  }
}

TEST(Fuzz, JsonParserByteFlipSweep) {
  // A real run report (about 2 KB with metrics on): header, one graph, two
  // phases and a registry holding each metric kind the emitter writes.
  metrics::Registry reg;
  Tracer tracer(reg);
  {
    auto span = tracer.span("load");
    reg.counter("fuzz.loaded").add(1200);
  }
  {
    auto span = tracer.span("query");
    reg.counter("fuzz.queries").add(37);
  }
  reg.gauge("fuzz.delta").set(-5);
  for (std::uint64_t v = 1; v <= 1U << 20; v *= 4) {
    reg.histogram("fuzz.latency_ns").record(v);
    reg.sketch("fuzz.scan_cost").record(v);
  }
  ReportHeader header;
  header.name = "fuzz_probe";
  header.ok = true;
  header.graphs.push_back(ReportGraph{"gnm", 100, 300});
  std::ostringstream os;
  write_run_report_json(os, header, tracer, reg);
  const std::string text = os.str();
  ASSERT_NO_THROW((void)parse_json(text));

  byte_flip_sweep<ParseError>(text, [](const std::string& flipped) { (void)parse_json(flipped); });
  // Every cut before the closing brace leaves the document unclosed.
  const std::size_t close = text.rfind('}');
  ASSERT_NE(close, std::string::npos);
  for (std::size_t cut = 0; cut < close; ++cut) {
    EXPECT_THROW((void)parse_json(text.substr(0, cut)), ParseError) << "cut at " << cut;
  }
}

TEST(Fuzz, GraphReadersByteFlipSweep) {
  // The graph readers on saved files, not random text: a flip lands in a
  // header, a vertex id, a weight or a separator.
  Rng rng(12);
  const Graph g = gen::road_like(5, 5, 0.2, 10, rng);
  std::stringstream edges;
  io::write_edge_list(g, edges);
  byte_flip_sweep<Error>(edges.str(), [](const std::string& flipped) {
    std::stringstream stream(flipped);
    (void)io::read_edge_list(stream);
  });
  std::stringstream dimacs;
  io::write_dimacs(g, dimacs);
  byte_flip_sweep<Error>(dimacs.str(), [](const std::string& flipped) {
    std::stringstream stream(flipped);
    (void)io::read_dimacs(stream);
  });
}

TEST(Fuzz, BitFlippedLabelsStayContained) {
  // Flipping any single bit of a real label must yield ParseError or a
  // (possibly wrong) value -- never a crash.  Distance labels travel over
  // the simulated channel in the Sum-Index protocol, so this matters.
  Rng rng(9);
  const Graph g = gen::connected_gnm(20, 40, rng);
  const HubDistanceLabeling scheme(&pll_natural);
  const EncodedLabels enc = scheme.encode(g);
  const BitString& reference = enc.labels[1];
  for (std::size_t bit = 0; bit < enc.labels[0].bit_count; ++bit) {
    BitString mutated = enc.labels[0];
    mutated.bytes[bit / 8] = static_cast<std::uint8_t>(mutated.bytes[bit / 8] ^ (1u << (bit % 8)));
    try {
      (void)scheme.decode(mutated, reference);
    } catch (const ParseError&) {
    }
  }
}

}  // namespace
}  // namespace hublab
