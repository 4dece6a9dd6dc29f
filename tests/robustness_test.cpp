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
#include "util/rng.hpp"

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
