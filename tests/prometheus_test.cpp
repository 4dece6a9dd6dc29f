// Strict line-grammar suite for the Prometheus/OpenMetrics text emitter
// (util/prometheus.cpp).  A small recursive-descent parser accepts exactly
// the grammar the emitter is specified to produce -- HELP/TYPE pairing,
// label syntax, exemplar suffixes, cumulative buckets -- and the tests run
// it over (a) a registry populated with every collector kind and (b) the
// file `hublab serve --prom-out` actually writes, so a grammar
// regression in either layer fails here before any scrape does.

#include "util/prometheus.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "tools/cli.hpp"
#include "util/exemplar.hpp"
#include "util/metrics.hpp"
#include "util/qsketch.hpp"

namespace hublab::metrics {
namespace {

bool is_name_char(char c, bool first) {
  const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
  return first ? alpha : (alpha || (c >= '0' && c <= '9'));
}

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (!is_name_char(s[i], i == 0)) return false;
  }
  return true;
}

bool valid_number(const std::string& s) {
  if (s.empty()) return false;
  std::size_t pos = 0;
  try {
    (void)std::stod(s, &pos);
  } catch (const std::exception&) {
    return false;
  }
  return pos == s.size();
}

struct Sample {
  std::string name;                         ///< full series name incl. suffix
  std::map<std::string, std::string> labels;
  std::string value;
  bool has_exemplar = false;
};

struct Family {
  std::string name;
  std::string kind;
  std::vector<Sample> samples;
};

/// Parse `key="value",...` between braces.  Returns false on any grammar
/// violation; `out` receives the pairs.
bool parse_labels(const std::string& body, std::map<std::string, std::string>& out) {
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t eq = body.find('=', pos);
    if (eq == std::string::npos) return false;
    const std::string key = body.substr(pos, eq - pos);
    if (key.empty() || !is_name_char(key[0], true)) return false;
    for (std::size_t i = 1; i < key.size(); ++i) {
      if (!is_name_char(key[i], false) && !(key[i] >= '0' && key[i] <= '9')) return false;
    }
    if (eq + 1 >= body.size() || body[eq + 1] != '"') return false;
    const std::size_t close = body.find('"', eq + 2);
    if (close == std::string::npos) return false;
    const std::string value = body.substr(eq + 2, close - eq - 2);
    if (value.find('\\') != std::string::npos || value.find('\n') != std::string::npos) {
      return false;  // emitter never escapes, so never emits these
    }
    if (!out.emplace(key, value).second) return false;  // duplicate label
    pos = close + 1;
    if (pos < body.size()) {
      if (body[pos] != ',') return false;
      ++pos;
      if (pos == body.size()) return false;  // trailing comma
    }
  }
  return true;
}

/// Parse one sample line (`name[{labels}] value [# {labels} value]`).
bool parse_sample(const std::string& line, Sample& out) {
  std::size_t pos = 0;
  while (pos < line.size() && is_name_char(line[pos], pos == 0)) ++pos;
  out.name = line.substr(0, pos);
  if (!valid_metric_name(out.name)) return false;
  if (pos < line.size() && line[pos] == '{') {
    const std::size_t close = line.find('}', pos);
    if (close == std::string::npos) return false;
    if (!parse_labels(line.substr(pos + 1, close - pos - 1), out.labels)) return false;
    pos = close + 1;
  }
  if (pos >= line.size() || line[pos] != ' ') return false;
  ++pos;
  const std::size_t exemplar_at = line.find(" # ", pos);
  out.value = line.substr(pos, exemplar_at == std::string::npos ? std::string::npos
                                                                : exemplar_at - pos);
  if (!valid_number(out.value)) return false;
  if (exemplar_at != std::string::npos) {
    out.has_exemplar = true;
    // Exemplar grammar: `# {key="v",...} value`.
    std::size_t epos = exemplar_at + 3;
    if (epos >= line.size() || line[epos] != '{') return false;
    const std::size_t eclose = line.find('}', epos);
    if (eclose == std::string::npos) return false;
    std::map<std::string, std::string> exemplar_labels;
    if (!parse_labels(line.substr(epos + 1, eclose - epos - 1), exemplar_labels)) return false;
    if (exemplar_labels.empty()) return false;
    epos = eclose + 1;
    if (epos >= line.size() || line[epos] != ' ') return false;
    if (!valid_number(line.substr(epos + 1))) return false;
  }
  return true;
}

/// True when `series` belongs to family `base`: the name itself or one of
/// the sanctioned suffixes.
bool in_family(const std::string& series, const std::string& base) {
  if (series == base) return true;
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    if (series == base + suffix) return true;
  }
  return false;
}

/// Parse a full exposition into `families`, failing the test (with the
/// offending line) on any grammar violation.  Out-parameter because
/// ASSERT_* requires a void-returning function.
void parse_exposition(const std::string& text, std::vector<Family>& families) {
  std::istringstream in(text);
  std::string line;
  bool expect_type = false;  // previous line was HELP
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    EXPECT_FALSE(line.empty()) << "blank line " << lineno;
    if (line.rfind("# HELP ", 0) == 0) {
      EXPECT_FALSE(expect_type) << "HELP not followed by TYPE, line " << lineno;
      const std::size_t name_end = line.find(' ', 7);
      ASSERT_NE(name_end, std::string::npos) << line;
      Family fam;
      fam.name = line.substr(7, name_end - 7);
      EXPECT_TRUE(valid_metric_name(fam.name)) << line;
      EXPECT_LT(name_end + 1, line.size()) << "empty HELP text, line " << lineno;
      families.push_back(fam);
      expect_type = true;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      ASSERT_TRUE(expect_type) << "TYPE without immediately preceding HELP, line " << lineno;
      expect_type = false;
      ASSERT_FALSE(families.empty());
      Family& fam = families.back();
      const std::size_t name_end = line.find(' ', 7);
      ASSERT_NE(name_end, std::string::npos) << line;
      EXPECT_EQ(line.substr(7, name_end - 7), fam.name)
          << "TYPE names a different family than its HELP, line " << lineno;
      fam.kind = line.substr(name_end + 1);
      EXPECT_TRUE(fam.kind == "counter" || fam.kind == "gauge" || fam.kind == "histogram" ||
                  fam.kind == "summary")
          << line;
      continue;
    }
    EXPECT_FALSE(expect_type) << "HELP not followed by TYPE, line " << lineno;
    Sample sample;
    ASSERT_TRUE(parse_sample(line, sample)) << "bad sample line " << lineno << ": " << line;
    ASSERT_FALSE(families.empty()) << "sample before any family, line " << lineno;
    Family& fam = families.back();
    EXPECT_TRUE(in_family(sample.name, fam.name))
        << "series `" << sample.name << "` outside family `" << fam.name << "`, line " << lineno;
    EXPECT_TRUE(!sample.has_exemplar ||
                (fam.kind == "histogram" && sample.name == fam.name + "_bucket"))
        << "exemplar outside a histogram bucket, line " << lineno;
    fam.samples.push_back(sample);
  }
  EXPECT_FALSE(expect_type) << "trailing HELP without TYPE";
}

/// Family-level invariants: unique names, no empty families, histogram
/// buckets cumulative with a final +Inf equal to _count.
void check_families(const std::vector<Family>& families) {
  std::map<std::string, int> seen;
  for (const Family& fam : families) {
    EXPECT_EQ(++seen[fam.name], 1) << "family emitted twice: " << fam.name;
    EXPECT_FALSE(fam.samples.empty()) << "family with no samples: " << fam.name;
    if (fam.kind != "histogram") continue;
    std::uint64_t last_cumulative = 0;
    double last_le = -1.0;
    bool saw_inf = false;
    std::uint64_t inf_value = 0;
    std::uint64_t count_value = 0;
    for (const Sample& s : fam.samples) {
      if (s.name == fam.name + "_count") {
        count_value = static_cast<std::uint64_t>(std::stod(s.value));
        continue;
      }
      if (s.name != fam.name + "_bucket") continue;
      const auto le = s.labels.find("le");
      ASSERT_NE(le, s.labels.end()) << "bucket without le label in " << fam.name;
      const std::uint64_t cumulative = static_cast<std::uint64_t>(std::stod(s.value));
      EXPECT_GE(cumulative, last_cumulative) << "non-cumulative buckets in " << fam.name;
      last_cumulative = cumulative;
      if (le->second == "+Inf") {
        saw_inf = true;
        inf_value = cumulative;
      } else {
        EXPECT_FALSE(saw_inf) << "+Inf bucket is not last in " << fam.name;
        const double bound = std::stod(le->second);
        EXPECT_GT(bound, last_le) << "le bounds not ascending in " << fam.name;
        last_le = bound;
      }
    }
    EXPECT_TRUE(saw_inf) << "histogram without +Inf bucket: " << fam.name;
    EXPECT_EQ(inf_value, count_value) << "+Inf bucket != _count in " << fam.name;
  }
}

TEST(PrometheusGrammar, EveryCollectorKindEmitsValidFamilies) {
  Registry& reg = registry();
  reg.reset();
  reg.counter("gram.hits").add(3);
  reg.gauge("gram.level").set(-7);
  reg.histogram("gram.sizes").record(1);
  reg.histogram("gram.sizes").record(100);
  QuantileSketch sketch;
  for (std::uint64_t i = 1; i <= 50; ++i) sketch.record(i);
  reg.sketch("gram.lat").merge(sketch);

  ExemplarReservoir reservoir(11, 2);
  for (std::uint64_t i = 0; i < 40; ++i) {
    Exemplar e;
    e.seq = i;
    e.s = static_cast<std::uint32_t>(i);
    e.t = static_cast<std::uint32_t>(i + 1);
    e.latency_ns = (i % 7) * 50 + 1;
    e.scan_cost = i;
    e.meeting_hub = static_cast<std::uint32_t>(i % 3);
    reservoir.offer(e);
  }
  ExemplarStore& store = reg.exemplar("gram.exemplars");
  store.configure(11, 2);
  store.merge(reservoir);
  HeavyHitter& hh = reg.heavy_hitter("gram.hot");
  hh.add(5, 100);
  hh.add(9, 40);

  std::ostringstream os;
  write_prometheus_text(reg, os);
  std::vector<Family> families;
  parse_exposition(os.str(), families);
  check_families(families);
  reg.reset();

  // With the registry compiled out the dump is empty: the parse/check
  // above still proves the writer emits a valid (vacuous) document, but
  // the per-family content below only exists with live collectors.
#if HUBLAB_METRICS_ENABLED
  std::map<std::string, std::string> kinds;
  for (const Family& fam : families) kinds[fam.name] = fam.kind;
  EXPECT_EQ(kinds["hublab_gram_hits"], "counter");
  EXPECT_EQ(kinds["hublab_gram_level"], "gauge");
  EXPECT_EQ(kinds["hublab_gram_sizes"], "histogram");
  EXPECT_EQ(kinds["hublab_gram_lat"], "summary");
  EXPECT_EQ(kinds["hublab_gram_exemplars"], "histogram");
  EXPECT_EQ(kinds["hublab_gram_hot"], "gauge");

  // The exemplar store must attach at least one exemplar suffix, and the
  // heavy hitter must carry the exact total series.
  bool any_exemplar = false;
  bool hh_total = false;
  for (const Family& fam : families) {
    for (const Sample& s : fam.samples) {
      if (fam.name == "hublab_gram_exemplars" && s.has_exemplar) any_exemplar = true;
      if (fam.name == "hublab_gram_hot") {
        const auto key = s.labels.find("key");
        ASSERT_NE(key, s.labels.end());
        if (key->second == "total") {
          hh_total = true;
          EXPECT_EQ(s.value, "140");
        }
      }
    }
  }
  EXPECT_TRUE(any_exemplar);
  EXPECT_TRUE(hh_total);
#endif  // HUBLAB_METRICS_ENABLED
}

TEST(PrometheusGrammar, ServeSimPromOutRoundTrips) {
  const std::string graph = testing::TempDir() + "/prom_rt_graph.txt";
  const std::string prom = testing::TempDir() + "/prom_rt_dump.txt";
  std::ostringstream out;
  ASSERT_EQ(cli::run({"gen", "gadget-g", "--b", "2", "--l", "1", "-o", graph}, out, out), 0)
      << out.str();
  ASSERT_EQ(cli::run({"serve", graph, "--arrival", "closed", "--batch", "1", "--smoke",
                      "--slow-query-ms", "0.0001", "--window-ms", "5", "--json-out",
                      testing::TempDir() + "/prom_rt.json", "--prom-out", prom},
                     out, out),
            0)
      << out.str();

  std::ifstream in(prom);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  std::vector<Family> families;
  parse_exposition(buf.str(), families);
  check_families(families);

#if HUBLAB_METRICS_ENABLED
  std::map<std::string, std::string> kinds;
  for (const Family& fam : families) kinds[fam.name] = fam.kind;
  EXPECT_EQ(kinds["hublab_serve_query_ns"], "summary");
  EXPECT_EQ(kinds["hublab_serve_query_exemplars"], "histogram");
  EXPECT_EQ(kinds["hublab_hub_scan_cost"], "gauge");
  EXPECT_EQ(kinds["hublab_serve_slow_queries"], "counter");
  EXPECT_EQ(kinds["hublab_serve_window_count"], "gauge");
#endif  // HUBLAB_METRICS_ENABLED
  std::remove(graph.c_str());
  std::remove(prom.c_str());
}

}  // namespace
}  // namespace hublab::metrics
