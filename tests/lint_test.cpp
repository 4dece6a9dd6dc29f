// Golden-fixture suite for the hublab_lint multi-pass analyzer.
//
// tests/lint_fixtures/ holds three miniature repo roots (skipped by the
// analyzer's own tree walk):
//   violations/    one seeded violation file per rule; every finding is
//                  asserted here by exact (file, line, rule);
//   suppressed/    the same kinds of violations silenced by inline
//                  markers;
//   selfcontained/ one header that fails the -fsyntax-only probe (kept
//                  separate so the other fixtures run without a compiler).
//
// The exit-code contract (0 clean / 1 findings / 2 usage) and the SARIF
// emitter are exercised through the real binary (HUBLAB_LINT_BIN).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#endif

#include "src/util/json.hpp"
#include "tools/lint/lint.hpp"

namespace {

using hublab::lint::Finding;
using hublab::lint::Options;
using hublab::lint::Report;
using hublab::lint::run_lint;

const std::string kFixtures = HUBLAB_LINT_FIXTURES;
const std::string kLintBin = HUBLAB_LINT_BIN;

Report lint_fixture(const std::string& name, bool check_headers = false) {
  Options opt;
  opt.root = kFixtures + "/" + name;
  opt.check_headers = check_headers;
  return run_lint(opt);
}

/// Run the real binary, returning its exit code.
int run_binary(const std::string& args) {
  const std::string cmd = kLintBin + " " + args + " > /dev/null 2>&1";
  const int rc = std::system(cmd.c_str());
#if defined(__unix__) || defined(__APPLE__)
  return WEXITSTATUS(rc);
#else
  return rc;
#endif
}

using Triple = std::tuple<std::string, std::size_t, std::string>;

std::vector<Triple> triples(const Report& report) {
  std::vector<Triple> out;
  out.reserve(report.findings.size());
  for (const Finding& f : report.findings) out.emplace_back(f.file, f.line, f.rule);
  return out;
}

TEST(LintFixtures, ViolationsReportExactFileLineRule) {
  const Report report = lint_fixture("violations");
  const std::vector<Triple> expected = {
      {"bench/bench_bad.cpp", 1, "bench-harness"},
      {"docs/observability.md", 8, "metric-doc-drift"},
      {"docs/observability.md", 10, "metric-doc-drift"},
      {"docs/observability.md", 18, "span-doc-drift"},
      {"src/algo/bad_atomic.cpp", 9, "atomic-order"},
      {"src/algo/bad_atomic.cpp", 9, "atomic-order"},
      {"src/algo/bad_clock.cpp", 6, "wall-clock"},
      {"src/algo/bad_iter.cpp", 9, "unordered-iter"},
      {"src/algo/bad_metrics.cpp", 9, "metric-doc-drift"},
      {"src/algo/bad_metrics.cpp", 11, "metric-doc-drift"},
      {"src/algo/bad_metrics.cpp", 12, "metric-doc-drift"},
      {"src/algo/bad_metrics.cpp", 15, "span-doc-drift"},
      {"src/algo/bad_mutex.cpp", 11, "mutex-guard"},
      {"src/algo/bad_mutex.cpp", 13, "mutex-guard"},
      {"src/algo/bad_reduce.cpp", 7, "float-reduce"},
      {"src/algo/bad_simd.cpp", 6, "simd"},
      {"src/algo/bad_simd.cpp", 7, "simd"},
      {"src/algo/bad_volatile.cpp", 5, "volatile-sync"},
      {"src/graph/bad_layer.cpp", 3, "layer-upward"},
      {"src/graph/bad_mutator.cpp", 7, "assert-guard"},
      {"src/hub/cycle_b.hpp", 6, "layer-cycle"},
      {"src/util/bad_include.cpp", 3, "include-hygiene"},
      {"src/util/bad_include.cpp", 4, "include-hygiene"},
      {"src/util/bad_io.cpp", 5, "raw-io"},
      {"src/util/bad_rng.cpp", 6, "rng-source"},
      {"src/util/bad_stdout.cpp", 5, "stdout-in-library"},
      {"src/util/bad_thread.cpp", 5, "raw-thread"},
      {"src/util/no_filedoc.hpp", 1, "file-doc"},
      {"src/util/no_pragma.hpp", 1, "pragma-once"},
  };
  EXPECT_EQ(triples(report), expected);
  EXPECT_EQ(report.suppressed, 0U);
}

TEST(LintFixtures, SelfContainmentProbeFlagsBrokenHeader) {
  const Report report = lint_fixture("selfcontained", /*check_headers=*/true);
  const std::vector<Triple> expected = {
      {"src/util/bad_header.hpp", 1, "self-contained"},
  };
  EXPECT_EQ(triples(report), expected);
}

TEST(LintFixtures, EveryCatalogRuleIsProvenLive) {
  std::set<std::string> fired;
  for (const Finding& f : lint_fixture("violations").findings) {
    fired.insert(f.rule);
  }
  for (const Finding& f : lint_fixture("selfcontained", true).findings) {
    fired.insert(f.rule);
  }
  std::set<std::string> catalog;
  for (const auto& rule : hublab::lint::rule_catalog()) catalog.insert(rule.id);
  EXPECT_EQ(fired, catalog) << "every catalog rule must have a firing fixture, "
                               "and every finding must use a cataloged rule id";
}

TEST(LintFixtures, InlineMarkersSilenceEverything) {
  const Report report = lint_fixture("suppressed");
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.suppressed, 3U);  // raw-io, wall-clock, simd
}

TEST(LintBinary, ExitCodeContract) {
  const std::string violations = kFixtures + "/violations";
  const std::string suppressed = kFixtures + "/suppressed";
  EXPECT_EQ(run_binary("--root " + violations + " --no-header-check"), 1);
  EXPECT_EQ(run_binary("--root " + suppressed), 0);
  EXPECT_EQ(run_binary("--bogus-flag"), 2);
  EXPECT_EQ(run_binary("--root " + kFixtures + "/does-not-exist"), 2);
}

TEST(LintBinary, SarifOutputIsValidAndComplete) {
  const std::string sarif_path = testing::TempDir() + "/hublab_lint_test.sarif";
  const int rc = run_binary("--root " + kFixtures +
                            "/violations --no-header-check --sarif " +
                            sarif_path);
  EXPECT_EQ(rc, 1);

  std::ifstream in(sarif_path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const hublab::JsonValue doc = hublab::parse_json(buf.str());

  ASSERT_TRUE(doc.is_object());
  ASSERT_NE(doc.find("version"), nullptr);
  EXPECT_EQ(doc.find("version")->string_value, "2.1.0");

  const hublab::JsonValue* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_TRUE(runs->is_array());
  ASSERT_EQ(runs->array_items.size(), 1U);
  const hublab::JsonValue& run = runs->array_items[0];

  // One reportingDescriptor per cataloged rule.
  const hublab::JsonValue* tool = run.find("tool");
  ASSERT_NE(tool, nullptr);
  const hublab::JsonValue* driver = tool->find("driver");
  ASSERT_NE(driver, nullptr);
  const hublab::JsonValue* rules = driver->find("rules");
  ASSERT_NE(rules, nullptr);
  ASSERT_TRUE(rules->is_array());
  std::set<std::string> rule_ids;
  for (const auto& rule : rules->array_items) {
    ASSERT_NE(rule.find("id"), nullptr);
    rule_ids.insert(rule.find("id")->string_value);
  }
  EXPECT_EQ(rule_ids.size(), hublab::lint::rule_catalog().size());

  // One result per finding, each naming a cataloged rule and a location.
  const hublab::JsonValue* results = run.find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_TRUE(results->is_array());
  EXPECT_EQ(results->array_items.size(), 29U);
  for (const auto& result : results->array_items) {
    ASSERT_NE(result.find("ruleId"), nullptr);
    EXPECT_EQ(rule_ids.count(result.find("ruleId")->string_value), 1U);
    const hublab::JsonValue* locations = result.find("locations");
    ASSERT_NE(locations, nullptr);
    ASSERT_EQ(locations->array_items.size(), 1U);
  }
  std::remove(sarif_path.c_str());
}

TEST(LintModel, InlineSuppressionPlacements) {
  hublab::lint::SourceFile f;
  f.rel = "src/x.cpp";
  f.raw_lines = {
      "int a;  // hublab-lint-allow(raw-io)",
      "int b;",
      "// hublab-lint-allow(wall-clock)",
      "int c;",
      "// hublab-lint: allow raw-thread",
      "int d;",
  };
  EXPECT_TRUE(hublab::lint::inline_suppressed(f, 1, "raw-io"));
  EXPECT_FALSE(hublab::lint::inline_suppressed(f, 1, "wall-clock"));
  // A marker also covers the line directly below it, wherever it sits.
  EXPECT_TRUE(hublab::lint::inline_suppressed(f, 2, "raw-io"));
  EXPECT_FALSE(hublab::lint::inline_suppressed(f, 3, "raw-io"));
  EXPECT_TRUE(hublab::lint::inline_suppressed(f, 4, "wall-clock"));  // line above
  EXPECT_FALSE(hublab::lint::inline_suppressed(f, 4, "raw-io"));
  // Only the hublab-lint-allow(<rule>) spelling is a marker.
  EXPECT_FALSE(hublab::lint::inline_suppressed(f, 5, "raw-thread"));
  EXPECT_FALSE(hublab::lint::inline_suppressed(f, 6, "raw-thread"));
}

TEST(LintModel, LastIdentifierPeelsIndexAndCallSuffixes) {
  EXPECT_EQ(hublab::lint::last_identifier("st.groups"), "groups");
  EXPECT_EQ(hublab::lint::last_identifier("adj_[u]"), "adj_");
  EXPECT_EQ(hublab::lint::last_identifier("upward_search(v)"), "upward_search");
  EXPECT_EQ(hublab::lint::last_identifier("dist"), "dist");
  EXPECT_EQ(hublab::lint::last_identifier("42"), "42");
}

}  // namespace
