// Report emission: human-readable text, and SARIF 2.1.0 (one
// reportingDescriptor per rule in the catalog, one result per finding) for
// code-scanning UIs.

#include <ostream>

#include "src/util/json.hpp"
#include "tools/lint/lint.hpp"

namespace hublab::lint {

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kRules = {
      // style pass
      {"rng-source", "randomness comes from util/rng.hpp with an explicit seed"},
      {"stdout-in-library", "src/ never writes to stdout"},
      {"raw-io", "diagnostics route through the structured logger, not fprintf/cerr"},
      {"raw-thread", "threads are spawned only by the util/parallel.cpp pool"},
      {"pragma-once", "headers start with #pragma once"},
      {"include-hygiene", "project includes resolve from src/ or the repo root, no ../"},
      {"file-doc", "src/ headers carry a /// \\file comment"},
      {"assert-guard", "public mutating APIs validate before mutating"},
      {"self-contained", "src/ headers compile on their own"},
      {"bench-harness", "bench binaries run through bench/harness.hpp"},
      // layering pass
      {"layer-upward", "no include from a lower architecture layer into a higher one"},
      {"layer-cycle", "the include graph and the middle-layer directory graph are acyclic"},
      // determinism pass
      {"unordered-iter", "no range-for over std::unordered_* containers"},
      {"wall-clock", "clocks are read only through util/timer.hpp helpers"},
      {"float-reduce", "no floating-point accumulation inside parallel bodies"},
      // concurrency pass
      {"atomic-order", "atomic operations name an explicit std::memory_order"},
      {"volatile-sync", "volatile is never used as a synchronization primitive"},
      {"mutex-guard", "mutexes are locked through RAII guards in the declaring TU"},
      // drift pass
      {"metric-doc-drift", "registry metric names match docs/observability.md"},
      {"span-doc-drift", "tracer span names match docs/observability.md"},
      // simd pass
      {"simd", "raw SIMD intrinsics are confined to the src/hub/simd_kernel* TUs"},
  };
  return kRules;
}

void write_text(std::ostream& out, const Report& report) {
  for (const Finding& f : report.findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message << "\n";
  }
  out << "hublab_lint: " << report.findings.size() << " finding(s) across "
      << report.files_scanned << " file(s)";
  if (report.suppressed != 0) out << ", " << report.suppressed << " suppressed inline";
  out << "\n";
}

void write_sarif(std::ostream& out, const Report& report) {
  JsonWriter w(out);
  w.begin_object();
  w.kv("version", "2.1.0");
  w.kv("$schema",
       "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/"
       "sarif-schema-2.1.0.json");
  w.key("runs").begin_array();
  w.begin_object();

  w.key("tool").begin_object();
  w.key("driver").begin_object();
  w.kv("name", "hublab_lint");
  w.kv("informationUri", "docs/correctness.md");
  w.key("rules").begin_array();
  for (const RuleInfo& rule : rule_catalog()) {
    w.begin_object();
    w.kv("id", rule.id);
    w.key("shortDescription").begin_object();
    w.kv("text", rule.summary);
    w.end_object();
    w.end_object();
  }
  w.end_array();  // rules
  w.end_object();  // driver
  w.end_object();  // tool

  w.key("results").begin_array();
  for (const Finding& f : report.findings) {
    w.begin_object();
    w.kv("ruleId", f.rule);
    w.kv("level", "error");
    w.key("message").begin_object();
    w.kv("text", f.message);
    w.end_object();
    w.key("locations").begin_array();
    w.begin_object();
    w.key("physicalLocation").begin_object();
    w.key("artifactLocation").begin_object();
    w.kv("uri", f.file);
    w.end_object();
    w.key("region").begin_object();
    w.kv("startLine", static_cast<std::uint64_t>(f.line == 0 ? 1 : f.line));
    w.end_object();
    w.end_object();  // physicalLocation
    w.end_object();
    w.end_array();  // locations
    w.end_object();
  }
  w.end_array();  // results

  w.end_object();  // run
  w.end_array();  // runs
  w.end_object();
  out << "\n";
}

}  // namespace hublab::lint
