#pragma once

#include <cstddef>
#include <filesystem>
#include <iosfwd>
#include <string>
#include <vector>

/// \file lint.hpp
/// The hublab multi-pass static analyzer (see docs/correctness.md, "The
/// hublab_lint analyzer").
///
/// The analyzer loads every .cpp/.hpp under src/, tools/, tests/ and bench/
/// of a repo root into a `SourceFile` model (raw text, comment/string-
/// stripped lines, extracted include edges), then runs six passes over the
/// shared model:
///
///   style        the line-level conventions inherited from the original
///                single-pass linter (rng-source, stdout-in-library, raw-io,
///                raw-thread, pragma-once, include-hygiene, file-doc,
///                assert-guard, self-contained, bench-harness);
///   layering     the architecture DAG: util -> graph -> {algo, hub,
///                labeling, rs, matching, sumindex, lowerbound} -> oracle ->
///                bench/tools/tests; no upward edges, no include cycles
///                (layer-upward, layer-cycle);
///   determinism  order-unstable idioms that would break the byte-identical
///                contract of docs/performance.md: range-for over
///                std::unordered_* containers, clock reads outside
///                util/timer.hpp + util/rng.hpp, floating-point accumulation
///                inside parallel_for/run_chunks bodies (unordered-iter,
///                wall-clock, float-reduce);
///   concurrency  every atomic operation names an explicit std::memory_order,
///                volatile is never used as a synchronization primitive, and
///                mutexes are locked through RAII guards in the declaring TU
///                (atomic-order, volatile-sync, mutex-guard);
///   drift        every metrics::counter/gauge/histogram/sketch name and
///                tracer span name used in src/ appears in the taxonomy
///                tables of docs/observability.md and vice versa
///                (metric-doc-drift, span-doc-drift);
///   simd         raw SIMD intrinsics (identifiers starting `_mm`, vector
///                types `__m128`/`__m256`/`__m512`) are confined to the
///                src/hub/simd_kernel* TUs of the batched query kernel
///                (simd).
///
/// Findings can be silenced inline with a `hublab-lint-allow(<rule>)`
/// comment on the offending line or the line above.  Reports are emitted
/// as human-readable text and, on request, SARIF 2.1.0.

namespace hublab::lint {

namespace fs = std::filesystem;

/// One reported violation, repo-relative.
struct Finding {
  std::string file;
  std::size_t line = 0;
  std::string rule;
  std::string message;
};

/// Rule metadata for the SARIF `rules` array and the documentation table.
struct RuleInfo {
  std::string id;
  std::string summary;
};

/// Every implemented rule, in stable catalog order.
const std::vector<RuleInfo>& rule_catalog();

/// One `#include` directive found in a file.
struct IncludeEdge {
  std::string target;     ///< text between the quotes / angle brackets
  std::size_t line = 0;   ///< 1-based
  bool quoted = false;    ///< `"..."` (project) vs `<...>` (system)
};

/// The shared per-file model every pass consumes.
struct SourceFile {
  fs::path abs;                        ///< absolute path on disk
  std::string rel;                     ///< repo-relative, generic separators
  std::string module;                  ///< "util", "graph", ..., "tools", "tests", "bench"
  std::string text;                    ///< raw bytes
  std::vector<std::string> raw_lines;  ///< raw text split at '\n'
  std::vector<std::string> code;       ///< comment/string-stripped, same line count
  std::string flat;                    ///< stripped lines joined with '\n'
  std::vector<std::size_t> flat_line;  ///< flat offset -> 1-based line number
  std::vector<IncludeEdge> includes;
  bool is_header = false;
  bool in_src = false;
};

/// Collects findings, applying inline suppression markers as they arrive.
class Sink {
 public:
  /// Record a finding anchored in a scanned file; dropped (and counted) when
  /// an inline `hublab-lint-allow(rule)` marker covers the line.
  void add(const SourceFile& file, std::size_t line, const std::string& rule,
           std::string message);

  /// Record a finding in a file outside the scanned tree (e.g. the
  /// observability doc); inline suppression does not apply.
  void add_external(std::string file, std::size_t line, const std::string& rule,
                    std::string message);

  std::vector<Finding> findings;
  std::size_t suppressed = 0;
};

struct Options {
  fs::path root;
  std::string compiler = "c++";
  bool check_headers = true;        ///< run the -fsyntax-only self-containment probe
};

struct Report {
  std::vector<Finding> findings;    ///< surviving, sorted by (file, line, rule)
  std::size_t files_scanned = 0;
  std::size_t suppressed = 0;       ///< silenced by inline markers
};

/// Run every pass over `opt.root` and return the surviving findings.
/// Throws std::runtime_error when `opt.root` has no src/.
Report run_lint(const Options& opt);

// --- source model (source_model.cpp) ---------------------------------------

[[nodiscard]] bool is_ident_char(char c);

/// True when `text` contains `ident` as a whole identifier (not a substring
/// of a longer identifier).
[[nodiscard]] bool contains_identifier(const std::string& text, const std::string& ident);

/// The last identifier of a range-for range expression: `st.groups` ->
/// "groups", `adj_[u]` -> "adj_", `dist` -> "dist".  Empty when none.
[[nodiscard]] std::string last_identifier(const std::string& expr);

/// Load every .cpp/.hpp under root/{src,tools,tests,bench}, sorted by
/// relative path.  Directories named `lint_fixtures` are skipped so the
/// seeded violation trees under tests/ never count against the real repo.
[[nodiscard]] std::vector<SourceFile> load_tree(const fs::path& root);

/// True when line `line` (1-based) of `file` carries an inline suppression
/// marker for `rule` on itself or the line above.
[[nodiscard]] bool inline_suppressed(const SourceFile& file, std::size_t line,
                                     const std::string& rule);

// --- passes ----------------------------------------------------------------

void pass_style(const std::vector<SourceFile>& files, const Options& opt, Sink& sink);
void pass_layering(const std::vector<SourceFile>& files, const Options& opt, Sink& sink);
void pass_determinism(const std::vector<SourceFile>& files, const Options& opt, Sink& sink);
void pass_concurrency(const std::vector<SourceFile>& files, const Options& opt, Sink& sink);
void pass_drift(const std::vector<SourceFile>& files, const Options& opt, Sink& sink);
void pass_simd(const std::vector<SourceFile>& files, const Options& opt, Sink& sink);

// --- reporting (report.cpp) ------------------------------------------------

void write_text(std::ostream& out, const Report& report);
void write_sarif(std::ostream& out, const Report& report);

}  // namespace hublab::lint
