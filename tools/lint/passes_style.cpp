// Style pass: the line-level conventions inherited from the original
// single-pass linter.  Rules: rng-source, stdout-in-library, raw-io,
// raw-thread, pragma-once, include-hygiene, file-doc, assert-guard,
// self-contained, bench-harness.
//
// Banned tokens are assembled from fragments below so this file does not
// flag itself.

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "tools/lint/lint.hpp"

namespace hublab::lint {

namespace {

void check_banned_tokens(const SourceFile& f, Sink& sink) {
  // Identifiers assembled from fragments so this file stays clean.
  const std::string k_mt = std::string("mt19") + "937";
  const std::string k_mt64 = k_mt + "_64";
  const std::string k_rand = std::string("ra") + "nd";
  const std::string k_srand = "s" + k_rand;
  const std::string k_rand_dev = k_rand + "om_device";
  const std::string k_rand_eng = "default_" + k_rand + "om_engine";
  const std::string k_minstd = std::string("minstd_") + k_rand;
  const std::vector<std::string> rng_idents = {k_mt,    k_mt64,     k_rand,    k_srand,
                                               k_rand_dev, k_rand_eng, k_minstd};

  const std::string k_cout = std::string("co") + "ut";
  const std::string k_printf = std::string("print") + "f";
  const std::string k_puts = std::string("pu") + "ts";
  const std::string k_putchar = std::string("put") + "char";
  const std::string k_stdout = std::string("std") + "out";
  const std::vector<std::string> stdout_idents = {k_cout, k_printf, k_puts, k_putchar,
                                                  k_stdout};

  const bool rng_allowed = f.rel == "src/util/rng.hpp";
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    if (!rng_allowed) {
      for (const std::string& ident : rng_idents) {
        if (contains_identifier(f.code[i], ident)) {
          sink.add(f, i + 1, "rng-source",
                   "`" + ident + "` bypasses the deterministic hublab::Rng; " +
                       "take an explicit seed and use util/rng.hpp");
        }
      }
    }
    if (f.in_src) {
      for (const std::string& ident : stdout_idents) {
        if (contains_identifier(f.code[i], ident)) {
          sink.add(f, i + 1, "stdout-in-library",
                   "`" + ident + "` writes to stdout from library code; report through " +
                       "return values/exceptions or a caller-supplied std::ostream");
        }
      }
    }
  }
}

/// raw-io: src/ never writes diagnostics through fprintf / std::cerr
/// directly; everything routes through the structured logger (util/log.hpp),
/// whose sink (log.cpp) is the one sanctioned writer.
void check_raw_io(const SourceFile& f, Sink& sink) {
  if (f.rel == "src/util/log.cpp") return;  // the logger's default sink
  const std::string k_fprintf = std::string("fpr") + "intf";
  const std::string k_cerr = std::string("ce") + "rr";
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    for (const std::string& ident : {k_fprintf, k_cerr}) {
      if (contains_identifier(f.code[i], ident)) {
        sink.add(f, i + 1, "raw-io",
                 "`" + ident + "` bypasses the structured logger; use HUBLAB_LOG_* " +
                     "(util/log.hpp), or mark an untrusted crash path with " +
                     "`hublab-lint-allow(raw-io)`");
      }
    }
  }
}

/// raw-thread: src/ never spawns threads directly -- std::thread,
/// std::jthread and std::async are confined to util/parallel.cpp, the pool
/// behind parallel_for (docs/performance.md).
void check_raw_thread(const SourceFile& f, Sink& sink) {
  if (f.rel == "src/util/parallel.cpp") return;  // the sanctioned pool
  const std::string k_thread = std::string("th") + "read";
  const std::string k_jthread = "j" + k_thread;
  const std::string k_async = std::string("as") + "ync";
  const std::string rule = "raw-" + k_thread;
  for (std::size_t i = 0; i < f.code.size(); ++i) {
    for (const std::string& ident : {k_thread, k_jthread, k_async}) {
      if (contains_identifier(f.code[i], ident)) {
        sink.add(f, i + 1, rule,
                 "`" + ident + "` spawns threads outside util/parallel.cpp; use parallel_for " +
                     "(util/parallel.hpp) so results stay deterministic across thread counts, " +
                     "or mark a sanctioned use with `hublab-lint-allow(" + rule + ")`");
      }
    }
  }
}

void check_pragma_once(const SourceFile& f, Sink& sink) {
  for (const std::string& line : f.code) {
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;  // blank / comment-only line
    if (line.compare(first, 12, "#pragma once") == 0) return;
    break;
  }
  sink.add(f, 1, "pragma-once", "headers start with #pragma once");
}

void check_includes(const SourceFile& f, const Options& opt, Sink& sink) {
  for (const IncludeEdge& inc : f.includes) {
    if (inc.target.find("..") != std::string::npos) {
      sink.add(f, inc.line, "include-hygiene",
               "#include \"" + inc.target + "\" uses a relative ../ path; include project " +
                   "headers by their path from src/");
      continue;
    }
    if (inc.quoted) {
      // Quoted includes are project headers addressed from src/ (library)
      // or from the repo root (tools/ headers used by tools and tests).
      const bool from_src = fs::exists(opt.root / "src" / inc.target);
      const bool from_root = fs::exists(opt.root / inc.target);
      if (!from_src && !from_root) {
        sink.add(f, inc.line, "include-hygiene",
                 "#include \"" + inc.target + "\" does not resolve under src/ or the repo " +
                     "root; system headers use <...>, project headers their canonical path");
      }
    }
  }
}

/// [open brace, close brace] offsets of every `namespace { ... }` body in
/// `text`, nested ones included.
std::vector<std::pair<std::size_t, std::size_t>> anonymous_namespaces(const std::string& text) {
  static const std::string kKeyword = "namespace";
  std::vector<std::pair<std::size_t, std::size_t>> bodies;
  for (std::size_t p = text.find(kKeyword); p != std::string::npos;
       p = text.find(kKeyword, p + 1)) {
    std::size_t open = p + kKeyword.size();
    if ((p > 0 && is_ident_char(text[p - 1])) ||
        (open < text.size() && is_ident_char(text[open]))) {
      continue;
    }
    while (open < text.size() && std::isspace(static_cast<unsigned char>(text[open])) != 0) {
      ++open;
    }
    if (open >= text.size() || text[open] != '{') continue;  // named namespace or alias
    std::size_t close = open;
    std::size_t depth = 0;
    while (close < text.size()) {
      if (text[close] == '{') ++depth;
      if (text[close] == '}' && --depth == 0) break;
      ++close;
    }
    bodies.emplace_back(open, close);
  }
  return bodies;
}

/// Public mutating APIs must validate before mutating.  Finds definitions
/// of add_*/insert_*/remove_*/set_* functions and requires HUBLAB_ASSERT*
/// or a throw in the body.  `add_vertex` is exempt: appending a fresh
/// vertex has no precondition.  Definitions inside an anonymous namespace
/// have internal linkage, so they are helpers, not APIs, and are skipped.
void check_mutator_guards(const SourceFile& f, Sink& sink) {
  const std::string& text = f.flat;
  const auto internal = anonymous_namespaces(text);
  const auto is_internal = [&internal](std::size_t at) {
    return std::any_of(internal.begin(), internal.end(),
                       [at](const auto& body) { return body.first < at && at < body.second; });
  };
  static const std::vector<std::string> kPrefixes = {"add_", "insert_", "remove_", "set_"};
  static const std::vector<std::string> kExempt = {"add_vertex"};

  std::size_t pos = 0;
  while (pos < text.size()) {
    // Find the next identifier starting with a mutator prefix.
    std::size_t best = std::string::npos;
    for (const std::string& prefix : kPrefixes) {
      std::size_t p = text.find(prefix, pos);
      while (p != std::string::npos && p > 0 && is_ident_char(text[p - 1])) {
        p = text.find(prefix, p + 1);
      }
      if (p != std::string::npos && (best == std::string::npos || p < best)) best = p;
    }
    if (best == std::string::npos) break;

    std::size_t end = best;
    while (end < text.size() && is_ident_char(text[end])) ++end;
    const std::string name = text.substr(best, end - best);
    pos = end;

    if (std::find(kExempt.begin(), kExempt.end(), name) != kExempt.end()) continue;
    // Member calls (`b.add_edge(...)`, `ptr->insert_edge(...)`) are uses,
    // not definitions.
    if (best > 0 && (text[best - 1] == '.' ||
                     (best > 1 && text[best - 2] == '-' && text[best - 1] == '>'))) {
      continue;
    }
    std::size_t after = end;
    while (after < text.size() && std::isspace(static_cast<unsigned char>(text[after])) != 0) {
      ++after;
    }
    if (after >= text.size() || text[after] != '(') continue;

    // Match the parameter list, then look for `{` (definition) vs `;`.
    std::size_t depth = 0;
    std::size_t scan = after;
    while (scan < text.size()) {
      if (text[scan] == '(') ++depth;
      if (text[scan] == ')' && --depth == 0) break;
      ++scan;
    }
    if (scan >= text.size()) continue;
    ++scan;
    while (scan < text.size() && text[scan] != '{' && text[scan] != ';' && text[scan] != ',' &&
           text[scan] != ')' && text[scan] != '=') {
      ++scan;
    }
    if (scan >= text.size() || text[scan] != '{') continue;  // declaration or call

    // Brace-match the body.
    const std::size_t body_begin = scan;
    std::size_t braces = 0;
    while (scan < text.size()) {
      if (text[scan] == '{') ++braces;
      if (text[scan] == '}' && --braces == 0) break;
      ++scan;
    }
    const std::string body = text.substr(body_begin, scan - body_begin);
    const bool guarded = body.find("HUBLAB_ASSERT") != std::string::npos ||
                         contains_identifier(body, "throw");
    if (!guarded && !is_internal(best)) {
      sink.add(f, f.flat_line[std::min(best, f.flat_line.size() - 1)], "assert-guard",
               "public mutating API `" + name +
                   "` has no HUBLAB_ASSERT*/throw precondition before mutating");
    }
    pos = scan;
  }
}

void check_header_self_containment(const std::vector<SourceFile>& files, const Options& opt,
                                   Sink& sink) {
  const fs::path probe = fs::temp_directory_path() / "hublab_lint_header_probe.cpp";
  for (const SourceFile& f : files) {
    if (!f.is_header || !f.in_src) continue;
    {
      std::ofstream out(probe, std::ios::trunc);
      out << "#include \"" << f.rel.substr(4) << "\"\n";  // path from src/
    }
    const std::string cmd = opt.compiler + " -std=c++20 -fsyntax-only -I \"" +
                            (opt.root / "src").string() + "\" \"" + probe.string() + "\"";
    if (std::system(cmd.c_str()) != 0) {
      sink.add(f, 1, "self-contained",
               "header does not compile on its own; add the includes it is missing");
    }
  }
  fs::remove(probe);
}

}  // namespace

void pass_style(const std::vector<SourceFile>& files, const Options& opt, Sink& sink) {
  for (const SourceFile& f : files) {
    check_banned_tokens(f, sink);
    if (f.in_src) {
      check_raw_io(f, sink);
      check_raw_thread(f, sink);
    }
    check_includes(f, opt, sink);
    // Raw text, not stripped lines: the include target lives inside quotes.
    if (f.rel.rfind("bench/bench_", 0) == 0 && !f.is_header &&
        f.text.find("#include \"bench/harness.hpp\"") == std::string::npos) {
      sink.add(f, 1, "bench-harness",
               "bench binaries construct a bench::Harness (bench/harness.hpp) so they honour "
               "--smoke/--json-out and emit schema-valid BENCH_*.json");
    }
    if (f.is_header) {
      check_pragma_once(f, sink);
      if (f.in_src && f.text.find("\\file") == std::string::npos) {
        sink.add(f, 1, "file-doc",
                 "src/ headers document their role with a `/// \\file` comment");
      }
    }
    if (f.in_src && (f.rel.rfind("src/graph/", 0) == 0 || f.rel.rfind("src/hub/", 0) == 0 ||
                     f.rel.rfind("src/lowerbound/", 0) == 0)) {
      check_mutator_guards(f, sink);
    }
  }
  if (opt.check_headers) check_header_self_containment(files, opt, sink);
}

}  // namespace hublab::lint
