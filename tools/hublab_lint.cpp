// hublab_lint: the repo's multi-pass static analyzer (see docs/correctness.md
// and tools/lint/lint.hpp for the pass and rule catalog).
//
// Usage:
//   hublab_lint [--root DIR] [--compiler CXX] [--no-header-check]
//               [--sarif OUT.sarif]
//
// Exit codes: 0 clean, 1 findings, 2 usage/configuration error.  Text goes
// to stdout; --sarif additionally writes a SARIF 2.1.0 file.

#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "tools/lint/lint.hpp"

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--root DIR] [--compiler CXX] [--no-header-check] [--sarif OUT.sarif]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hublab::lint::Options opt;
  opt.root = hublab::lint::fs::current_path();
  std::string sarif_out;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      opt.root = argv[++i];
    } else if (arg == "--compiler" && i + 1 < argc) {
      opt.compiler = argv[++i];
    } else if (arg == "--no-header-check") {
      opt.check_headers = false;
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_out = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  hublab::lint::Report report;
  try {
    report = hublab::lint::run_lint(opt);
  } catch (const std::exception& e) {
    std::cerr << "hublab_lint: " << e.what() << "\n";
    return 2;
  }

  if (!sarif_out.empty()) {
    std::ofstream out(sarif_out, std::ios::trunc);
    if (!out) {
      std::cerr << "hublab_lint: cannot write " << sarif_out << "\n";
      return 2;
    }
    hublab::lint::write_sarif(out, report);
  }
  hublab::lint::write_text(std::cout, report);
  return report.findings.empty() ? 0 : 1;
}
