// run_lint: load the tree, run the six passes over the shared model, and
// return the findings sorted by (file, line, rule).

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "tools/lint/lint.hpp"

namespace hublab::lint {

Report run_lint(const Options& opt) {
  if (!fs::exists(opt.root / "src")) {
    throw std::runtime_error("no src/ under root " + opt.root.string() +
                             " (pass --root REPO_ROOT)");
  }

  const std::vector<SourceFile> files = load_tree(opt.root);

  Sink sink;
  pass_style(files, opt, sink);
  pass_layering(files, opt, sink);
  pass_determinism(files, opt, sink);
  pass_concurrency(files, opt, sink);
  pass_drift(files, opt, sink);
  pass_simd(files, opt, sink);

  Report report;
  report.files_scanned = files.size();
  report.suppressed = sink.suppressed;
  report.findings = std::move(sink.findings);
  std::sort(report.findings.begin(), report.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return report;
}

}  // namespace hublab::lint
