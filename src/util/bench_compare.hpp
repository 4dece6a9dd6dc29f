#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/json.hpp"

/// \file bench_compare.hpp
/// Regression diffing of two run reports (BENCH_*.json / SERVE_*.json,
/// both schema-validated first).  This is the consumer the perf
/// trajectory was missing: `hublab bench-compare BASE.json NEW.json
/// --threshold PCT` (and the `bench-compare` stage of tools/check.sh,
/// which diffs every smoke bench against its committed baseline under
/// bench/baselines/) prints a regression table and fails past threshold.
///
/// What is compared, and how it gates:
///
///  - **phase wall times** (summed per phase name, plus a `total` row over
///    top-level phases) — noisy, so they gate through `threshold_pct` and
///    only when the base value is at least 1 ms;
///  - **sketch quantiles** (p50/p90/p99/p999 latencies) — wall-clock
///    noise too, gated through `threshold_pct`;
///  - **counters and gauges** (search-space sizes, label sizes, hub
///    counts) — deterministic given the same seeds, gated through the
///    tighter `structural_threshold_pct`;
///  - **histogram quantiles + sum** (label-size distributions) — also
///    structural.
///
/// Gauges are *direction-aware*, classed by the last dotted segment of
/// their name: a segment ending in `qps` is a throughput (higher is
/// better — only *decreases* past `threshold_pct` gate, so a committed
/// `pract.serve_peak_qps.*` baseline catches capacity loss); a segment
/// ending in `ns` is a wall-clock latency (increases gate, at the looser
/// `threshold_pct` since nanosecond gauges are as noisy as phase times);
/// everything else is structural.  For every other section only
/// *increases* gate: getting faster or smaller is never a regression.
/// Metrics present on one side only are reported as informational rows
/// (renames should not hard-fail old baselines); the schema itself is
/// enforced by `validate_bench_json`, which runs first.

namespace hublab {

struct CompareOptions {
  double threshold_pct = 20.0;             ///< wall times and latency quantiles
  double structural_threshold_pct = 5.0;   ///< counters, gauges, histogram stats
};

struct CompareRow {
  std::string metric;  ///< e.g. "phase.build-pll.wall_s", "counter.pll.visited"
  double base = 0.0;
  double next = 0.0;
  double delta_pct = 0.0;  ///< 100 * (next - base) / base; 0 when base == 0
  bool gated = false;      ///< participates in regression gating
  bool regressed = false;
};

struct CompareReport {
  std::vector<CompareRow> rows;       ///< deterministic order: section, then name
  std::vector<std::string> errors;    ///< schema violations; rows are empty if set
  [[nodiscard]] std::size_t num_regressions() const;
  [[nodiscard]] bool ok() const { return errors.empty() && num_regressions() == 0; }
};

/// Diff two parsed report documents.  Schema violations in either document
/// land in `errors` and suppress the row diff.
CompareReport compare_bench_json(const JsonValue& base, const JsonValue& next,
                                 const CompareOptions& options);

/// Human-readable regression table.  `all_rows` includes unchanged and
/// ungated rows; the default prints changed rows plus every regression.
void write_compare_table(std::ostream& out, const CompareReport& report, bool all_rows = false);

}  // namespace hublab
