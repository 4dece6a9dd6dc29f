#pragma once

#include <string>
#include <vector>

#include "util/json.hpp"

/// \file bench_schema.hpp
/// Schema checks for the machine-readable run reports — BENCH_<name>.json
/// from bench/harness.hpp and SERVE_<oracle>.json from `hublab serve`,
/// both emitted through util/report.hpp (see docs/observability.md for the
/// schema).  Used by `hublab validate-bench` and the bench-smoke /
/// bench-compare stages of tools/check.sh, so a producer that silently
/// stops reporting a field fails CI instead of producing holes in the
/// perf trajectory.
///
/// Version history (the validator accepts all listed versions; the
/// emitter writes the newest):
///   1  phases + counters + gauges (+ optional histograms)
///   2  adds required `start_unix_ms` and `peak_rss_bytes`
///      (+ optional `sketches`; later also an optional `threads` member,
///      a number >= 1 — reports with and without it both validate)
///   3  phases gain an optional `tid` (worker index of the opening thread,
///      a number >= 0) and an optional `hw` object of hardware-counter
///      deltas: required `cycles`, `instructions`, `ipc`; optional
///      `l1d_misses`, `llc_misses`, `branch_misses`, `llc_miss_rate`,
///      `branch_miss_rate` — all numbers >= 0.  `hw` appears only on
///      perf-capable hosts with `--perf-counters`, so reports without it
///      still validate.
///   4  per-query attribution members, all optional (`hublab serve` emits them,
///      benches do not): `windows` (array of per-window objects: required
///      `index`, `queries`, `qps`, `p50_ns`, `p99_ns` numbers >= 0),
///      `slow_queries` (array of exemplar objects) and `exemplars` /
///      `heavy_hitters` (objects keyed by store name) — see
///      docs/observability.md for the member-by-member shapes.

namespace hublab {

/// Current schema_version emitted by util/report.hpp.
inline constexpr std::uint64_t kBenchSchemaVersion = 4;

/// Oldest schema_version the validator still accepts.
inline constexpr std::uint64_t kBenchSchemaMinVersion = 1;

/// All schema violations in `doc` (empty result == valid).  Messages are
/// human-readable, e.g. "phases[2].wall_s: expected a number".
std::vector<std::string> validate_bench_json(const JsonValue& doc);

}  // namespace hublab
