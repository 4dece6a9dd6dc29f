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
/// The validator accepts exactly `kBenchSchemaVersion`, the version the
/// emitter writes; docs/observability.md lists every member.  The optional
/// members it knows (`threads`, a phase's `tid` and `hw`, and the
/// per-query attribution members `hublab serve` adds: `windows`,
/// `slow_queries`, `exemplars`, `heavy_hitters`) are checked whenever they
/// are present; members it does not know are ignored.

namespace hublab {

/// Current schema_version emitted by util/report.hpp.
inline constexpr std::uint64_t kBenchSchemaVersion = 4;

/// All schema violations in `doc` (empty result == valid).  Messages are
/// human-readable, e.g. "phases[2].wall_s: expected a number".
std::vector<std::string> validate_bench_json(const JsonValue& doc);

}  // namespace hublab
