#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/metrics.hpp"
#include "util/trace.hpp"

/// \file report.hpp
/// The one emitter of schema-versioned run reports (`BENCH_<name>.json`,
/// `SERVE_<oracle>.json`).  bench/harness.hpp and oracle/server.cpp both
/// delegate here, so the document shape that `util/bench_schema.hpp`
/// validates is produced in exactly one place: header fields, per-phase
/// wall times with counter deltas from the tracer, and the full registry
/// contents (counters, gauges, histograms, sketches).  Producers add their
/// own extra top-level members through the `extra_members` callback — the
/// validator is forward-compatible, so extras never break `hublab
/// validate-bench`.

namespace hublab {

class JsonWriter;

struct ReportGraph {
  std::string family;
  std::uint64_t n = 0;
  std::uint64_t m = 0;
};

/// Everything the emitter cannot observe on its own.
struct ReportHeader {
  std::string name;  ///< the JSON `bench` member; non-empty
  std::string git_rev = "unknown";
  bool smoke = false;
  bool ok = false;
  std::uint64_t repetitions = 1;
  std::uint64_t start_unix_ms = 0;  ///< wall-clock start (util/resource.hpp)
  std::uint64_t threads = 1;        ///< worker threads the run used (>= 1)
  std::vector<ReportGraph> graphs;
};

/// Write one complete report document (peak RSS is sampled here, at the
/// end of the run, which is when it *is* the peak).  `extra_members` may
/// append additional members to the top-level object.
void write_run_report_json(std::ostream& os, const ReportHeader& header, const Tracer& tracer,
                           metrics::Registry& reg,
                           const std::function<void(JsonWriter&)>& extra_members = {});

}  // namespace hublab
