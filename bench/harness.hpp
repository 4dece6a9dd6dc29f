#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hub/pll.hpp"
#include "util/flightrec.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/perfcount.hpp"
#include "util/report.hpp"
#include "util/resource.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

/// \file harness.hpp
/// Shared runner for the bench binaries.  Every bench constructs one
/// `Harness`, wraps its work in `phase()` spans, registers the graphs it
/// ran on, prints its tables through `print()`, and returns
/// `finish(label, ok)` from main().  The harness owns the cross-cutting
/// concerns that used to be copy-pasted sixteen times:
///
///  - the banner line and the `<LABEL>: OK|MISMATCH` trailer contract that
///    tools/check.sh and the integration tests grep for;
///  - `--smoke` (cheap parameters for CI; benches query `smoke()`),
///    `--trace` (phase tree + metrics dump on stdout), `--threads N`
///    (worker count for parallel entry points; benches query `threads()`),
///    `--perf-counters` (hardware counters on phases, schema-v3 `hw`
///    objects; degrades to timer-only where `perf_event_open` fails, and
///    prints a `perf counters:` banner line saying which) and
///    `--json-out FILE` flag parsing;
///  - the crash flight recorder (util/flightrec.hpp): every bench installs
///    the handlers, so a crashing phase leaves hublab_flightrec.dump;
///  - the machine-readable result: `BENCH_<name>.json` conforming to
///    `util/bench_schema.hpp` (validated by `hublab validate-bench` in the
///    bench-smoke stage of tools/check.sh), carrying per-phase wall times
///    and counter deltas plus the final registry contents.
///
/// The registry is reset at construction so the JSON reflects this run
/// only.  Benches live outside src/, so writing to stdout here is fine.

// CMake defines HUBLAB_GIT_REV from `git rev-parse --short HEAD`; keep a
// fallback so the header also compiles in isolation (lint self-containment).
#ifndef HUBLAB_GIT_REV
#define HUBLAB_GIT_REV "unknown"
#endif

namespace hublab::bench {

class Harness {
 public:
  /// Parses flags, resets the global metrics registry and prints the
  /// banner.  `name` keys the JSON file (`BENCH_<name>.json` in the
  /// working directory unless `--json-out` overrides it).
  Harness(int argc, char** argv, std::string name, std::string_view banner)
      : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--smoke") {
        smoke_ = true;
      } else if (arg == "--trace") {
        trace_ = true;
      } else if (arg == "--perf-counters") {
        perf_counters_ = true;
      } else if (arg == "--json-out" && i + 1 < argc) {
        json_path_ = argv[++i];
      } else if (arg == "--threads" && i + 1 < argc) {
        threads_ = static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
      }
    }
    threads_ = par::resolve_threads(threads_);
    if (json_path_.empty()) json_path_ = "BENCH_" + name_ + ".json";
    start_unix_ms_ = unix_time_ms();
    fr::install_crash_handler();
    if (perf_counters_) perf::set_enabled(true);
    metrics::registry().reset();
    std::printf("%.*s%s\n", static_cast<int>(banner.size()), banner.data(),
                smoke_ ? "  [smoke]" : "");
    if (perf_counters_) {
      // check.sh greps this marker to decide whether hw blocks must appear.
      std::printf("perf counters: %s\n", perf::describe());
    }
  }

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  /// True when invoked with --smoke: run the cheapest parameters that
  /// still exercise every phase.
  [[nodiscard]] bool smoke() const { return smoke_; }

  /// Resolved worker-thread count (--threads, else HUBLAB_THREADS, else 1);
  /// benches pass this to the parallel entry points they exercise.  The
  /// value is recorded in the bench JSON so baselines from different
  /// thread counts are never silently compared.
  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// The harness's PLL construction knobs in one place.
  [[nodiscard]] PllConfig pll_config() const { return PllConfig{threads_}; }

  /// True when invoked with --perf-counters (hardware counters requested;
  /// `perf::enabled()` reports whether the host actually delivers them).
  [[nodiscard]] bool perf_counters() const { return perf_counters_; }

  /// Open a named phase; keep the returned span alive for its duration.
  [[nodiscard]] Tracer::Span phase(std::string phase_name) {
    return tracer_.span(std::move(phase_name));
  }

  [[nodiscard]] Tracer& tracer() { return tracer_; }

  /// Record an input graph for the JSON `graphs` array.
  void add_graph(std::string family, std::uint64_t n, std::uint64_t m) {
    graphs_.push_back(ReportGraph{std::move(family), n, m});
  }

  /// Inner repetitions of the measured work (default 1).
  void set_repetitions(std::uint64_t reps) { repetitions_ = reps == 0 ? 1 : reps; }

  [[nodiscard]] std::ostream& out() const { return std::cout; }

  void print(const TextTable& table, const std::string& title) {
    table.print(std::cout, title);
  }

  /// Print the `<label>: OK|MISMATCH` trailer, write BENCH_<name>.json and
  /// return the process exit code.
  [[nodiscard]] int finish(const std::string& label, bool ok) {
    std::printf("\n%s: %s\n", label.c_str(), ok ? "OK" : "MISMATCH");
    if (trace_) {
      std::printf("\nphases:\n");
      tracer_.write_tree(std::cout);
      metrics::registry().dump(std::cout);
    }
    std::ofstream json(json_path_);
    write_json(json, ok);
    if (json.good()) {
      std::printf("bench JSON written to %s\n", json_path_.c_str());
    } else {
      std::printf("bench JSON: FAILED to write %s\n", json_path_.c_str());
    }
    return ok ? 0 : 1;
  }

  /// Emit the full result document through the shared report emitter
  /// (util/report.hpp), so BENCH_*.json and SERVE_*.json stay one schema
  /// (exposed for tests).
  void write_json(std::ostream& os, bool ok) {
    ReportHeader header;
    header.name = name_;
    header.git_rev = HUBLAB_GIT_REV;
    header.smoke = smoke_;
    header.ok = ok;
    header.repetitions = repetitions_;
    header.start_unix_ms = start_unix_ms_;
    header.threads = threads_;
    header.graphs = graphs_;
    write_run_report_json(os, header, tracer_, metrics::registry());
  }

 private:
  std::string name_;
  std::string json_path_;
  bool smoke_ = false;
  bool trace_ = false;
  bool perf_counters_ = false;
  std::size_t threads_ = 0;  ///< resolved in the constructor (>= 1 after)
  std::uint64_t repetitions_ = 1;
  std::uint64_t start_unix_ms_ = 0;
  std::vector<ReportGraph> graphs_;
  Tracer tracer_;
};

}  // namespace hublab::bench
