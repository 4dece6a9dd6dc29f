#pragma once

#include <iosfwd>
#include <string>
#include <vector>

/// \file cli.hpp
/// The `hublab` command-line tool, as a testable library function.
///
/// Subcommands:
///   gen <family> [options] -o FILE      generate a graph (edge list)
///   stats FILE                          print graph statistics
///   label FILE [-o LABELS] [--order X]  build a PLL labeling, print stats
///   query GRAPH LABELS U V              answer a distance query from disk
///   verify GRAPH LABELS [--samples N]   verify labels against the graph
///   certify-gadget B L                  Lemma 2.2 + counting bound
///   sumindex B L [--trials N]           run the Theorem 1.6 protocol
///   trace GRAPH [--chrome FILE]         phase-traced PLL pipeline
///   serve GRAPH [--oracle K] [--arrival poisson|burst|closed]
///                                       serve a workload, report latency
///                                       (--perf-counters adds hardware
///                                       counters where available)
///   profile [--hz N] [--folded FILE] <command...>
///                                       run any subcommand under the
///                                       sampling profiler; writes folded
///                                       stacks for flamegraph tooling
///   validate-bench [--quiet] FILE...    schema-check run reports
///                                       (exit 0 ok / 1 invalid / 2 io)
///   bench-compare BASE NEW [--threshold PCT]
///                                       regression-diff two run reports
///                                       (exit 0 ok / 1 regressed or
///                                       invalid / 2 io)
///
/// Returns a process exit code; all output goes to the provided streams.

namespace hublab::cli {

int run(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace hublab::cli
