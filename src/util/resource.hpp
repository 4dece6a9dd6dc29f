#pragma once

#include <cstdint>

/// \file resource.hpp
/// Process-level resource observations for the run reports: peak resident
/// set size and wall-clock (epoch) time.  Everything else in the
/// observability layer measures monotonic durations; these are the only
/// places a report touches the OS, kept together so the platform `#if`s
/// live in one file.
///
/// Peak RSS is the max of two sources: the kernel's `getrusage` high-water
/// mark, and the samples taken by `sample_rss_peak()` — the sampling
/// profiler (util/profiler.hpp) calls the latter on every tick, so long
/// serve runs record the true in-flight peak even on platforms where
/// `ru_maxrss` under-reports (and the `proc.peak_rss_bytes` gauge exported
/// to Prometheus reflects it).

namespace hublab {

/// Peak resident set size of this process in bytes: the larger of the
/// `getrusage` high-water mark and any `sample_rss_peak()` observations.
/// 0 on platforms without either interface.
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Current resident set size in bytes (`/proc/self/statm` on Linux; 0
/// where unsupported).  Async-signal-safe on Linux.
[[nodiscard]] std::uint64_t current_rss_bytes();

/// Record `current_rss_bytes()` into the sampled peak (atomic max).
/// Async-signal-safe; the sampling profiler calls this from its SIGPROF
/// tick.
void sample_rss_peak();

/// Largest RSS ever passed to `sample_rss_peak()` (0 when never sampled).
[[nodiscard]] std::uint64_t sampled_peak_rss_bytes();

/// Milliseconds since the Unix epoch (system clock — NOT monotonic; for
/// report timestamps only, never for measuring durations).
[[nodiscard]] std::uint64_t unix_time_ms();

}  // namespace hublab
