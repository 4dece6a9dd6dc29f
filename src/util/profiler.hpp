#pragma once

#include <cstdint>
#include <iosfwd>

/// \file profiler.hpp
/// Timer-driven sampling profiler: SIGPROF fires at `hz` (CPU time, so
/// idle threads cost nothing), the handler captures a backtrace into the
/// sampling thread's lock-free ring, and `write_folded` aggregates the
/// rings into folded-stack lines ("frame;frame;frame count") ready for
/// flamegraph tooling.  `hublab profile <subcommand…>` wraps any CLI
/// command with exactly this.
///
/// Design constraints:
///
///  - **Signal-handler discipline**: rings live in static storage (no
///    allocation when a new thread takes its slot), `backtrace()` is
///    pre-warmed at `start()` so its lazy libgcc initialization never runs
///    in a handler, and each ring has a single writer publishing with a
///    release store.  Symbolization (dladdr + demangle) happens only in
///    `write_folded`, in normal context.
///  - **Bounded**: at most `kMaxThreads` sampled threads, `kMaxSamples`
///    samples per thread, `kMaxDepth` frames per sample; overflow
///    increments a drop counter instead of growing.
///  - **RSS piggyback**: every tick also calls `sample_rss_peak()`
///    (util/resource.hpp), so any profiled run records its true peak
///    resident set, not just the end-of-run reading.
///
/// The profiler is process-global (ITIMER_PROF is); `start()` while
/// running returns false.  `perf.samples` / `perf.sample_drops` counters
/// land in the metrics registry at `stop()`.

namespace hublab::prof {

inline constexpr std::uint64_t kDefaultHz = 97;  ///< prime, avoids lockstep with periodic work
inline constexpr std::uint64_t kMinHz = 1;       ///< slowest SIGPROF rate; lower is clamped up
inline constexpr std::uint64_t kMaxHz = 1000;    ///< fastest SIGPROF rate; higher is clamped down
inline constexpr std::size_t kMaxDepth = 32;     ///< frames kept per sample
inline constexpr std::size_t kMaxThreads = 32;   ///< sampled-thread slots
inline constexpr std::size_t kMaxSamples = 1024;  ///< per-thread sample capacity

struct ProfilerConfig {
  std::uint64_t hz = kDefaultHz;  ///< SIGPROF rate (clamped to [kMinHz, kMaxHz])
};

/// True when the platform has the pieces (setitimer + backtrace).
[[nodiscard]] bool supported() noexcept;

/// Arm the profiler.  False when unsupported or already running.
[[nodiscard]] bool start(const ProfilerConfig& config = {});

/// Disarm, restore the previous SIGPROF disposition, and publish the
/// `perf.samples` / `perf.sample_drops` counters.  No-op when stopped.
void stop();

[[nodiscard]] bool running() noexcept;

/// Samples captured (process-wide, since the last reset()).
[[nodiscard]] std::uint64_t samples() noexcept;

/// Samples dropped to ring or thread-slot exhaustion.
[[nodiscard]] std::uint64_t dropped() noexcept;

/// Aggregate all rings into folded-stack lines, deterministically sorted
/// by stack string: `main;hublab::foo;hublab::bar 42`.  Frames without a
/// symbol fall back to `module+0xOFFSET` or a raw hex address.  Call with
/// the profiler stopped.
void write_folded(std::ostream& out);

/// Drop all captured samples and counters (profiler must be stopped).
void reset();

}  // namespace hublab::prof
