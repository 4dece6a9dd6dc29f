#pragma once

#include <cstdint>

/// \file perfcount.hpp
/// Hardware performance counters (cycles, instructions, L1d/LLC misses,
/// branch misses) read through `perf_event_open` counter groups, one group
/// per thread.  The readings attach to `Tracer` spans (per-phase `hw`
/// objects in the run-report JSON) and to `parallel_for` chunk bodies via
/// `ScopedHw`, so "the flat kernel is 35% faster" comes with the IPC and
/// miss-rate evidence explaining *why*.
///
/// Availability is decided at run time, so call sites need no `#if`:
///
///  - **Runtime probe**: the first `available()` call tries to open a
///    cycles+instructions group on the calling thread.  Containers,
///    restrictive `perf_event_paranoid` settings and non-Linux hosts fail
///    the probe, and every read degrades to `valid == false` — the
///    timer-only fallback, with zero behavior change elsewhere.
///  - **Runtime opt-in**: even where counters exist, nothing is opened
///    until `set_enabled(true)` (the `--perf-counters` flag), so default
///    runs never pay the syscall or the fd footprint.
///
/// Counters measure user space only (`exclude_kernel`), per thread
/// (`inherit == 0`); deltas from different threads must be accumulated
/// explicitly (see `ScopedHw` and the serve loop's shard workers).  Reads come
/// from one `read()` of the group leader (`PERF_FORMAT_GROUP`), so the
/// five values are a consistent snapshot.

namespace hublab::perf {

/// One snapshot (or delta) of the counter group.  `valid` is false when
/// counters are disabled or unavailable — consumers emit nothing in that
/// case rather than zeros.
struct HwCounters {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t l1d_misses = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t branch_misses = 0;
  bool valid = false;

  /// Instructions per cycle; 0 when no cycles were observed.
  [[nodiscard]] double ipc() const {
    return cycles == 0 ? 0.0 : static_cast<double>(instructions) / static_cast<double>(cycles);
  }

  /// Last-level-cache misses per executed instruction (0 when idle).
  [[nodiscard]] double llc_miss_rate() const {
    return instructions == 0
               ? 0.0
               : static_cast<double>(llc_misses) / static_cast<double>(instructions);
  }

  /// Branch misses per executed instruction (0 when idle).
  [[nodiscard]] double branch_miss_rate() const {
    return instructions == 0
               ? 0.0
               : static_cast<double>(branch_misses) / static_cast<double>(instructions);
  }

  /// Element-wise accumulate (chunk deltas into a loop total).  The sum is
  /// valid as soon as any contribution was.
  HwCounters& operator+=(const HwCounters& other) {
    cycles += other.cycles;
    instructions += other.instructions;
    l1d_misses += other.l1d_misses;
    llc_misses += other.llc_misses;
    branch_misses += other.branch_misses;
    valid = valid || other.valid;
    return *this;
  }

  /// Element-wise delta against an earlier snapshot of the same thread's
  /// group.  Invalid unless both snapshots were live reads.
  [[nodiscard]] HwCounters minus(const HwCounters& begin) const {
    HwCounters d;
    d.cycles = cycles - begin.cycles;
    d.instructions = instructions - begin.instructions;
    d.l1d_misses = l1d_misses - begin.l1d_misses;
    d.llc_misses = llc_misses - begin.llc_misses;
    d.branch_misses = branch_misses - begin.branch_misses;
    d.valid = valid && begin.valid;
    return d;
  }
};

/// True when `perf_event_open` works on this host (probed once per
/// process; the probe opens and closes a throwaway group).
[[nodiscard]] bool available();

/// Turn counter collection on or off for the whole process (spans and
/// ScopedHw start returning live readings).  A no-op when `available()`
/// is false.  Call it from startup code, before worker threads exist.
void set_enabled(bool on);

/// True when collection was requested *and* the host supports it.
[[nodiscard]] bool enabled();

/// One-line availability description for banners:
/// "hardware (cycles,instructions,...)" / "unavailable (...)" / "off".
[[nodiscard]] const char* describe();

/// Read the calling thread's counter group (opened lazily on first read).
/// `valid == false` when disabled or unavailable.
[[nodiscard]] HwCounters read_thread();

/// RAII delta: reads the thread group at construction and destruction and
/// accumulates the difference into `out` (`out += end.minus(begin)`).
/// Cheap no-op when counters are disabled.
class ScopedHw {
 public:
  explicit ScopedHw(HwCounters& out) : out_(&out), begin_(read_thread()) {}
  ScopedHw(const ScopedHw&) = delete;
  ScopedHw& operator=(const ScopedHw&) = delete;
  ~ScopedHw() {
    if (begin_.valid) *out_ += read_thread().minus(begin_);
  }

 private:
  HwCounters* out_;
  HwCounters begin_;
};

}  // namespace hublab::perf
