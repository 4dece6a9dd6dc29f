#include "util/perfcount.hpp"

#include <atomic>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cstring>
#endif

namespace hublab::perf {

namespace {

std::atomic<bool> g_enabled{false};

#if defined(__linux__)

/// Logical counter slots, in HwCounters order.  cycles and instructions
/// are mandatory (no IPC without them); the cache/branch events are
/// best-effort — some PMUs or virtualized hosts expose only a subset.
constexpr int kNumEvents = 5;

struct EventSpec {
  std::uint32_t type;
  std::uint64_t config;
};

constexpr std::uint64_t cache_config(std::uint64_t cache) {
  return cache | (PERF_COUNT_HW_CACHE_OP_READ << 8) |
         (PERF_COUNT_HW_CACHE_RESULT_MISS << 16);
}

const EventSpec kSpecs[kNumEvents] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HW_CACHE, cache_config(PERF_COUNT_HW_CACHE_L1D)},
    {PERF_TYPE_HW_CACHE, cache_config(PERF_COUNT_HW_CACHE_LL)},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
};

int open_event(const EventSpec& spec, int group_fd) {
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof attr);
  attr.size = sizeof attr;
  attr.type = spec.type;
  attr.config = spec.config;
  attr.disabled = 0;
  attr.exclude_kernel = 1;  // works under perf_event_paranoid <= 2
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP;
  const long fd = syscall(SYS_perf_event_open, &attr, 0, -1, group_fd, 0);
  return static_cast<int>(fd);
}

/// The calling thread's counter group.  Opened lazily on first read (so
/// pool workers pick up counters the first time a chunk measures itself),
/// closed when the thread exits.
struct ThreadGroup {
  bool tried = false;
  int leader = -1;                ///< cycles fd; < 0 when the group is unusable
  int fds[kNumEvents] = {-1, -1, -1, -1, -1};
  int slot_of[kNumEvents] = {-1, -1, -1, -1, -1};  ///< position in the group read
  int nr = 0;                     ///< events actually opened

  void open() {
    tried = true;
    for (int i = 0; i < kNumEvents; ++i) {
      const int fd = open_event(kSpecs[i], leader);
      if (fd < 0) {
        // cycles or instructions missing means no IPC: give up entirely.
        if (i < 2) {
          close_all();
          return;
        }
        continue;
      }
      if (leader < 0) leader = fd;
      fds[i] = fd;
      slot_of[i] = nr;
      ++nr;
    }
  }

  void close_all() {
    for (int& fd : fds) {
      if (fd >= 0) close(fd);
      fd = -1;
    }
    leader = -1;
  }

  ~ThreadGroup() { close_all(); }
};

thread_local ThreadGroup t_group;

/// Probe once per process: a usable group needs at least
/// cycles+instructions on the calling thread.
bool probe() {
  ThreadGroup g;
  g.open();
  const bool ok = g.leader >= 0;
  g.close_all();
  return ok;
}

#endif  // __linux__

}  // namespace

bool available() {
#if defined(__linux__)
  static const bool avail = probe();
  return avail;
#else
  return false;
#endif
}

void set_enabled(bool on) { g_enabled.store(on && available(), std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

const char* describe() {
  if (!available()) return "unavailable (perf_event_open failed; timer-only fallback)";
  if (!enabled()) return "off (pass --perf-counters to enable)";
  return "hardware (cycles, instructions, cache and branch misses)";
}

HwCounters read_thread() {
#if defined(__linux__)
  if (!enabled()) return HwCounters{};
  ThreadGroup& g = t_group;
  if (!g.tried) g.open();
  if (g.leader < 0) return HwCounters{};
  // PERF_FORMAT_GROUP layout: { u64 nr; u64 values[nr]; } in open order.
  std::uint64_t buf[1 + kNumEvents] = {};
  const ssize_t n = read(g.leader, buf, sizeof buf);
  if (n < static_cast<ssize_t>(2 * sizeof(std::uint64_t))) return HwCounters{};
  const auto value = [&](int i) -> std::uint64_t {
    return g.slot_of[i] >= 0 ? buf[1 + g.slot_of[i]] : 0;
  };
  HwCounters out;
  out.cycles = value(0);
  out.instructions = value(1);
  out.l1d_misses = value(2);
  out.llc_misses = value(3);
  out.branch_misses = value(4);
  out.valid = true;
  return out;
#else
  return HwCounters{};
#endif
}

}  // namespace hublab::perf
