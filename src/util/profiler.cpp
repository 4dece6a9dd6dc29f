#include "util/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <ostream>
#include <string>

#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/resource.hpp"

#if defined(__linux__) && defined(__GLIBC__)
#define HUBLAB_PROF_SUPPORTED 1
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#else
#define HUBLAB_PROF_SUPPORTED 0
#endif

namespace hublab::prof {

namespace {

/// One sampled thread's ring: single writer (the thread, inside SIGPROF),
/// publishing with a release store of `head`; readers are write_folded /
/// samples(), both in normal context after stop().
struct Sample {
  std::uint32_t depth = 0;
  std::uint32_t worker = 0;
  void* frames[kMaxDepth];
};

struct Ring {
  std::atomic<std::uint64_t> head{0};
  Sample samples[kMaxSamples];
};

/// Static storage only: a thread claims a slot with one fetch_add, so the
/// handler never allocates.  Slots are never reused (see reset()).
Ring g_rings[kMaxThreads];
std::atomic<std::uint32_t> g_slots{0};
std::atomic<std::uint64_t> g_samples{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<bool> g_active{false};

thread_local int t_slot = -1;  ///< -1 unclaimed, -2 slots exhausted

bool g_running = false;  ///< normal-context bookkeeping (start/stop callers)
std::uint64_t g_published_samples = 0;
std::uint64_t g_published_drops = 0;

#if HUBLAB_PROF_SUPPORTED

struct sigaction g_old_action;

/// A backtrace() taken inside the handler starts with the sampling's own
/// frames: this handler and the signal trampoline (glibc's __restore_rt),
/// preceded under ASan by its backtrace() interceptor.  The sampled stack
/// starts at the entry equal to the interrupted PC: entry 2 in a plain
/// x86-64 glibc build and entry 3 under ASan, both confirmed.  Where the
/// PC is unknown or absent, the plain layout is assumed.
constexpr int kHandlerFrames = 2;
constexpr int kMaxHandlerFrames = 4;

const void* interrupted_pc(const void* context) {
#if defined(__x86_64__)
  return reinterpret_cast<const void*>(
      static_cast<const ucontext_t*>(context)->uc_mcontext.gregs[REG_RIP]);
#else
  (void)context;
  return nullptr;
#endif
}

int first_sampled_frame(void* const* raw, int depth, const void* pc) {
  for (int i = 0; i < depth && i < kMaxHandlerFrames; ++i) {
    if (raw[i] == pc) return i;
  }
  return std::min(depth, kHandlerFrames);
}

void on_prof_tick(int /*sig*/, siginfo_t* /*info*/, void* context) {
  const int saved_errno = errno;
  // Satellite duty: every tick records the current RSS into the process
  // peak (async-signal-safe; see util/resource.hpp).
  sample_rss_peak();
  if (g_active.load(std::memory_order_acquire)) {
    if (t_slot == -1) {
      const std::uint32_t s = g_slots.fetch_add(1, std::memory_order_relaxed);
      t_slot = s < kMaxThreads ? static_cast<int>(s) : -2;
    }
    if (t_slot >= 0) {
      Ring& ring = g_rings[t_slot];
      const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
      if (h < kMaxSamples) {
        Sample& smp = ring.samples[h];
        void* raw[kMaxDepth + kMaxHandlerFrames];
        const int depth = backtrace(raw, static_cast<int>(kMaxDepth) + kMaxHandlerFrames);
        const int first = first_sampled_frame(raw, depth, interrupted_pc(context));
        const int kept = std::min(depth - first, static_cast<int>(kMaxDepth));
        for (int i = 0; i < kept; ++i) smp.frames[i] = raw[first + i];
        smp.depth = static_cast<std::uint32_t>(kept);
        smp.worker = static_cast<std::uint32_t>(par::worker_index());
        ring.head.store(h + 1, std::memory_order_release);
        g_samples.fetch_add(1, std::memory_order_relaxed);
      } else {
        g_dropped.fetch_add(1, std::memory_order_relaxed);
      }
    } else {
      g_dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  errno = saved_errno;
}

/// Folded-stack frames must not contain the format's separators; spaces
/// separate the count, semicolons separate frames.
void append_sanitized(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    char c = *s;
    if (c == ' ') c = '_';
    if (c == ';') c = ':';
    out.push_back(c);
  }
}

void append_frame(std::string& out, void* addr) {
  Dl_info info;
  if (dladdr(addr, &info) != 0) {
    if (info.dli_sname != nullptr) {
      int status = 0;
      char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
      if (status == 0 && demangled != nullptr) {
        append_sanitized(out, demangled);
      } else {
        append_sanitized(out, info.dli_sname);
      }
      std::free(demangled);
      return;
    }
    if (info.dli_fname != nullptr) {
      // Strip the directory: the module base name plus the load offset is
      // enough to resolve offline (addr2line) without -rdynamic.
      const char* base = info.dli_fname;
      for (const char* p = info.dli_fname; *p != '\0'; ++p) {
        if (*p == '/') base = p + 1;
      }
      append_sanitized(out, base);
      char buf[32];
      const auto off = static_cast<unsigned long long>(
          reinterpret_cast<const char*>(addr) -
          reinterpret_cast<const char*>(info.dli_fbase));
      std::snprintf(buf, sizeof buf, "+0x%llx", off);
      out += buf;
      return;
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%p", addr);
  out += buf;
}

#endif  // HUBLAB_PROF_SUPPORTED

}  // namespace

bool supported() noexcept { return HUBLAB_PROF_SUPPORTED != 0; }

bool start(const ProfilerConfig& config) {
#if HUBLAB_PROF_SUPPORTED
  if (g_running) return false;
  // Pre-warm backtrace: its first call lazily loads the unwinder (which
  // may allocate); do that here, never inside the handler.
  void* warm[4];
  (void)backtrace(warm, 4);

  struct sigaction sa = {};
  sa.sa_sigaction = on_prof_tick;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART | SA_SIGINFO;
  if (sigaction(SIGPROF, &sa, &g_old_action) != 0) return false;

  g_active.store(true, std::memory_order_release);
  const std::uint64_t hz = std::clamp(config.hz, kMinHz, kMaxHz);
  // setitimer rejects tv_usec >= 1000000, so a 1 Hz period is 1 s + 0 us.
  const std::uint64_t period_us = 1000000 / hz;
  itimerval timer = {};
  timer.it_interval.tv_sec = static_cast<time_t>(period_us / 1000000);
  timer.it_interval.tv_usec = static_cast<suseconds_t>(period_us % 1000000);
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    g_active.store(false, std::memory_order_release);
    sigaction(SIGPROF, &g_old_action, nullptr);
    return false;
  }
  g_running = true;
  return true;
#else
  (void)config;
  return false;
#endif
}

void stop() {
#if HUBLAB_PROF_SUPPORTED
  if (!g_running) return;
  itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  g_active.store(false, std::memory_order_release);
  // Let any in-flight handler drain before the old disposition returns.
  usleep(20000);
  sigaction(SIGPROF, &g_old_action, nullptr);
  g_running = false;

  const std::uint64_t total_samples = g_samples.load(std::memory_order_acquire);
  const std::uint64_t total_drops = g_dropped.load(std::memory_order_acquire);
  metrics::registry().counter("perf.samples").add(total_samples - g_published_samples);
  metrics::registry().counter("perf.sample_drops").add(total_drops - g_published_drops);
  g_published_samples = total_samples;
  g_published_drops = total_drops;
#endif
}

bool running() noexcept { return g_running; }

std::uint64_t samples() noexcept { return g_samples.load(std::memory_order_acquire); }

std::uint64_t dropped() noexcept { return g_dropped.load(std::memory_order_acquire); }

void write_folded(std::ostream& out) {
#if HUBLAB_PROF_SUPPORTED
  std::map<std::string, std::uint64_t> agg;  // sorted => deterministic output order
  std::map<void*, std::string> symbols;
  const std::uint32_t slots =
      std::min<std::uint32_t>(g_slots.load(std::memory_order_acquire),
                              static_cast<std::uint32_t>(kMaxThreads));
  for (std::uint32_t slot = 0; slot < slots; ++slot) {
    const Ring& ring = g_rings[slot];
    const std::uint64_t n =
        std::min<std::uint64_t>(ring.head.load(std::memory_order_acquire), kMaxSamples);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Sample& smp = ring.samples[i];
      std::string stack = "worker" + std::to_string(smp.worker);
      // backtrace() is leaf-first; folded stacks read root-first.
      for (std::uint32_t d = smp.depth; d > 0; --d) {
        stack.push_back(';');
        void* addr = smp.frames[d - 1];
        auto it = symbols.find(addr);
        if (it == symbols.end()) {
          std::string sym;
          append_frame(sym, addr);
          it = symbols.emplace(addr, std::move(sym)).first;
        }
        stack += it->second;
      }
      std::uint64_t& count = agg[stack];
      count += 1;
    }
  }
  for (const auto& [stack, count] : agg) {
    out << stack << ' ' << count << '\n';
  }
#else
  (void)out;
#endif
}

void reset() {
  if (g_running) return;  // refuse while the handler may still write
  for (Ring& ring : g_rings) {
    ring.head.store(0, std::memory_order_relaxed);
  }
  // Thread slots are NOT reclaimed: live threads keep their t_slot, so
  // handing a claimed slot to a new thread would create a second writer.
  g_samples.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_published_samples = 0;
  g_published_drops = 0;
}

}  // namespace hublab::prof
