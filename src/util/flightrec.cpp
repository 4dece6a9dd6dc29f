#include "util/flightrec.hpp"

#include <atomic>
#include <new>
#include <ostream>

#include "util/parallel.hpp"
#include "util/timer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <fcntl.h>
#include <unistd.h>
#endif

namespace hublab::fr {

namespace {

/// One thread's ring.  Single writer (the owning thread); the crash
/// handler is the only concurrent reader, synchronized through the
/// release-store of `head`.  The event being overwritten while a dump
/// reads it can tear, which a post-mortem format tolerates by design.
struct ThreadRing {
  std::atomic<std::uint64_t> head{0};  ///< total events ever recorded here
  std::uint64_t worker = 0;            ///< par::worker_index() at registration
  ThreadRing* next = nullptr;
  Event events[kEventsPerThread];
};

std::atomic<ThreadRing*> g_rings{nullptr};
std::atomic<std::uint64_t> g_total{0};
std::atomic<std::uint64_t> g_epoch_ns{0};
std::atomic<bool> g_installed{false};
std::atomic<bool> g_dumping{false};
char g_path[512] = {};
char g_cmdline[512] = {};  ///< the process's command line, captured at install

thread_local ThreadRing* t_ring = nullptr;

/// Register the calling thread's ring (lock-free list push).  Nodes are
/// deliberately never freed: the crash handler must be able to walk the
/// list at any time, and the leak is bounded by the thread count.
ThreadRing* ring_for_this_thread() noexcept {
  if (t_ring != nullptr) return t_ring;
  auto* ring = new (std::nothrow) ThreadRing;
  if (ring == nullptr) return nullptr;  // OOM: drop the event, not the process
  ring->worker = static_cast<std::uint64_t>(par::worker_index());
  ThreadRing* list = g_rings.load(std::memory_order_acquire);
  do {
    ring->next = list;
  } while (!g_rings.compare_exchange_weak(list, ring, std::memory_order_acq_rel,
                                          std::memory_order_acquire));
  t_ring = ring;
  return ring;
}

std::uint64_t epoch_ns() noexcept {
  std::uint64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
  if (epoch == 0) {
    std::uint64_t expected = 0;
    const std::uint64_t now = monotonic_ns() | 1;  // never 0
    g_epoch_ns.compare_exchange_strong(expected, now, std::memory_order_relaxed,
                                       std::memory_order_relaxed);
    epoch = g_epoch_ns.load(std::memory_order_relaxed);
  }
  return epoch;
}

#if defined(__unix__) || defined(__APPLE__)

void write_all(int fd, const char* data, std::size_t len) noexcept {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = write(fd, data + done, len - done);
    if (n <= 0) return;  // nothing useful to do on a crash path
    done += static_cast<std::size_t>(n);
  }
}

/// Copy /proc/self/cmdline into g_cmdline, its NUL separators (and any
/// newline inside an argument) turned into spaces so the dump keeps it on
/// one line, and the text truncated to the buffer.  Stays empty where the
/// file cannot be read.
void capture_cmdline() noexcept {
  const int fd = open("/proc/self/cmdline", O_RDONLY);
  if (fd < 0) return;
  std::size_t len = 0;
  while (len + 1 < sizeof g_cmdline) {
    const ssize_t n = read(fd, g_cmdline + len, sizeof g_cmdline - 1 - len);
    if (n <= 0) break;
    len += static_cast<std::size_t>(n);
  }
  close(fd);
  while (len > 0 && g_cmdline[len - 1] == '\0') --len;  // the last argument's terminator
  for (std::size_t i = 0; i < len; ++i) {
    if (g_cmdline[i] == '\0' || g_cmdline[i] == '\n') g_cmdline[i] = ' ';
  }
  g_cmdline[len] = '\0';
}

#endif

/// Shared dump body over a minimal sink (fd for the signal path, ostream
/// for tests/tooling).  Only `str`/`num` calls; no allocation.
struct FdSink {
#if defined(__unix__) || defined(__APPLE__)
  int fd;
  void str(const char* s) noexcept {
    std::size_t len = 0;
    while (s[len] != '\0') ++len;
    write_all(fd, s, len);
  }
  void num(std::uint64_t v) noexcept {
    char buf[24];
    const std::size_t n = format_u64(buf, sizeof buf, v);
    write_all(fd, buf, n);
  }
#else
  int fd;
  void str(const char*) noexcept {}
  void num(std::uint64_t) noexcept {}
#endif
};

struct StreamSink {
  std::ostream& out;
  void str(const char* s) { out << s; }
  void num(std::uint64_t v) { out << v; }
};

template <typename Sink>
void dump_impl(Sink& sink, int signal_number) {
  sink.str("hublab-flightrec v1\nsignal ");
  if (signal_number < 0) {
    sink.str("-1");
  } else {
    sink.num(static_cast<std::uint64_t>(signal_number));
  }
  sink.str("\ncmdline");
  if (g_cmdline[0] != '\0') {
    sink.str(" ");
    sink.str(g_cmdline);
  }
  sink.str("\n");
  std::uint64_t index = 0;
  for (ThreadRing* r = g_rings.load(std::memory_order_acquire); r != nullptr; r = r->next) {
    const std::uint64_t recorded = r->head.load(std::memory_order_acquire);
    const std::uint64_t count = recorded < kEventsPerThread ? recorded : kEventsPerThread;
    sink.str("thread ");
    sink.num(index);
    sink.str(" worker ");
    sink.num(r->worker);
    sink.str(" recorded ");
    sink.num(recorded);
    sink.str(" dropped ");
    sink.num(recorded - count);
    sink.str("\n");
    for (std::uint64_t i = recorded - count; i < recorded; ++i) {
      const Event& e = r->events[i % kEventsPerThread];
      sink.str("  ");
      sink.num(e.t_ns);
      sink.str(" ");
      sink.str(event_kind_name(e.kind));
      sink.str(" ");
      sink.num(e.arg);
      sink.str(" ");
      sink.str(e.text);
      sink.str("\n");
    }
    ++index;
  }
  sink.str("end\n");
}

#if defined(__unix__) || defined(__APPLE__)

void crash_handler(int sig) {
  bool expected = false;
  if (g_dumping.compare_exchange_strong(expected, true, std::memory_order_acq_rel,
                                        std::memory_order_acquire)) {
    const int fd = open(g_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      dump_to_fd(fd, sig);
      close(fd);
      FdSink err{2};
      err.str("hublab: flight recorder dump written to ");
      err.str(g_path);
      err.str("\n");
    }
  }
  // SA_RESETHAND restored the default disposition; die with the original
  // signal so exit statuses and core dumps are unchanged.
  raise(sig);
}

#endif

}  // namespace

const char* event_kind_name(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kSpanBegin: return "span-begin";
    case EventKind::kSpanEnd: return "span-end";
    case EventKind::kLog: return "log";
    case EventKind::kNote: return "note";
    case EventKind::kAssert: return "assert";
  }
  return "note";
}

void record(EventKind kind, const char* text, std::uint64_t arg) noexcept {
  ThreadRing* ring = ring_for_this_thread();
  if (ring == nullptr) return;
  const std::uint64_t epoch = epoch_ns();
  const std::uint64_t h = ring->head.load(std::memory_order_relaxed);
  Event& e = ring->events[h % kEventsPerThread];
  e.t_ns = monotonic_ns() - epoch;
  e.arg = arg;
  e.kind = kind;
  std::size_t n = 0;
  if (text != nullptr) {
    for (; n < kEventTextMax && text[n] != '\0'; ++n) e.text[n] = text[n];
  }
  e.text[n] = '\0';
  ring->head.store(h + 1, std::memory_order_release);
  g_total.fetch_add(1, std::memory_order_relaxed);
}

void install_crash_handler(const char* path) noexcept {
#if defined(__unix__) || defined(__APPLE__)
  bool expected = false;
  if (!g_installed.compare_exchange_strong(expected, true, std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
    return;  // first caller's path wins
  }
  const char* src = path != nullptr ? path : kDefaultDumpPath;
  std::size_t n = 0;
  for (; n + 1 < sizeof g_path && src[n] != '\0'; ++n) g_path[n] = src[n];
  g_path[n] = '\0';
  capture_cmdline();

  struct sigaction sa = {};
  sa.sa_handler = crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESETHAND;
  for (const int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT}) {
    sigaction(sig, &sa, nullptr);
  }
#else
  (void)path;
#endif
}

bool crash_handler_installed() noexcept {
  return g_installed.load(std::memory_order_acquire);
}

const char* dump_path() noexcept { return g_path; }

std::uint64_t events_recorded() noexcept { return g_total.load(std::memory_order_relaxed); }

void dump_to_fd(int fd, int signal_number) noexcept {
  FdSink sink{fd};
  dump_impl(sink, signal_number);
}

void dump(std::ostream& out) {
  StreamSink sink{out};
  dump_impl(sink, -1);
}

std::size_t format_u64(char* buf, std::size_t cap, std::uint64_t value) noexcept {
  char digits[20];
  std::size_t n = 0;
  do {
    digits[n] = static_cast<char>('0' + (value % 10));
    ++n;
    value /= 10;
  } while (value != 0);
  if (n > cap) return 0;
  for (std::size_t i = 0; i < n; ++i) buf[i] = digits[n - 1 - i];
  return n;
}

/// Flight-recorder hook for HUBLAB_ASSERT (declared in util/assert.hpp so
/// the assert header needs no extra include).
void note_assert_fail(const char* expr, const char* file, int line) noexcept {
  (void)file;  // the surrounding span events locate the failure
  record(EventKind::kAssert, expr, static_cast<std::uint64_t>(line));
}

}  // namespace hublab::fr
