/// \file flightrec_test.cpp
/// Flight recorder (util/flightrec.hpp): ring recording and dump format,
/// wraparound accounting, async-signal-safe formatting, and the crash path
/// itself — forked children die on SIGSEGV / a failed HUBLAB_ASSERT inside
/// a pooled worker, and the parent checks the dump they leave behind.

#include "util/flightrec.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "util/assert.hpp"
#include "util/parallel.hpp"
#include "util/trace.hpp"

namespace hublab {
namespace {

TEST(FormatU64, FormatsDecimalWithoutStdio) {
  char buf[24];
  ASSERT_EQ(fr::format_u64(buf, sizeof buf, 0), 1u);
  EXPECT_EQ(buf[0], '0');
  ASSERT_EQ(fr::format_u64(buf, sizeof buf, 12345), 5u);
  EXPECT_EQ(std::string(buf, 5), "12345");
  const std::uint64_t max = ~std::uint64_t{0};
  ASSERT_EQ(fr::format_u64(buf, sizeof buf, max), 20u);
  EXPECT_EQ(std::string(buf, 20), "18446744073709551615");
}

TEST(FormatU64, ReportsBufferTooSmall) {
  char buf[4];
  EXPECT_EQ(fr::format_u64(buf, 4, 12345), 0u);  // needs 5
  EXPECT_EQ(fr::format_u64(buf, 0, 7), 0u);
  EXPECT_EQ(fr::format_u64(buf, 1, 7), 1u);  // exactly fits
}

std::string dump_text() {
  std::ostringstream os;
  fr::dump(os);
  return os.str();
}

TEST(FlightRecorder, RecordAndDump) {
  const std::uint64_t before = fr::events_recorded();
  fr::record(fr::EventKind::kNote, "unit-test-breadcrumb", 42);
  EXPECT_GT(fr::events_recorded(), before);
  const std::string text = dump_text();
  EXPECT_NE(text.find("hublab-flightrec v1"), std::string::npos);
  EXPECT_NE(text.find("signal -1"), std::string::npos) << text;
  EXPECT_NE(text.find("note 42 unit-test-breadcrumb"), std::string::npos) << text;
}

TEST(FlightRecorder, TruncatesLongText) {
  std::string longtext(fr::kEventTextMax + 30, 'x');
  longtext[0] = 'y';  // make the prefix recognizable
  fr::record(fr::EventKind::kNote, longtext.c_str(), 1);
  const std::string text = dump_text();
  const std::string kept = "y" + std::string(fr::kEventTextMax - 1, 'x');
  EXPECT_NE(text.find(kept), std::string::npos);
  EXPECT_EQ(text.find(kept + "x"), std::string::npos);  // nothing beyond the cap
}

TEST(FlightRecorder, SpanBreadcrumbsFromTracer) {
  Tracer tracer;
  { auto span = tracer.span("fr-span-probe"); }
  const std::string text = dump_text();
  EXPECT_NE(text.find("span-begin 0 fr-span-probe"), std::string::npos) << text;
  EXPECT_NE(text.find("span-end 0 fr-span-probe"), std::string::npos) << text;
}

TEST(FlightRecorder, RingWraparoundReportsDrops) {
  for (std::uint64_t i = 0; i < 2 * fr::kEventsPerThread; ++i) {
    fr::record(fr::EventKind::kNote, "wrap-evt", i);
  }
  const std::string text = dump_text();
  // The newest event survives; the dump's per-thread header admits to the
  // overwritten ones ("dropped <D>" with D > 0 on this thread's line).
  const std::string newest =
      "note " + std::to_string(2 * fr::kEventsPerThread - 1) + " wrap-evt";
  EXPECT_NE(text.find(newest), std::string::npos) << text;
  bool some_thread_dropped = false;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t pos = line.find("dropped ");
    if (pos == std::string::npos) continue;
    if (std::stoull(line.substr(pos + 8)) > 0) some_thread_dropped = true;
  }
  EXPECT_TRUE(some_thread_dropped) << text;
}

TEST(FlightRecorder, DumpToFdMatchesStreamDump) {
  // dump_to_fd is the handler's path: exercise it against a real fd and
  // check the same document shape comes out.
  char path[] = "/tmp/hublab_fr_fd_XXXXXX";
  const int fd = mkstemp(path);
  ASSERT_GE(fd, 0);
  fr::record(fr::EventKind::kNote, "fd-dump-probe", 9);
  fr::dump_to_fd(fd, SIGABRT);
  close(fd);
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  EXPECT_NE(text.find("hublab-flightrec v1"), std::string::npos);
  EXPECT_NE(text.find("signal 6"), std::string::npos) << text;
  EXPECT_NE(text.find("fd-dump-probe"), std::string::npos);
  std::remove(path);
}

// --- crash-path tests: everything below runs the risky part in a forked
// --- child so the gtest process never installs the signal handlers itself
// --- (install is idempotent process-wide; a parent install would pin the
// --- dump path for every later child).

std::string child_dump_path(const char* tag) {
  return testing::TempDir() + "hublab_fr_" + tag + "_" + std::to_string(getpid()) + ".dump";
}

int wait_for(pid_t pid) {
  int status = 0;
  EXPECT_EQ(waitpid(pid, &status, 0), pid);
  return status;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(FlightRecorderCrash, InstallIsIdempotentFirstPathWins) {
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    fr::install_crash_handler("first.dump");
    if (!fr::crash_handler_installed()) _exit(10);
    fr::install_crash_handler("second.dump");
    if (std::strcmp(fr::dump_path(), "first.dump") != 0) _exit(11);
    _exit(0);
  }
  const int status = wait_for(pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(FlightRecorderCrash, AssertFailureInWorkerProducesDump) {
  const std::string path = child_dump_path("assert");
  std::remove(path.c_str());
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    fr::install_crash_handler(path.c_str());
    Tracer tracer;
    auto span = tracer.span("doomed-phase");
    // The assert fires inside a parallel loop body — the scenario the
    // recorder exists for: which phase/chunk was live when a worker died.
    // (parallel_for cuts [0,8) into `threads` chunks, so the chunk index
    // that must trip is 1, not an item index.)
    par::parallel_for(0, 8, 2, [](const par::ChunkRange& chunk) {
      fr::record(fr::EventKind::kNote, "chunk-running", chunk.index);
      HUBLAB_ASSERT_MSG(chunk.index != 1, "flightrec crash test");
    });
    _exit(0);  // not reached
  }
  const int status = wait_for(pid);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT)
      << "status=" << status;
  const std::string dump = read_file(path);
  ASSERT_FALSE(dump.empty()) << "no dump at " << path;
  EXPECT_NE(dump.find("hublab-flightrec v1"), std::string::npos);
  EXPECT_NE(dump.find("signal 6"), std::string::npos) << dump;
  EXPECT_NE(dump.find("span-begin 0 doomed-phase"), std::string::npos) << dump;
  EXPECT_NE(dump.find("chunk-running"), std::string::npos) << dump;
  // The failing expression itself is the most recent breadcrumb.
  EXPECT_NE(dump.find("assert"), std::string::npos) << dump;
  EXPECT_NE(dump.find("chunk.index != 1"), std::string::npos) << dump;
  // The command line follows `signal` on its own line and names this binary.
  const std::size_t signal = dump.find("signal 6\ncmdline ");
  ASSERT_NE(signal, std::string::npos) << dump;
  const std::size_t cmdline = signal + 9;  // past "signal 6\n"
  EXPECT_LT(dump.find("flightrec_test", cmdline), dump.find('\n', cmdline)) << dump;
  std::remove(path.c_str());
}

TEST(FlightRecorderCrash, SegfaultProducesDump) {
  const std::string path = child_dump_path("segv");
  std::remove(path.c_str());
  const pid_t pid = fork();
  ASSERT_NE(pid, -1);
  if (pid == 0) {
    fr::install_crash_handler(path.c_str());
    fr::record(fr::EventKind::kNote, "about-to-corrupt", 7);
    volatile int* wild = reinterpret_cast<volatile int*>(0xdeadULL);
    *wild = 1;  // unmapped page -> SIGSEGV
    _exit(0);   // not reached
  }
  const int status = wait_for(pid);
  // Sanitizer runtimes may claim the fault before our handler; only when
  // the child genuinely died on SIGSEGV is the dump required.
  if (!WIFSIGNALED(status) || WTERMSIG(status) != SIGSEGV) {
    GTEST_SKIP() << "SIGSEGV intercepted by the runtime (status=" << status << ")";
  }
  const std::string dump = read_file(path);
  ASSERT_FALSE(dump.empty()) << "no dump at " << path;
  EXPECT_NE(dump.find("signal 11"), std::string::npos) << dump;
  EXPECT_NE(dump.find("about-to-corrupt"), std::string::npos) << dump;
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hublab
