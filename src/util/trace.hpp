#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "util/metrics.hpp"
#include "util/perfcount.hpp"
#include "util/timer.hpp"

/// \file trace.hpp
/// Scoped-span phase tracing.  A `Tracer` records a tree of named spans
/// (RAII `Span` objects); each completed span carries its wall time and the
/// per-counter deltas of the metrics registry over its lifetime, so a phase
/// report reads "build-pll: 1.2s, pll.visited +48210, pll.pruned +31984".
///
/// When hardware counters are enabled (util/perfcount.hpp, opt-in via
/// `perf::set_enabled`), each span additionally carries the cycle /
/// instruction / cache-miss deltas over its lifetime (`Record::hw`), which
/// the bench reports emit as the per-phase `hw` object.  Spans
/// also record the worker index of the opening thread (`Record::tid`) so
/// Chrome traces lay out on real lanes, and leave begin/end breadcrumbs in
/// the flight recorder (util/flightrec.hpp) for post-mortem dumps.
///
/// Output formats: an indented tree (`write_tree`), and Chrome
/// `trace_event` JSON (`write_chrome_trace`) loadable in `chrome://tracing`
/// / Perfetto.  With `HUBLAB_METRICS=OFF` spans still measure wall time;
/// the counter deltas are simply empty.
///
/// Spans must close LIFO (natural with scoping).  Not thread-safe: one
/// tracer belongs to one thread of execution, like the benches and CLI
/// that drive it.

namespace hublab {

class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Record {
    std::string name;
    double start_s = 0.0;  ///< relative to tracer construction
    double dur_s = 0.0;
    int depth = 0;
    std::size_t parent = kNoParent;
    std::uint64_t tid = 0;  ///< par::worker_index() of the opening thread
    bool open = true;
    std::vector<metrics::CounterSnapshot> counter_deltas;  ///< nonzero deltas only
    perf::HwCounters hw;  ///< hardware-counter deltas; hw.valid when captured
  };

  /// RAII handle: closes its span on destruction (or explicit end()).
  class Span {
   public:
    Span(Span&& other) noexcept : tracer_(other.tracer_), index_(other.index_) {
      other.tracer_ = nullptr;
    }
    Span& operator=(Span&&) = delete;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { end(); }

    /// Close the span now; idempotent.
    void end();

   private:
    friend class Tracer;
    Span(Tracer* tracer, std::size_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    std::size_t index_;
  };

  /// Spans report counter deltas against `reg` (default: the global
  /// registry the instrumented library code writes to).
  explicit Tracer(metrics::Registry& reg = metrics::registry());

  /// Open a nested span.  Keep the returned handle alive for the duration
  /// of the phase; spans close in LIFO order.
  [[nodiscard]] Span span(std::string name);

  /// Completed and open spans in creation order.
  [[nodiscard]] const std::vector<Record>& records() const { return records_; }

  /// Seconds since the tracer was constructed.
  [[nodiscard]] double elapsed_s() const { return timer_.elapsed_s(); }

  /// Indented tree: one line per span with wall time and counter deltas.
  void write_tree(std::ostream& out) const;

  /// Chrome trace_event JSON ("X" complete events; deltas in args).
  void write_chrome_trace(std::ostream& out) const;

  /// Drop all records and open-span state; the clock keeps running.
  void clear();

 private:
  void end_span(std::size_t index);

  metrics::Registry& registry_;
  Timer timer_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_stack_;
  /// Registry counter snapshot at each open span's start, parallel to
  /// open_stack_.
  std::vector<std::vector<metrics::CounterSnapshot>> open_snapshots_;
  /// Hardware-counter snapshot at each open span's start, parallel to
  /// open_stack_ (invalid entries when counters are disabled).
  std::vector<perf::HwCounters> open_hw_;
};

}  // namespace hublab
