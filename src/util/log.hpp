#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>

/// \file log.hpp
/// Leveled structured logging for the serving path.
///
/// Library code reports *results* through return values and exceptions
/// (hublab_lint's stdout-in-library rule); what it may not do is narrate.
/// The serving layer, however, reports a few operational events — slow
/// queries past the `--slow-query-ms` threshold and the closing summary of
/// a serve loop — and this file is the one sanctioned channel for them:
///
///  - six levels (TRACE < DEBUG < INFO < WARN < ERROR < OFF) with a runtime
///    filter (`Logger::set_level`);
///  - structured `key=value` fields rendered as logfmt-style text, never
///    interpolated into the message string;
///  - an explicit sink `std::ostream*` (stderr by default — stdout stays
///    reserved for program output).  `hublab_lint`'s raw-io rule forbids
///    `fprintf`/`std::cerr` everywhere else in src/, so all diagnostics
///    funnel through here;
///  - every emitted record also lands in the crash flight recorder
///    (util/flightrec.hpp) as a `log` event, so a post-mortem dump shows
///    the most recent records.
///
/// The global `logger()` is what the macros write to; tests swap its sink
/// for a stringstream and restore it.  The logger is not thread-safe: its
/// only writers are `serve::run_server_on`'s two call sites, which run on
/// the calling thread after every shard worker has joined.

namespace hublab::log {

enum class Level : int { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kError = 4, kOff = 5 };

/// "trace", "debug", "info", "warn", "error", "off".
[[nodiscard]] std::string_view level_name(Level level) noexcept;

/// One structured field.  Numbers and bools render unquoted; strings are
/// quoted and escaped.
struct Field {
  Field(std::string_view k, std::string_view v) : key(k), value(v), quoted(true) {}
  Field(std::string_view k, const char* v) : key(k), value(v), quoted(true) {}
  Field(std::string_view k, bool v) : key(k), value(v ? "true" : "false") {}
  Field(std::string_view k, double v);
  Field(std::string_view k, std::uint64_t v);
  Field(std::string_view k, std::int64_t v);
  Field(std::string_view k, int v) : Field(k, static_cast<std::int64_t>(v)) {}
  Field(std::string_view k, unsigned v) : Field(k, static_cast<std::uint64_t>(v)) {}

  std::string key;
  std::string value;
  bool quoted = false;
};

class Logger {
 public:
  /// Sink defaults to stderr; level to kInfo.
  Logger();

  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// Redirect output; nullptr silences the logger.  The stream must
  /// outlive the logger or the next set_sink call.
  void set_sink(std::ostream* sink) { sink_ = sink; }

  void set_level(Level level) noexcept { level_ = level; }
  [[nodiscard]] Level level() const noexcept { return level_; }
  [[nodiscard]] bool enabled(Level level) const noexcept { return level >= level_; }

  /// Emit one record when `level` passes the filter and a sink is set.
  void write(Level level, std::string_view component, std::string_view message,
             std::initializer_list<Field> fields = {});

  /// Records emitted (post-filter) since construction.
  [[nodiscard]] std::uint64_t records_written() const noexcept { return records_written_; }

 private:
  std::ostream* sink_;
  Level level_ = Level::kInfo;
  std::uint64_t records_written_ = 0;
  std::uint64_t epoch_ns_ = 0;  ///< monotonic_ns() at construction
};

/// The process-global logger the HUBLAB_LOG_* macros write to.
Logger& logger();

}  // namespace hublab::log

/// The fields are only built when the level passes the runtime filter.
#define HUBLAB_LOG_AT(level_, component_, message_, ...)                         \
  do {                                                                           \
    auto& hublab_logger_ = ::hublab::log::logger();                              \
    if (hublab_logger_.enabled(level_)) {                                        \
      hublab_logger_.write((level_), (component_), (message_), {__VA_ARGS__});   \
    }                                                                            \
  } while (false)

#define HUBLAB_LOG_INFO(component_, message_, ...) \
  HUBLAB_LOG_AT(::hublab::log::Level::kInfo, component_, message_ __VA_OPT__(, ) __VA_ARGS__)
#define HUBLAB_LOG_WARN(component_, message_, ...) \
  HUBLAB_LOG_AT(::hublab::log::Level::kWarn, component_, message_ __VA_OPT__(, ) __VA_ARGS__)
