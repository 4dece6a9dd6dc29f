#include "util/log.hpp"

#include <cstdio>
#include <iostream>
#include <ostream>

#include "util/flightrec.hpp"
#include "util/json.hpp"
#include "util/timer.hpp"

namespace hublab::log {

namespace {

void format_double(std::string& out, double v) {
  char buf[32];
  // %.17g round-trips but litters; %.6g is plenty for log fields.
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out += buf;
}

}  // namespace

std::string_view level_name(Level level) noexcept {
  switch (level) {
    case Level::kTrace: return "trace";
    case Level::kDebug: return "debug";
    case Level::kInfo: return "info";
    case Level::kWarn: return "warn";
    case Level::kError: return "error";
    case Level::kOff: break;
  }
  return "off";
}

Field::Field(std::string_view k, double v) : key(k) { format_double(value, v); }

Field::Field(std::string_view k, std::uint64_t v) : key(k), value(std::to_string(v)) {}

Field::Field(std::string_view k, std::int64_t v) : key(k), value(std::to_string(v)) {}

// util/log.cpp is the allowlisted home of raw stderr output (see the raw-io
// rule in docs/correctness.md): everything else in src/ logs through here.
Logger::Logger() : sink_(&std::cerr), epoch_ns_(monotonic_ns()) {}

void Logger::write(Level level, std::string_view component, std::string_view message,
                   std::initializer_list<Field> fields) {
  if (!enabled(level) || level == Level::kOff || sink_ == nullptr) return;
  // Flight-recorder breadcrumb: every emitted log line also lands in the
  // crash ring (truncated), so post-mortem dumps show recent logging.
  {
    char crumb[fr::kEventTextMax + 1];
    const std::size_t n = message.size() < fr::kEventTextMax ? message.size() : fr::kEventTextMax;
    message.copy(crumb, n);
    crumb[n] = '\0';
    fr::record(fr::EventKind::kLog, crumb, static_cast<std::uint64_t>(level));
  }
  std::string line = "level=";
  line += level_name(level);
  line += " ts=";
  format_double(line, static_cast<double>(monotonic_ns() - epoch_ns_) * 1e-9);
  line += " component=";
  line += component;
  line += " msg=";
  line += JsonWriter::escape(message);
  for (const Field& f : fields) {
    line += ' ';
    line += f.key;
    line += '=';
    if (f.quoted) {
      line += JsonWriter::escape(f.value);
    } else {
      line += f.value;
    }
  }
  line += '\n';
  *sink_ << line;
  sink_->flush();
  ++records_written_;
}

Logger& logger() {
  static Logger instance;
  return instance;
}

}  // namespace hublab::log
