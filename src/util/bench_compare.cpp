#include "util/bench_compare.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <string_view>

#include "util/bench_schema.hpp"
#include "util/table.hpp"

namespace hublab {

namespace {

/// Ordered name -> value view of one comparable section of a report.
using Series = std::map<std::string, double>;

/// Base phases faster than this never gate: their wall time is mostly noise.
constexpr double kMinGatedWallS = 1e-3;

/// Phase wall times summed by name ("phase.<name>.wall_s"), plus the
/// top-level total.  Summing makes repeated phase names (loops) well
/// defined on both sides.
Series phase_series(const JsonValue& doc) {
  Series out;
  const JsonValue* phases = doc.find("phases");
  if (phases == nullptr || !phases->is_array()) return out;
  double total = 0.0;
  for (const JsonValue& p : phases->array_items) {
    if (!p.is_object()) continue;
    const JsonValue* name = p.find("name");
    const JsonValue* wall = p.find("wall_s");
    if (name == nullptr || wall == nullptr || !wall->is_number()) continue;
    out["phase." + name->string_value + ".wall_s"] += wall->number_value;
    const JsonValue* depth = p.find("depth");
    if (depth == nullptr || !depth->is_number() || depth->number_value == 0) {
      total += wall->number_value;
    }
  }
  if (!out.empty()) out["total.wall_s"] = total;
  return out;
}

Series metric_object_series(const JsonValue& doc, const char* member, const char* prefix) {
  Series out;
  const JsonValue* obj = doc.find(member);
  if (obj == nullptr || !obj->is_object()) return out;
  for (const auto& [name, v] : obj->object_members) {
    if (v.is_number()) out[std::string(prefix) + "." + name] = v.number_value;
  }
  return out;
}

/// Flatten {"name": {"p50": ..}} distribution objects into
/// "<prefix>.<name>.<stat>" rows for the chosen stats.
Series distribution_series(const JsonValue& doc, const char* member, const char* prefix,
                           const std::vector<std::string>& stats) {
  Series out;
  const JsonValue* obj = doc.find(member);
  if (obj == nullptr || !obj->is_object()) return out;
  for (const auto& [name, dist] : obj->object_members) {
    if (!dist.is_object()) continue;
    for (const std::string& stat : stats) {
      const JsonValue* v = dist.find(stat);
      if (v != nullptr && v->is_number()) {
        out[std::string(prefix) + "." + name + "." + stat] = v->number_value;
      }
    }
  }
  return out;
}

/// Which direction of change is a regression for a section.
enum class Direction {
  kIncreaseBad,  ///< times, sizes, counts: growing past threshold gates
  kDecreaseBad,  ///< throughputs: shrinking past threshold gates
};

class Comparer {
 public:
  explicit Comparer(CompareReport& report) : report_(report) {}

  /// Append rows for one section.  `threshold_pct` < 0 disables gating for
  /// the whole section; `min_base` sets the floor below which a base value
  /// never gates.
  void section(const Series& base, const Series& next, double threshold_pct,
               double min_base = 0.0, Direction direction = Direction::kIncreaseBad) {
    for (const auto& [name, base_value] : base) {
      const auto it = next.find(name);
      if (it == next.end()) {
        // Renamed or dropped: informational (the schema validator already
        // guarantees the required members are present).
        report_.rows.push_back({name + " [dropped]", base_value, 0.0, 0.0, false, false});
        continue;
      }
      const double next_value = it->second;
      CompareRow row{name, base_value, next_value, 0.0, false, false};
      if (base_value != 0.0) row.delta_pct = 100.0 * (next_value - base_value) / base_value;
      row.gated = threshold_pct >= 0.0 && base_value >= min_base;
      if (row.gated && base_value >= 0.0) {
        if (direction == Direction::kIncreaseBad) {
          row.regressed = next_value > base_value * (1.0 + threshold_pct / 100.0);
        } else {
          // Symmetric bound: a throughput regresses when it drops by the
          // same factor an increase-bad metric is allowed to grow by.
          row.regressed = next_value < base_value / (1.0 + threshold_pct / 100.0);
        }
      }
      report_.rows.push_back(row);
    }
    for (const auto& [name, next_value] : next) {
      if (base.find(name) == base.end()) {
        report_.rows.push_back({name + " [new]", 0.0, next_value, 0.0, false, false});
      }
    }
  }

 private:
  CompareReport& report_;
};

/// True when some dotted segment of `name` carries the unit `suffix` as a
/// whole word: the segment equals it or ends with `_<suffix>`.  Names are
/// scanned right to left so per-instance suffixes ("serve.window.qps.3",
/// "pract.serve_peak_qps.batch4w") still classify; the underscore boundary
/// keeps e.g. "instructions" from reading as an `ns` unit.
bool any_segment_has_unit(const std::string& name, std::string_view suffix) {
  std::size_t end = name.size();
  while (end > 0) {
    const std::size_t dot = name.rfind('.', end - 1);
    const std::size_t begin = dot == std::string::npos ? 0 : dot + 1;
    const std::string_view segment(name.data() + begin, end - begin);
    if (segment == suffix ||
        (segment.size() > suffix.size() && segment.ends_with(suffix) &&
         segment[segment.size() - suffix.size() - 1] == '_')) {
      return true;
    }
    if (dot == std::string::npos) break;
    end = dot;
  }
  return false;
}

/// Split a gauge series into direction classes: segments ending `qps` are
/// throughputs (higher is better), segments ending `ns` are wall-clock
/// latencies (noisy, increase-bad at the wall threshold), the rest are
/// structural.
struct GaugeClasses {
  Series qps;
  Series ns;
  Series structural;
};

GaugeClasses classify_gauges(const Series& gauges) {
  GaugeClasses out;
  for (const auto& [name, value] : gauges) {
    if (any_segment_has_unit(name, "qps")) {
      out.qps[name] = value;
    } else if (any_segment_has_unit(name, "ns")) {
      out.ns[name] = value;
    } else {
      out.structural[name] = value;
    }
  }
  return out;
}

}  // namespace

std::size_t CompareReport::num_regressions() const {
  return static_cast<std::size_t>(
      std::count_if(rows.begin(), rows.end(), [](const CompareRow& r) { return r.regressed; }));
}

CompareReport compare_bench_json(const JsonValue& base, const JsonValue& next,
                                 const CompareOptions& options) {
  CompareReport report;
  for (const std::string& e : validate_bench_json(base)) report.errors.push_back("base: " + e);
  for (const std::string& e : validate_bench_json(next)) report.errors.push_back("new: " + e);
  if (!report.errors.empty()) return report;

  Comparer comparer(report);
  comparer.section(phase_series(base), phase_series(next), options.threshold_pct,
                   kMinGatedWallS);
  comparer.section(metric_object_series(base, "counters", "counter"),
                   metric_object_series(next, "counters", "counter"),
                   options.structural_threshold_pct);
  // Gauges gate by direction class (see classify_gauges): throughput
  // gauges catch decreases, latency gauges catch increases — both at the
  // wall threshold — and everything else stays structural.
  const GaugeClasses base_gauges = classify_gauges(metric_object_series(base, "gauges", "gauge"));
  const GaugeClasses next_gauges = classify_gauges(metric_object_series(next, "gauges", "gauge"));
  comparer.section(base_gauges.qps, next_gauges.qps, options.threshold_pct, 0.0,
                   Direction::kDecreaseBad);
  comparer.section(base_gauges.ns, next_gauges.ns, options.threshold_pct);
  comparer.section(base_gauges.structural, next_gauges.structural,
                   options.structural_threshold_pct);
  comparer.section(
      distribution_series(base, "histograms", "histogram", {"p50", "p90", "p99", "sum"}),
      distribution_series(next, "histograms", "histogram", {"p50", "p90", "p99", "sum"}),
      options.structural_threshold_pct);
  comparer.section(
      distribution_series(base, "sketches", "sketch", {"p50", "p90", "p99", "p999"}),
      distribution_series(next, "sketches", "sketch", {"p50", "p90", "p99", "p999"}),
      options.threshold_pct);
  return report;
}

void write_compare_table(std::ostream& out, const CompareReport& report, bool all_rows) {
  for (const std::string& e : report.errors) out << "error: " << e << "\n";
  if (!report.errors.empty()) return;

  TextTable table({"metric", "base", "new", "delta%", "verdict"});
  for (const CompareRow& r : report.rows) {
    const bool changed = r.base != r.next;
    if (!all_rows && !changed && !r.regressed) continue;
    table.add_row({r.metric, fmt_double(r.base, 6), fmt_double(r.next, 6),
                   fmt_double(r.delta_pct, 2),
                   r.regressed ? "REGRESSED"
                   : !r.gated  ? "info"
                   : changed   ? "ok"
                               : "="});
  }
  table.print(out, "bench-compare");
  const std::size_t regressions = report.num_regressions();
  out << "bench-compare: " << report.rows.size() << " metrics, " << regressions
      << " regression(s)\n";
}

}  // namespace hublab
