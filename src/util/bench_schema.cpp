#include "util/bench_schema.hpp"

namespace hublab {

namespace {

class Checker {
 public:
  explicit Checker(const JsonValue& doc) : doc_(doc) {}

  std::vector<std::string> run() {
    if (!doc_.is_object()) {
      fail("document: expected a JSON object");
      return errors_;
    }
    const JsonValue* version = require(doc_, "schema_version", "", JsonValue::Kind::kNumber);
    if (version != nullptr &&
        version->number_value != static_cast<double>(kBenchSchemaVersion)) {
      fail("schema_version: expected " + std::to_string(kBenchSchemaVersion));
    }
    const JsonValue* bench = require(doc_, "bench", "", JsonValue::Kind::kString);
    if (bench != nullptr && bench->string_value.empty()) fail("bench: must be non-empty");
    require(doc_, "git_rev", "", JsonValue::Kind::kString);
    require(doc_, "smoke", "", JsonValue::Kind::kBool);
    require(doc_, "ok", "", JsonValue::Kind::kBool);
    const JsonValue* reps = require(doc_, "repetitions", "", JsonValue::Kind::kNumber);
    if (reps != nullptr && reps->number_value < 1) fail("repetitions: must be >= 1");
    const JsonValue* start = require(doc_, "start_unix_ms", "", JsonValue::Kind::kNumber);
    if (start != nullptr && start->number_value < 0) fail("start_unix_ms: negative");
    const JsonValue* rss = require(doc_, "peak_rss_bytes", "", JsonValue::Kind::kNumber);
    if (rss != nullptr && rss->number_value < 0) fail("peak_rss_bytes: negative");
    // `threads` is optional; when present it must be a number >= 1.
    const JsonValue* threads = doc_.find("threads");
    if (threads != nullptr) {
      if (!threads->is_number()) fail("threads: wrong type");
      else if (threads->number_value < 1) fail("threads: must be >= 1");
    }
    check_graphs();
    check_phases();
    check_metric_object(doc_.find("counters"), "counters");
    check_metric_object(doc_.find("gauges"), "gauges");
    // Per-query attribution members.  All optional — benches never emit
    // them — but whenever present their shape must hold.
    check_windows(doc_.find("windows"));
    check_exemplar_array(doc_.find("slow_queries"), "slow_queries");
    check_exemplar_stores(doc_.find("exemplars"));
    check_heavy_hitters(doc_.find("heavy_hitters"));
    return errors_;
  }

 private:
  void fail(std::string message) { errors_.push_back(std::move(message)); }

  /// Member presence + kind check; returns the member when well-kinded.
  const JsonValue* require(const JsonValue& obj, const std::string& name,
                           const std::string& prefix, JsonValue::Kind kind) {
    const JsonValue* member = obj.find(name);
    const std::string path = prefix.empty() ? name : prefix + "." + name;
    if (member == nullptr) {
      fail(path + ": missing");
      return nullptr;
    }
    if (member->kind != kind) {
      fail(path + ": wrong type");
      return nullptr;
    }
    return member;
  }

  void check_graphs() {
    const JsonValue* graphs = require(doc_, "graphs", "", JsonValue::Kind::kArray);
    if (graphs == nullptr) return;
    for (std::size_t i = 0; i < graphs->array_items.size(); ++i) {
      const JsonValue& g = graphs->array_items[i];
      const std::string prefix = "graphs[" + std::to_string(i) + "]";
      if (!g.is_object()) {
        fail(prefix + ": expected an object");
        continue;
      }
      require(g, "family", prefix, JsonValue::Kind::kString);
      require(g, "n", prefix, JsonValue::Kind::kNumber);
      require(g, "m", prefix, JsonValue::Kind::kNumber);
    }
  }

  void check_phases() {
    const JsonValue* phases = require(doc_, "phases", "", JsonValue::Kind::kArray);
    if (phases == nullptr) return;
    for (std::size_t i = 0; i < phases->array_items.size(); ++i) {
      const JsonValue& p = phases->array_items[i];
      const std::string prefix = "phases[" + std::to_string(i) + "]";
      if (!p.is_object()) {
        fail(prefix + ": expected an object");
        continue;
      }
      require(p, "name", prefix, JsonValue::Kind::kString);
      const JsonValue* wall = require(p, "wall_s", prefix, JsonValue::Kind::kNumber);
      if (wall != nullptr && wall->number_value < 0) fail(prefix + ".wall_s: negative");
      const JsonValue* counters = p.find("counters");
      if (counters != nullptr) check_metric_object(counters, prefix + ".counters");
      // Both optional per phase: `tid` is the opening thread's worker
      // index, `hw` appears only with --perf-counters on a capable host.
      const JsonValue* tid = p.find("tid");
      if (tid != nullptr) {
        if (!tid->is_number()) fail(prefix + ".tid: wrong type");
        else if (tid->number_value < 0) fail(prefix + ".tid: must be >= 0");
      }
      const JsonValue* hw = p.find("hw");
      if (hw != nullptr) check_hw(*hw, prefix + ".hw");
    }
  }

  /// Per-phase hardware-counter object: cycles, instructions
  /// and ipc are required; the miss counters and rates are best-effort
  /// (the perf group opens them individually and a host may refuse some).
  void check_hw(const JsonValue& hw, const std::string& prefix) {
    if (!hw.is_object()) {
      fail(prefix + ": expected an object");
      return;
    }
    for (const char* name : {"cycles", "instructions", "ipc"}) {
      const JsonValue* member = require(hw, name, prefix, JsonValue::Kind::kNumber);
      if (member != nullptr && member->number_value < 0) {
        fail(prefix + "." + name + ": must be >= 0");
      }
    }
    for (const char* name :
         {"l1d_misses", "llc_misses", "branch_misses", "llc_miss_rate", "branch_miss_rate"}) {
      const JsonValue* member = hw.find(name);
      if (member == nullptr) continue;
      if (!member->is_number()) fail(prefix + "." + name + ": wrong type");
      else if (member->number_value < 0) fail(prefix + "." + name + ": must be >= 0");
    }
  }

  /// Numeric member >= 0, required within `obj`.
  void require_nonneg(const JsonValue& obj, const std::string& name, const std::string& prefix) {
    const JsonValue* member = require(obj, name, prefix, JsonValue::Kind::kNumber);
    if (member != nullptr && member->number_value < 0) fail(prefix + "." + name + ": negative");
  }

  /// `windows`: per-window throughput/latency series.
  void check_windows(const JsonValue* windows) {
    if (windows == nullptr) return;
    if (!windows->is_array()) {
      fail("windows: expected an array");
      return;
    }
    for (std::size_t i = 0; i < windows->array_items.size(); ++i) {
      const JsonValue& win = windows->array_items[i];
      const std::string prefix = "windows[" + std::to_string(i) + "]";
      if (!win.is_object()) {
        fail(prefix + ": expected an object");
        continue;
      }
      for (const char* name : {"index", "queries", "qps", "p50_ns", "p99_ns"}) {
        require_nonneg(win, name, prefix);
      }
    }
  }

  /// One captured exemplar (util/exemplar.hpp rendered to JSON).
  void check_exemplar(const JsonValue& e, const std::string& prefix) {
    if (!e.is_object()) {
      fail(prefix + ": expected an object");
      return;
    }
    for (const char* name : {"seq", "s", "t", "latency_ns", "scan_cost", "meeting_hub"}) {
      require_nonneg(e, name, prefix);
    }
  }

  /// `slow_queries`: worst-first array of exemplars.
  void check_exemplar_array(const JsonValue* arr, const std::string& prefix) {
    if (arr == nullptr) return;
    if (!arr->is_array()) {
      fail(prefix + ": expected an array");
      return;
    }
    for (std::size_t i = 0; i < arr->array_items.size(); ++i) {
      check_exemplar(arr->array_items[i], prefix + "[" + std::to_string(i) + "]");
    }
  }

  /// `exemplars`: stores keyed by name, each with bucketed
  /// witnesses.
  void check_exemplar_stores(const JsonValue* stores) {
    if (stores == nullptr) return;
    if (!stores->is_object()) {
      fail("exemplars: expected an object");
      return;
    }
    for (const auto& [store_name, store] : stores->object_members) {
      const std::string prefix = "exemplars." + store_name;
      if (!store.is_object()) {
        fail(prefix + ": expected an object");
        continue;
      }
      require_nonneg(store, "count", prefix);
      const JsonValue* buckets = require(store, "buckets", prefix, JsonValue::Kind::kArray);
      if (buckets == nullptr) continue;
      for (std::size_t i = 0; i < buckets->array_items.size(); ++i) {
        const JsonValue& bucket = buckets->array_items[i];
        const std::string bucket_prefix = prefix + ".buckets[" + std::to_string(i) + "]";
        if (!bucket.is_object()) {
          fail(bucket_prefix + ": expected an object");
          continue;
        }
        require_nonneg(bucket, "le", bucket_prefix);
        require_nonneg(bucket, "count", bucket_prefix);
        const JsonValue* witnesses =
            require(bucket, "exemplars", bucket_prefix, JsonValue::Kind::kArray);
        if (witnesses == nullptr) continue;
        for (std::size_t j = 0; j < witnesses->array_items.size(); ++j) {
          check_exemplar(witnesses->array_items[j],
                         bucket_prefix + ".exemplars[" + std::to_string(j) + "]");
        }
      }
    }
  }

  /// `heavy_hitters`: sketches keyed by name.
  void check_heavy_hitters(const JsonValue* sketches) {
    if (sketches == nullptr) return;
    if (!sketches->is_object()) {
      fail("heavy_hitters: expected an object");
      return;
    }
    for (const auto& [sketch_name, sketch] : sketches->object_members) {
      const std::string prefix = "heavy_hitters." + sketch_name;
      if (!sketch.is_object()) {
        fail(prefix + ": expected an object");
        continue;
      }
      require_nonneg(sketch, "total_weight", prefix);
      const JsonValue* entries = require(sketch, "entries", prefix, JsonValue::Kind::kArray);
      if (entries == nullptr) continue;
      for (std::size_t i = 0; i < entries->array_items.size(); ++i) {
        const JsonValue& entry = entries->array_items[i];
        const std::string entry_prefix = prefix + ".entries[" + std::to_string(i) + "]";
        if (!entry.is_object()) {
          fail(entry_prefix + ": expected an object");
          continue;
        }
        for (const char* name : {"key", "weight", "error"}) {
          require_nonneg(entry, name, entry_prefix);
        }
      }
    }
  }

  /// counters/gauges: object mapping metric names to numbers.
  void check_metric_object(const JsonValue* obj, const std::string& prefix) {
    if (obj == nullptr) {
      fail(prefix + ": missing");
      return;
    }
    if (!obj->is_object()) {
      fail(prefix + ": expected an object");
      return;
    }
    for (const auto& [name, v] : obj->object_members) {
      if (!v.is_number()) fail(prefix + "." + name + ": expected a number");
    }
  }

  const JsonValue& doc_;
  std::vector<std::string> errors_;
};

}  // namespace

std::vector<std::string> validate_bench_json(const JsonValue& doc) {
  return Checker(doc).run();
}

}  // namespace hublab
