#include "util/report.hpp"

#include <ostream>

#include "util/bench_schema.hpp"
#include "util/json.hpp"
#include "util/resource.hpp"

namespace hublab {

void write_run_report_json(std::ostream& os, const ReportHeader& header, const Tracer& tracer,
                           metrics::Registry& reg,
                           const std::function<void(JsonWriter&)>& extra_members) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema_version", kBenchSchemaVersion);
  w.kv("bench", header.name);
  w.kv("git_rev", header.git_rev);
  w.kv("smoke", header.smoke);
  w.kv("ok", header.ok);
  w.kv("repetitions", header.repetitions);
  w.kv("start_unix_ms", header.start_unix_ms);
  w.kv("peak_rss_bytes", peak_rss_bytes());
  w.kv("threads", header.threads == 0 ? 1 : header.threads);

  w.key("graphs").begin_array();
  for (const ReportGraph& g : header.graphs) {
    w.begin_object();
    w.kv("family", g.family);
    w.kv("n", g.n);
    w.kv("m", g.m);
    w.end_object();
  }
  w.end_array();

  w.key("phases").begin_array();
  for (const Tracer::Record& r : tracer.records()) {
    if (r.open) continue;
    w.begin_object();
    w.kv("name", r.name);
    w.kv("wall_s", r.dur_s);
    w.kv("depth", static_cast<std::uint64_t>(r.depth));
    w.kv("tid", r.tid);
    if (!r.counter_deltas.empty()) {
      w.key("counters").begin_object();
      for (const metrics::CounterSnapshot& c : r.counter_deltas) w.kv(c.name, c.value);
      w.end_object();
    }
    if (r.hw.valid) {
      // The `hw` object: raw deltas plus the derived rates, so the
      // trajectory tooling reads IPC without re-deriving it.
      w.key("hw").begin_object();
      w.kv("cycles", r.hw.cycles);
      w.kv("instructions", r.hw.instructions);
      w.kv("ipc", r.hw.ipc());
      w.kv("l1d_misses", r.hw.l1d_misses);
      w.kv("llc_misses", r.hw.llc_misses);
      w.kv("branch_misses", r.hw.branch_misses);
      w.kv("llc_miss_rate", r.hw.llc_miss_rate());
      w.kv("branch_miss_rate", r.hw.branch_miss_rate());
      w.end_object();
    }
    w.end_object();
  }
  w.end_array();

  w.key("counters").begin_object();
  for (const metrics::CounterSnapshot& c : reg.counters()) w.kv(c.name, c.value);
  w.end_object();

  w.key("gauges").begin_object();
  for (const metrics::GaugeSnapshot& g : reg.gauges()) w.kv(g.name, g.value);
  w.end_object();

  w.key("histograms").begin_object();
  for (const metrics::HistogramSnapshot& h : reg.histograms()) {
    w.key(h.name).begin_object();
    w.kv("count", h.count);
    w.kv("sum", h.sum);
    w.kv("min", h.min);
    w.kv("max", h.max);
    w.kv("p50", h.p50);
    w.kv("p90", h.p90);
    w.kv("p99", h.p99);
    w.end_object();
  }
  w.end_object();

  w.key("sketches").begin_object();
  for (const metrics::SketchSnapshot& s : reg.sketches()) {
    w.key(s.name).begin_object();
    w.kv("count", s.count);
    w.kv("sum", s.sum);
    w.kv("min", s.min);
    w.kv("max", s.max);
    w.kv("p50", s.p50);
    w.kv("p90", s.p90);
    w.kv("p99", s.p99);
    w.kv("p999", s.p999);
    w.kv("rank_error", s.rank_error);
    w.end_object();
  }
  w.end_object();

  // Attribution stores (schema v4) are optional members: most benches
  // register none, and empty objects would churn every committed baseline.
  const auto exemplar_stores = reg.exemplars();
  if (!exemplar_stores.empty()) {
    w.key("exemplars").begin_object();
    for (const metrics::ExemplarStoreSnapshot& store : exemplar_stores) {
      w.key(store.name).begin_object();
      w.kv("count", store.count);
      w.key("buckets").begin_array();
      for (const metrics::ExemplarBucket& bucket : store.buckets) {
        w.begin_object();
        w.kv("le", bucket.le);
        w.kv("count", bucket.count);
        w.key("exemplars").begin_array();
        for (const metrics::Exemplar& e : bucket.exemplars) {
          w.begin_object();
          w.kv("seq", e.seq);
          w.kv("s", static_cast<std::uint64_t>(e.s));
          w.kv("t", static_cast<std::uint64_t>(e.t));
          w.kv("latency_ns", e.latency_ns);
          w.kv("scan_cost", e.scan_cost);
          w.kv("meeting_hub", static_cast<std::uint64_t>(e.meeting_hub));
          w.end_object();
        }
        w.end_array();
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_object();
  }

  const auto heavy = reg.heavy_hitters();
  if (!heavy.empty()) {
    w.key("heavy_hitters").begin_object();
    for (const metrics::HeavyHitterSnapshot& hh : heavy) {
      w.key(hh.name).begin_object();
      w.kv("total_weight", hh.total_weight);
      w.key("entries").begin_array();
      for (const metrics::SpaceSavingSketch::Entry& entry : hh.entries) {
        w.begin_object();
        w.kv("key", entry.key);
        w.kv("weight", entry.weight);
        w.kv("error", entry.error);
        w.end_object();
      }
      w.end_array();
      w.end_object();
    }
    w.end_object();
  }

  if (extra_members) extra_members(w);

  w.end_object();
  os << '\n';
}

}  // namespace hublab
