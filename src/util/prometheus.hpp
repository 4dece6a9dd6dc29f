#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "util/metrics.hpp"

/// \file prometheus.hpp
/// Prometheus text-exposition rendering of the metrics registry
/// (https://prometheus.io/docs/instrumenting/exposition_formats/, version
/// 0.0.4).  `hublab serve --prom-out FILE` dumps the registry through
/// this so a scrape target or pushgateway can ingest a run without any
/// bespoke tooling:
///
///  - counters  -> `# TYPE hublab_<name> counter` + one sample;
///  - gauges    -> `# TYPE hublab_<name> gauge` + one sample;
///  - histograms-> native Prometheus histograms: cumulative
///    `hublab_<name>_bucket{le="<pow2 bound>"}` series ending in
///    `le="+Inf"`, plus `_sum` and `_count`;
///  - sketches  -> summaries: `hublab_<name>{quantile="0.5|0.9|0.99|0.999"}`
///    plus `_sum` and `_count`;
///  - exemplar stores (util/exemplar.hpp) -> histograms over the capture
///    buckets with an OpenMetrics exemplar (`... # {seq=...,s=...,t=...}
///    latency`) attached to each bucket that retained a witness;
///  - heavy hitters (util/heavyhitter.hpp) -> one labeled sample per
///    retained key (`hublab_<name>{key="<id>"} weight`) plus
///    `{key="total"}`, e.g. the `hublab_hub_scan_cost` series.
///
/// Every family is preceded by a `# HELP` line echoing the registry-side
/// name, then its `# TYPE` line.  Metric names are sanitized (dots and
/// other non-[a-zA-Z0-9_:] characters become `_`) and prefixed with
/// `hublab_`.  Output is sorted by name like every other registry dump, so
/// files diff cleanly across runs.

namespace hublab::metrics {

/// `name` sanitized into a legal Prometheus metric name, `hublab_` prefix
/// included (exposed for tests).
[[nodiscard]] std::string prometheus_metric_name(std::string_view name);

/// Render every metric in `reg` in text exposition format.
void write_prometheus_text(const Registry& reg, std::ostream& out);

}  // namespace hublab::metrics
