#pragma once

// Bridges a ServeStats snapshot into an obs::MetricsRegistry and renders
// the Prometheus-style exposition text the GetMetrics protocol op serves.
//
// ServeStats stays the typed in-process view the components maintain; this
// translation is the single place its fields map onto metric families, and
// GetMetrics is the only way those counters leave the process — a new
// counter is written into ServeStats and here, nowhere else. Latency stages
// share one histogram family (cumf_serve_latency_ms{stage=...}) fed from the
// trackers' fixed buckets (kLatencyBucketBoundsMs), plus window-percentile
// gauges.

#include <string>

#include "obs/metrics.hpp"
#include "serve/serve_stats.hpp"

namespace cumf::serve {

/// Populates `reg` from one ServeStats snapshot (the front-end slice rides
/// along as ServeStats::net). Counter series are set to the snapshot's
/// absolute values, so call it on a freshly constructed registry per
/// exposition.
void fill_registry(const ServeStats& stats, obs::MetricsRegistry* reg);

/// fill_registry into a fresh registry, rendered as exposition text. Also
/// appends the trace collector's self-metrics (events recorded/dropped,
/// enabled flag).
[[nodiscard]] std::string metrics_exposition(const ServeStats& stats);

}  // namespace cumf::serve
