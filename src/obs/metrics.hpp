#pragma once

// Metrics registry: labeled counters, gauges, and histograms with a
// Prometheus-style text exposition format.
//
// The registry is the serving stack's second observability pillar (the
// first, request tracing, lives in obs/trace.hpp): where ServeStats is the
// typed in-process view of the serving counters, the registry renders the
// same numbers in the exposition format scrape-based monitoring expects —
// `# HELP` / `# TYPE` headers, `name{label="value"} 1234` samples, and
// cumulative `_bucket{le="..."}` histograms. serve/metrics_export.hpp
// bridges a ServeStats snapshot into a registry, and the TCP front-end
// serves the rendered text over the GetMetrics protocol op.
//
// Concurrency: creating a metric takes the registry mutex; operating on one
// (inc / set / observe) is lock-free on atomics, so instruments can be held
// by hot paths. References returned by counter()/gauge()/histogram() stay
// valid for the registry's lifetime (series are heap-allocated and never
// removed).

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cumf::obs {

/// Label set attached to one series, e.g. {{"result", "hit"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing value. Use add() with non-negative deltas.
class Counter {
 public:
  void inc(double delta = 1.0) { add(delta); }
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  /// Sets an absolute value — for bridging counters maintained elsewhere
  /// (ServeStats snapshots) into a registry.
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// A value that can go up and down.
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bound histogram. Exposed Prometheus-style: cumulative
/// `_bucket{le="bound"}` counts, a `+Inf` bucket, `_sum`, and `_count`.
class Histogram {
 public:
  /// `bounds` are the upper bucket edges, strictly increasing; one overflow
  /// (+Inf) bucket is added after the last.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  /// Merges pre-binned data — per-bucket (non-cumulative) counts aligned
  /// with bounds() plus the overflow bucket — for bridging histograms
  /// maintained elsewhere (LatencyTracker buckets). `n` must be
  /// bounds().size() + 1; extra entries are ignored, missing ones are zero.
  void merge_bins(const std::uint64_t* bin_counts, std::size_t n, double sum,
                  std::uint64_t count);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket i (non-cumulative); i == bounds().size() is overflow.
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const {
    return sum_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Process-wide registry (components that want ambient metrics).
  static MetricsRegistry& global();

  /// Returns the counter series for (name, labels), creating it (and its
  /// family) on first use. Help text is taken from the first call for a
  /// name. Throws std::logic_error when `name` was registered as another
  /// type.
  Counter& counter(const std::string& name, const std::string& help,
                   const Labels& labels = {});
  Gauge& gauge(const std::string& name, const std::string& help,
               const Labels& labels = {});
  /// `bounds` applies to the whole family (first call wins).
  Histogram& histogram(const std::string& name, const std::string& help,
                       const std::vector<double>& bounds,
                       const Labels& labels = {});

  /// Renders every family in the Prometheus text exposition format,
  /// families sorted by name, series in creation order.
  [[nodiscard]] std::string expose() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    std::vector<double> bounds;  // histogram families only
    std::vector<std::unique_ptr<Series>> series;
  };

  Series& find_or_create(const std::string& name, const std::string& help,
                         Kind kind, const Labels& labels,
                         const std::vector<double>* bounds);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

/// Reads one sample back out of exposition text written by expose(): the
/// value on the line `<series> <value>`, where `series` is the name plus its
/// label set exactly as rendered, e.g. `cumf_serve_queries_total` or
/// `cumf_serve_latency_quantile_ms{stage="e2e",q="0.99"}`. nullopt when no
/// line carries that series or its value does not parse.
[[nodiscard]] std::optional<double> metric_value(std::string_view text,
                                                 std::string_view series);

}  // namespace cumf::obs
