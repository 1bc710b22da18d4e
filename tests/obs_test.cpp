#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/serve_stats.hpp"

namespace cumf {
namespace {

// ----------------------------------------------------------- registry ------

TEST(MetricsRegistry, CounterAndGaugeExposition) {
  obs::MetricsRegistry reg;
  reg.counter("test_requests_total", "Requests served", {{"result", "ok"}})
      .add(3);
  reg.counter("test_requests_total", "Requests served", {{"result", "err"}})
      .inc();
  reg.gauge("test_queue_depth", "Current queue depth").set(7.5);

  const std::string text = reg.expose();
  EXPECT_NE(text.find("# HELP test_requests_total Requests served\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_requests_total{result=\"ok\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_requests_total{result=\"err\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("test_queue_depth 7.5\n"), std::string::npos);
}

TEST(MetricsRegistry, FamiliesExposeSortedByName) {
  obs::MetricsRegistry reg;
  reg.counter("zz_total", "last").inc();
  reg.counter("aa_total", "first").inc();
  const std::string text = reg.expose();
  EXPECT_LT(text.find("aa_total"), text.find("zz_total"));
}

TEST(MetricsRegistry, SameSeriesReturnsSameInstrument) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("test_total", "h", {{"k", "v"}});
  obs::Counter& b = reg.counter("test_total", "h", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  a.inc();
  b.inc();
  EXPECT_DOUBLE_EQ(a.value(), 2.0);

  // Different label values are distinct series in the same family.
  obs::Counter& c = reg.counter("test_total", "h", {{"k", "w"}});
  EXPECT_NE(&a, &c);
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
}

TEST(MetricsRegistry, TypeMismatchThrows) {
  obs::MetricsRegistry reg;
  reg.counter("test_total", "h").inc();
  EXPECT_THROW((void)reg.gauge("test_total", "h"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("test_total", "h", {1.0}),
               std::logic_error);
}

TEST(MetricsRegistry, LabelValuesAreEscaped) {
  obs::MetricsRegistry reg;
  reg.counter("test_total", "h", {{"path", "a\\b\"c\nd"}}).inc();
  const std::string text = reg.expose();
  EXPECT_NE(text.find("test_total{path=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(MetricsRegistry, HistogramCumulativeExposition) {
  obs::MetricsRegistry reg;
  obs::Histogram& h =
      reg.histogram("test_ms", "Latency", {1.0, 2.0}, {{"stage", "x"}});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(5.0);

  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);  // overflow
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 7.0);

  const std::string text = reg.expose();
  EXPECT_NE(text.find("# TYPE test_ms histogram\n"), std::string::npos);
  // Buckets are cumulative in the exposition even though storage is not.
  EXPECT_NE(text.find("test_ms_bucket{stage=\"x\",le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_ms_bucket{stage=\"x\",le=\"2\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_ms_bucket{stage=\"x\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("test_ms_sum{stage=\"x\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("test_ms_count{stage=\"x\"} 3\n"), std::string::npos);
}

TEST(MetricsRegistry, MetricValueReadsBackExactlyWhatWasExposed) {
  obs::MetricsRegistry reg;
  reg.counter("test_requests_total", "h", {{"result", "ok"}}).add(3);
  reg.counter("test_requests", "h").add(11);  // a prefix of the name above
  reg.gauge("test_rmse", "h").set(0.1 + 0.2);  // needs all 17 digits
  reg.gauge("test_quantile_ms", "h", {{"stage", "e2e"}, {"q", "0.99"}})
      .set(12.75);
  reg.histogram("test_ms", "h", {1.0}, {{"stage", "x"}}).observe(0.5);
  const std::string text = reg.expose();

  EXPECT_EQ(obs::metric_value(text, "test_requests_total{result=\"ok\"}"),
            3.0);
  EXPECT_EQ(obs::metric_value(text, "test_requests"), 11.0);
  EXPECT_EQ(obs::metric_value(text, "test_rmse"), 0.1 + 0.2);  // bit-exact
  EXPECT_EQ(obs::metric_value(
                text, "test_quantile_ms{stage=\"e2e\",q=\"0.99\"}"),
            12.75);
  EXPECT_EQ(obs::metric_value(text, "test_ms_count{stage=\"x\"}"), 1.0);

  // Absent series, a name that is a strict prefix of one, label sets in
  // another order, and a bare family name whose only series is labeled
  // never match; an unparseable value is absent too.
  EXPECT_EQ(obs::metric_value(text, "test_missing"), std::nullopt);
  EXPECT_EQ(obs::metric_value(text, "test_request"), std::nullopt);
  EXPECT_EQ(obs::metric_value(
                text, "test_quantile_ms{q=\"0.99\",stage=\"e2e\"}"),
            std::nullopt);
  EXPECT_EQ(obs::metric_value(text, "test_requests_total"), std::nullopt);
  EXPECT_EQ(obs::metric_value("test_bad notanumber\n", "test_bad"),
            std::nullopt);
}

TEST(MetricsRegistry, HistogramMergeBins) {
  obs::MetricsRegistry reg;
  obs::Histogram& h = reg.histogram("test_ms", "Latency", {1.0, 2.0});
  const std::uint64_t bins[3] = {4, 0, 2};
  h.merge_bins(bins, 3, 12.5, 6);
  h.observe(1.5);  // live observations stack on top of the merged bins

  EXPECT_EQ(h.bucket(0), 4u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.count(), 7u);
  EXPECT_DOUBLE_EQ(h.sum(), 14.0);
}

// ----------------------------------------------------- latency tracker -----

TEST(LatencyTracker, HistogramBucketsAndSum) {
  serve::LatencyTracker t(/*window=*/16);
  t.record(0.01);    // <= 0.05  -> bucket 0
  t.record(0.05);    // == bound -> still bucket 0 (le semantics)
  t.record(0.7);     // <= 1.0   -> bucket 4
  t.record(2000.0);  // > 1000   -> overflow bucket

  const auto s = t.summary();
  EXPECT_EQ(s.total_recorded, 4u);
  EXPECT_EQ(s.samples, 4u);
  EXPECT_EQ(s.bucket_counts[0], 2u);
  EXPECT_EQ(s.bucket_counts[4], 1u);
  EXPECT_EQ(s.bucket_counts[serve::kLatencyBuckets - 1], 1u);
  std::uint64_t total = 0;
  for (const auto c : s.bucket_counts) total += c;
  EXPECT_EQ(total, 4u);
  EXPECT_NEAR(s.sum_ms, 2000.76, 1e-3);
  EXPECT_DOUBLE_EQ(s.max_ms, 2000.0);
}

TEST(LatencyTracker, WindowWrapsButLifetimeHistogramKeepsEverything) {
  serve::LatencyTracker t(/*window=*/4);
  for (int i = 0; i < 10; ++i) t.record(static_cast<double>(i));
  const auto s = t.summary();
  EXPECT_EQ(s.samples, 4u);           // retained window
  EXPECT_EQ(s.total_recorded, 10u);   // lifetime
  std::uint64_t total = 0;
  for (const auto c : s.bucket_counts) total += c;
  EXPECT_EQ(total, 10u);  // histogram never forgets
  EXPECT_NEAR(s.sum_ms, 45.0, 1e-6);
}

TEST(LatencyTracker, ConcurrentRecordersNeverLoseSamples) {
  serve::LatencyTracker t(/*window=*/1 << 10);
  constexpr int kThreads = 4, kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&t] {
      for (int i = 0; i < kPerThread; ++i) t.record(1.0);
    });
  }
  // A reader hammers summary() while the writers record: it must never block
  // them and never observe torn totals larger than what was recorded.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const auto s = t.summary();
      EXPECT_LE(s.samples, s.total_recorded);
    }
  });
  for (auto& th : threads) th.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  const auto s = t.summary();
  EXPECT_EQ(s.total_recorded,
            static_cast<std::uint64_t>(kThreads * kPerThread));
  std::uint64_t total = 0;
  for (const auto c : s.bucket_counts) total += c;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_DOUBLE_EQ(s.p99_ms, 1.0);
}

// ------------------------------------------------------------- tracing -----

TEST(TraceCollector, DisabledCollectorRecordsNothing) {
  obs::TraceCollector trace;
  EXPECT_FALSE(trace.enabled());
  EXPECT_FALSE(trace.sample());
  trace.record_span("never", 0.0, 1.0);
  trace.record_instant("never");
  {
    obs::TraceSpan span(trace, "never.either");
    span.arg("k", 1);
  }
  EXPECT_EQ(trace.events_recorded(), 0u);
  const std::string json = trace.export_chrome_json();
  EXPECT_EQ(json.find("never"), std::string::npos);
}

TEST(TraceCollector, SpansAndInstantsExportAsChromeJson) {
  obs::TraceCollector trace;
  trace.set_thread_name("test.main");  // registering pre-enable must stick
  trace.enable();
  EXPECT_TRUE(trace.enabled());

  trace.record_span("unit.span", 10.0, 250.0, {"user", 42}, {"k", 6});
  trace.record_instant("unit.instant", {"generation", 3});
  {
    obs::TraceSpan span(trace, "unit.raii");
    span.arg("batch", 8);
  }
  trace.disable();
  EXPECT_EQ(trace.events_recorded(), 3u);
  EXPECT_EQ(trace.events_dropped(), 0u);

  const std::string json = trace.export_chrome_json();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"name\":\"unit.span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":240.000"), std::string::npos);
  EXPECT_NE(json.find("\"user\":42"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unit.instant\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"unit.raii\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\":8"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("test.main"), std::string::npos);
}

TEST(TraceCollector, SamplingTracesOneInEveryN) {
  obs::TraceCollector trace;
  obs::TraceCollector::Options opt;
  opt.sample_every = 4;
  trace.enable(opt);
  int sampled = 0;
  for (int i = 0; i < 40; ++i) {
    if (trace.sample()) ++sampled;
  }
  EXPECT_EQ(sampled, 10);

  // sample_every = 1 (the default) traces everything.
  obs::TraceCollector all;
  all.enable();
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(all.sample());
}

TEST(TraceCollector, RingWrapDropsOldestAndCountsThem) {
  obs::TraceCollector trace;
  obs::TraceCollector::Options opt;
  opt.capacity = 8;
  trace.enable(opt);
  for (int i = 0; i < 20; ++i) {
    trace.record_instant(i < 12 ? "old.instant" : "new.instant");
  }
  EXPECT_EQ(trace.events_recorded(), 20u);
  EXPECT_EQ(trace.events_dropped(), 12u);

  const std::string json = trace.export_chrome_json();
  // Only the newest `capacity` events survive; all 8 retained slots hold the
  // last 8 records.
  EXPECT_EQ(json.find("\"name\":\"old.instant\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"new.instant\""), std::string::npos);
}

TEST(TraceCollector, ClearForgetsRetainedEvents) {
  obs::TraceCollector trace;
  trace.enable();
  trace.record_instant("before.clear");
  trace.clear();
  EXPECT_EQ(trace.events_recorded(), 0u);
  EXPECT_EQ(trace.export_chrome_json().find("before.clear"),
            std::string::npos);
  trace.record_instant("after.clear");
  EXPECT_NE(trace.export_chrome_json().find("after.clear"),
            std::string::npos);
}

TEST(TraceCollector, ConcurrentWritersAndExporterStayConsistent) {
  obs::TraceCollector trace;
  obs::TraceCollector::Options opt;
  opt.capacity = 1 << 10;  // small enough to wrap many times under load
  trace.enable(opt);

  constexpr int kThreads = 4, kPerThread = 4000;
  std::atomic<bool> stop{false};
  // The exporter races the writers the whole time: every export must stay
  // structurally sound (balanced event list, no torn names) even while the
  // ring wraps underneath it.
  std::thread exporter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string json = trace.export_chrome_json();
      ASSERT_EQ(json.find("{\"traceEvents\":["), 0u);
      ASSERT_EQ(json.rfind("]}"), json.size() - 2);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kThreads; ++w) {
    writers.emplace_back([&trace, w] {
      trace.set_thread_name("test.writer");
      for (int i = 0; i < kPerThread; ++i) {
        const double t = static_cast<double>(i);
        trace.record_span("load.span", t, t + 1.0, {"writer", std::uint64_t(w)},
                          {"i", std::uint64_t(i)});
      }
    });
  }
  for (auto& th : writers) th.join();
  stop.store(true, std::memory_order_release);
  exporter.join();

  EXPECT_EQ(trace.events_recorded(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(trace.events_dropped(),
            static_cast<std::uint64_t>(kThreads * kPerThread) - opt.capacity);

  // Quiescent export retains exactly `capacity` intact events.
  const std::string json = trace.export_chrome_json();
  std::size_t spans = 0;
  for (std::size_t pos = json.find("\"name\":\"load.span\"");
       pos != std::string::npos;
       pos = json.find("\"name\":\"load.span\"", pos + 1)) {
    ++spans;
  }
  EXPECT_EQ(spans, opt.capacity);
}

}  // namespace
}  // namespace cumf
