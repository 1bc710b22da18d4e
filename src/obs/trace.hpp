#pragma once

// Request tracing: a lock-free, sampled, bounded ring of trace events
// exported as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing).
//
// The serving stack is instrumented with a fixed taxonomy of spans (see
// README "Observability"): the TCP front-end emits net.frame / net.reply,
// the batcher emits query.e2e / batch.queue_wait / batch.flush, the engine
// emits engine.batch / engine.sweep, the simulated-GPU backend emits
// gpusim.kernel, the live store emits store.load spans and store.swap
// instants, and the orchestrator emits orch.* cycle phases. Because every
// event carries the emitting thread and a wall-clock offset from one shared
// epoch, a single slow query can be decomposed end to end — decode, queue
// wait, engine batch, per-shard kernels, reply — on one timeline, with hot
// swaps and retrain cycles interleaved as they actually happened.
//
// Design constraints, in order:
//  - disabled must be (nearly) free: every instrumentation site is gated on
//    one relaxed atomic load; no ring exists until the first enable().
//  - recording must never block or allocate: span names and argument keys
//    are static string literals, payloads are fixed-size, and writers take
//    a ticket with one fetch_add and claim its slot with one CAS. Per-slot
//    sequence numbers (a seqlock keyed by the 64-bit ticket) let the
//    exporter detect and skip slots that a concurrent writer is overwriting
//    — the ring wraps by overwriting the oldest events rather than ever
//    making a writer wait.
//  - everything a writer touches is a std::atomic, so concurrent record /
//    export is free of data races (TSan-clean) by construction. A reader
//    that loses the seqlock race simply drops that slot; the worst possible
//    outcome is one missing event in a diagnostic trace, never a torn one.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace cumf::obs {

/// One span/instant argument: a static key and an integer value. A
/// default-constructed arg (null key) is an unused slot.
struct TraceArg {
  const char* key = nullptr;  // must be a string literal (never freed)
  std::uint64_t value = 0;
};

class TraceCollector {
 public:
  struct Options {
    /// Ring capacity in events; rounded up to a power of two. Fixed at the
    /// first enable() — later enables reuse the existing ring.
    std::size_t capacity = 1 << 16;
    /// Trace one in every `sample_every` sampled units (sample() callers —
    /// the batcher samples per query). 1 traces everything; 0 behaves as 1.
    std::uint64_t sample_every = 1;
  };

  TraceCollector() = default;

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// Process-wide collector every instrumentation site records into.
  static TraceCollector& global();

  /// Allocates the ring (first call) and starts accepting events.
  void enable(Options opt);
  void enable() { enable(Options()); }
  void disable() { enabled_.store(false, std::memory_order_release); }

  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Per-unit sampling decision (false whenever disabled). The batcher asks
  /// once per query; a sampled query has its whole path traced.
  bool sample();

  /// Microseconds since the collector's epoch (steady clock).
  [[nodiscard]] double now_us() const;
  /// Converts a caller-held steady_clock time point to epoch-relative µs,
  /// so spans can start at timestamps taken before tracing was consulted.
  [[nodiscard]] double to_us(std::chrono::steady_clock::time_point tp) const;

  /// Records one complete span ("ph":"X"). No-op when disabled. `name` and
  /// every arg key must be string literals.
  void record_span(const char* name, double begin_us, double end_us,
                   TraceArg a = {}, TraceArg b = {}, TraceArg c = {});

  /// Records an instant event ("ph":"i") at now_us().
  void record_instant(const char* name, TraceArg a = {}, TraceArg b = {},
                      TraceArg c = {});

  /// Names the calling thread in exported traces ("thread_name" metadata).
  /// Works while disabled — threads register at startup, tracing may be
  /// enabled later.
  void set_thread_name(const char* name);

  /// Events recorded over the collector's lifetime (survivors + overwritten).
  [[nodiscard]] std::uint64_t events_recorded() const {
    return cursor_.load(std::memory_order_relaxed);
  }
  /// Events overwritten by ring wrap (recorded - retained).
  [[nodiscard]] std::uint64_t events_dropped() const;

  /// Renders the retained events as Chrome trace-event JSON. Safe to call
  /// while writers are recording; slots mid-overwrite are skipped.
  [[nodiscard]] std::string export_chrome_json() const;

  /// export_chrome_json() to a file; returns false when the file cannot be
  /// written.
  bool write_chrome_json(const std::string& path) const;

  /// Forgets all retained events (the ring stays allocated). Not meant to
  /// race with writers: concurrent records may land as skippable torn slots.
  void clear();

 private:
  struct Slot {
    /// Seqlock word: 2·ticket+1 while the owning writer fills the payload,
    /// 2·ticket+2 once stable, 0 before the first write. The ticket keys the
    /// word, so a reader that sees the same even value before and after its
    /// copy cannot have raced a later wrap of the slot.
    std::atomic<std::uint64_t> seq{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint8_t> phase{0};  // 'X' span | 'i' instant
    std::atomic<std::uint32_t> tid{0};
    std::atomic<double> ts_us{0.0};
    std::atomic<double> dur_us{0.0};
    std::atomic<const char*> k0{nullptr};
    std::atomic<const char*> k1{nullptr};
    std::atomic<const char*> k2{nullptr};
    std::atomic<std::uint64_t> v0{0};
    std::atomic<std::uint64_t> v1{0};
    std::atomic<std::uint64_t> v2{0};
  };

  void record_event(const char* name, char phase, double ts_us, double dur_us,
                    const TraceArg& a, const TraceArg& b, const TraceArg& c);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> cursor_{0};      // next ticket to claim
  std::atomic<std::uint64_t> sample_ctr_{0};  // sampling round-robin
  std::atomic<std::uint64_t> sample_every_{1};

  // Ring storage; written only under mu_ (first enable), read by writers
  // after an acquire load of enabled_ observed the publishing release store.
  std::unique_ptr<Slot[]> ring_;
  std::size_t mask_ = 0;  // capacity - 1
  std::size_t capacity_ = 0;

  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();

  // enable/clear/thread-name bookkeeping; export holds it only to copy.
  mutable std::mutex mu_;
  std::unordered_map<std::uint32_t, std::string> thread_names_;
};

/// RAII span: measures construction → finish()/destruction and records into
/// a collector when it is enabled (checked once, at construction). Cheap to
/// put on hot paths — a disarmed span is two stores.
class TraceSpan {
 public:
  TraceSpan(TraceCollector& collector, const char* name, bool sampled = true)
      : collector_(&collector),
        name_(name),
        armed_(sampled && collector.enabled()),
        begin_us_(armed_ ? collector.now_us() : 0.0) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  ~TraceSpan() { finish(); }

  /// Attaches up to three args (extra calls are ignored). Keys must be
  /// string literals.
  void arg(const char* key, std::uint64_t value) {
    if (!armed_ || args_ >= 3) return;
    a_[args_++] = TraceArg{key, value};
  }

  /// Records the span now (idempotent; the destructor calls it too).
  void finish() {
    if (!armed_) return;
    armed_ = false;
    collector_->record_span(name_, begin_us_, collector_->now_us(), a_[0],
                            a_[1], a_[2]);
  }

 private:
  TraceCollector* collector_;
  const char* name_;
  bool armed_;
  double begin_us_;
  int args_ = 0;
  TraceArg a_[3];
};

}  // namespace cumf::obs
