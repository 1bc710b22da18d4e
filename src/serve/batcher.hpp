#pragma once

// Request batcher: coalesces single-user queries into micro-batches.
//
// One-user-at-a-time serving re-reads every Θ shard per query; the engine's
// blocked scorer amortizes that sweep across a block of users — the same
// lever MO-ALS pulls by batching row solves. The batcher buys that
// amortization for online traffic: submit() parks each query with a promise,
// and a flusher thread hands the pending set to TopKEngine::recommend()
// whenever `max_batch` queries accumulate or the oldest has waited
// `max_delay`, whichever comes first.
//
// Hot users short-circuit: submit() consults the LRU ScoreCache and fulfills
// hits immediately without waking the flusher. Duplicate users inside one
// micro-batch are scored once.
//
// Every query is latency-accounted end to end (submit() → future
// fulfillment, cache hits included) and, for batched queries, from submit()
// to micro-batch take (queueing delay) — ServeStats::e2e / queue_delay. The
// TCP front-end (net/server.hpp) widens the end-to-end view to accept→reply.
//
// When the engine serves a LiveFactorStore, the batcher rides hot swaps
// without dropping queries: cache entries are tagged with the generation
// that scored them (stale ones evict lazily, no global clear), a post-swap
// submit can never be answered from superseded factors, and an engine
// failure inside a flush (e.g. a swap shrank the model under an admitted
// user id) fails that batch's futures instead of tearing down the flusher
// thread.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/serve_stats.hpp"
#include "serve/topk.hpp"

namespace cumf::obs {
class SloMonitor;
}

namespace cumf::serve {

struct BatcherOptions {
  /// Recommendations returned per query.
  int k = 10;
  /// Flush as soon as this many queries are pending.
  std::size_t max_batch = 32;
  /// Flush when the oldest pending query has waited this long.
  std::chrono::microseconds max_delay{2000};
  /// LRU hot-user cache capacity; 0 disables caching.
  std::size_t cache_capacity = 0;
};

/// One answered query: the ranked list plus the model generation whose
/// factors produced it (generations count from 1; a cache hit carries the
/// generation its entry was scored under). The generation is what lets a
/// network front-end tag responses so clients can tell a hot swap happened.
struct BatchedAnswer {
  std::vector<Recommendation> items;
  std::uint64_t generation = 0;
};

class RequestBatcher {
 public:
  /// The engine (and everything it references) must outlive the batcher.
  explicit RequestBatcher(const TopKEngine& engine, BatcherOptions opt = {});

  /// Drains every pending query, then stops the flusher thread.
  ~RequestBatcher();

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  /// Enqueue one user query; the future resolves with their top-k list and
  /// the generation that answered it.
  std::future<BatchedAnswer> submit(idx_t user);

  /// Blocking convenience wrapper around submit().
  std::vector<Recommendation> query(idx_t user) {
    return submit(user).get().items;
  }

  [[nodiscard]] const BatcherOptions& options() const { return opt_; }

  /// Force an immediate drain of *everything* pending (benches, shutdown):
  /// the flusher keeps taking micro-batches (still at most max_batch each, so
  /// the engine's batch shape is preserved) until the pending queue is empty,
  /// never waiting out max_delay in between. Queries submitted while the
  /// drain runs ride along. Returns without waiting; see drain().
  void flush();

  /// flush(), then block until the pending queue is empty and no micro-batch
  /// is in flight — every future submitted before the call is resolved when
  /// this returns. Used by bench/server shutdown paths.
  void drain();

  /// Merged snapshot of batcher + cache + engine counters. Scored/pruned are
  /// baselined to this batcher's construction; the latency percentiles are
  /// the engine's recent-window summaries, so when the engine also serves
  /// traffic outside this batcher those samples are included too.
  [[nodiscard]] ServeStats stats() const;

  /// Attaches an SLO monitor (obs/slo.hpp): every fulfilled query feeds the
  /// availability and latency objectives, traced queries past the latency
  /// threshold capture slow-query exemplars, and stats() carries the burn
  /// snapshot (ServeStats::slo). The monitor must outlive the batcher (or be
  /// detached with nullptr first).
  void set_slo(obs::SloMonitor* slo) {
    slo_.store(slo, std::memory_order_release);
  }
  [[nodiscard]] obs::SloMonitor* slo() const {
    return slo_.load(std::memory_order_acquire);
  }

 private:
  struct Pending {
    idx_t user;
    std::promise<BatchedAnswer> promise;
    std::chrono::steady_clock::time_point enqueued;
    /// Sampled for request tracing at submit() time; a traced query emits
    /// batch.queue_wait and query.e2e spans along its whole path.
    bool traced = false;
  };

  void flusher_loop();
  void run_batch(std::vector<Pending> batch,
                 std::chrono::steady_clock::time_point taken);
  /// Emits the query.e2e span for one fulfilled query (no-op unless the
  /// query was sampled at submit time).
  void trace_e2e(const Pending& p, std::uint64_t generation,
                 bool failed) const;
  /// Feeds one fulfilled query to the attached SLO monitor (no-op without
  /// one): availability by `ok`, the latency objective for ok replies, and —
  /// for traced queries past the threshold — a slow-query exemplar whose
  /// queue/engine/finish stages sum to the e2e.
  void slo_observe(idx_t user, bool traced, double e2e_ms, bool ok,
                   double queue_ms, double engine_ms) const;

  const TopKEngine& engine_;
  BatcherOptions opt_;
  ScoreCache cache_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable drained_cv_;  // signaled when a drain may be done
  std::deque<Pending> pending_;  // FIFO; flushes pop from the front
  bool stop_ = false;
  bool flush_now_ = false;
  bool batch_in_flight_ = false;  // flusher is inside run_batch()
  std::uint64_t queries_ = 0;
  std::uint64_t batches_ = 0;
  // Per-query latency accounting (ServeStats::e2e / queue_delay). Every
  // fulfilled future records an end-to-end sample — cache hits and rejected
  // ids included — so the percentiles cover the same population `queries_`
  // counts; queue delay is recorded per query at micro-batch take time.
  LatencyTracker e2e_;
  LatencyTracker queue_delay_;
  // Engine counters at construction; stats() reports this batcher's share.
  std::uint64_t base_scored_ = 0;
  std::uint64_t base_pruned_ = 0;

  /// Optional SLO monitor (set_slo); loaded per fulfillment with acquire.
  std::atomic<obs::SloMonitor*> slo_{nullptr};

  std::thread flusher_;
};

}  // namespace cumf::serve
