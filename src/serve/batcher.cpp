#include "serve/batcher.hpp"

#include <algorithm>
#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/slo.hpp"
#include "obs/trace.hpp"
#include "serve/live_store.hpp"
#include "serve/scoring_backend.hpp"

namespace cumf::serve {

RequestBatcher::RequestBatcher(const TopKEngine& engine, BatcherOptions opt)
    : engine_(engine), opt_(opt), cache_(opt.cache_capacity) {
  if (opt_.k < 1) opt_.k = 1;
  if (opt_.max_batch < 1) opt_.max_batch = 1;
  base_scored_ = engine_.items_scored();
  base_pruned_ = engine_.items_pruned();
  flusher_ = std::thread([this] { flusher_loop(); });
}

RequestBatcher::~RequestBatcher() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  flusher_.join();
}

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

void RequestBatcher::trace_e2e(const Pending& p, std::uint64_t generation,
                               bool failed) const {
  if (!p.traced) return;
  auto& trace = obs::TraceCollector::global();
  trace.record_span("query.e2e", trace.to_us(p.enqueued), trace.now_us(),
                    {"user", static_cast<std::uint64_t>(p.user)},
                    {"generation", generation}, {"failed", failed ? 1u : 0u});
}

void RequestBatcher::slo_observe(idx_t user, bool traced, double e2e_ms,
                                 bool ok, double queue_ms,
                                 double engine_ms) const {
  auto* slo = slo_.load(std::memory_order_acquire);
  if (slo == nullptr) return;
  slo->observe(e2e_ms, ok);
  if (ok && traced && e2e_ms > slo->latency_threshold_ms()) {
    slo->capture_exemplar(static_cast<std::uint64_t>(user), e2e_ms, queue_ms,
                          engine_ms);
  }
}

std::future<BatchedAnswer> RequestBatcher::submit(idx_t user) {
  const auto accepted = std::chrono::steady_clock::now();
  // One sampling decision per query covers its whole traced path: a sampled
  // query emits batch.queue_wait at take time and query.e2e at fulfillment.
  auto& trace = obs::TraceCollector::global();
  const bool traced = trace.sample();
  std::promise<BatchedAnswer> promise;
  auto fut = promise.get_future();

  // Bad ids fail their own future without poisoning the micro-batch they
  // would have ridden in. The bound is the generation serving *now* (one pin
  // per submit); a swap may still shrink the model before the batch runs,
  // which run_batch turns into per-user failed futures rather than a crash.
  const idx_t bound = engine_.num_users();
  if (user < 0 || user >= bound) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++queries_;
    }
    // Samples are recorded *before* the promise is fulfilled, here and in
    // run_batch: a caller that wakes on the future and reads stats() must
    // find its own query already accounted.
    const double reject_ms = ms_since(accepted);
    e2e_.record(reject_ms);
    slo_observe(user, traced, reject_ms, /*ok=*/false, 0.0, 0.0);
    if (traced) {
      trace.record_span("query.e2e", trace.to_us(accepted), trace.now_us(),
                        {"user", static_cast<std::uint64_t>(user)},
                        {"failed", 1});
    }
    promise.set_exception(std::make_exception_ptr(std::out_of_range(
        "RequestBatcher: user id " + std::to_string(user) + " outside [0, " +
        std::to_string(bound) + ")")));
    return fut;
  }

  if (opt_.cache_capacity > 0) {
    // Keep the cache's generation in step with the live store so a query
    // arriving after a swap can never be answered from superseded factors —
    // the stale entry is evicted by the get() below instead.
    cache_.set_generation(engine_.live_store().generation());
    std::vector<Recommendation> cached;
    std::uint64_t cached_gen = 0;
    if (cache_.get(user, opt_.k, &cached, &cached_gen)) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++queries_;
      }
      // Hits contribute their (near-zero) end-to-end sample: the reported
      // percentiles cover every answered query, not just miss traffic —
      // otherwise `queries` and the latency distribution describe different
      // populations, and the cache's main effect is invisible.
      const double hit_ms = ms_since(accepted);
      e2e_.record(hit_ms);
      slo_observe(user, traced, hit_ms, /*ok=*/true, 0.0, 0.0);
      if (traced) {
        trace.record_span("query.e2e", trace.to_us(accepted), trace.now_us(),
                          {"user", static_cast<std::uint64_t>(user)},
                          {"generation", cached_gen}, {"cache_hit", 1});
      }
      promise.set_value(BatchedAnswer{std::move(cached), cached_gen});
      return fut;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++queries_;
    pending_.push_back(Pending{user, std::move(promise), accepted, traced});
  }
  cv_.notify_one();
  return fut;
}

void RequestBatcher::flush() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    flush_now_ = true;
  }
  cv_.notify_one();
}

void RequestBatcher::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!pending_.empty()) flush_now_ = true;
  cv_.notify_one();
  drained_cv_.wait(lock,
                   [this] { return pending_.empty() && !batch_in_flight_; });
}

void RequestBatcher::flusher_loop() {
  obs::TraceCollector::global().set_thread_name("batch.flusher");
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (pending_.empty()) {
      flush_now_ = false;  // any drain in progress is complete
      drained_cv_.notify_all();
      if (stop_) return;
      cv_.wait(lock,
               [this] { return stop_ || flush_now_ || !pending_.empty(); });
      // Only a flush that found nothing pending is vacuous; one that raced
      // with a submit must survive into the deadline wait below.
      if (pending_.empty()) flush_now_ = false;
      continue;
    }

    // Wait for a full micro-batch, but never past the oldest query's
    // deadline — tail latency is bounded by max_delay even at low traffic.
    const auto deadline = pending_.front().enqueued + opt_.max_delay;
    cv_.wait_until(lock, deadline, [this] {
      return stop_ || flush_now_ || pending_.size() >= opt_.max_batch;
    });

    const std::size_t take = std::min(pending_.size(), opt_.max_batch);
    // An explicit flush stays armed until the whole pending set has drained:
    // clearing it after one take stranded the sub-max_batch remainder of a
    // large pending set to wait out max_delay. Micro-batches keep their
    // max_batch shape; they just run back to back until the queue is empty.
    if (take == pending_.size()) flush_now_ = false;
    std::vector<Pending> batch;
    batch.reserve(take);
    std::move(pending_.begin(),
              pending_.begin() + static_cast<std::ptrdiff_t>(take),
              std::back_inserter(batch));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(take));
    ++batches_;
    batch_in_flight_ = true;

    lock.unlock();
    // Queueing delay ends when the flusher takes the query into a batch;
    // what remains of its end-to-end time is service (run_batch below).
    const auto taken = std::chrono::steady_clock::now();
    auto& trace = obs::TraceCollector::global();
    for (const auto& p : batch) {
      queue_delay_.record(
          std::chrono::duration<double, std::milli>(taken - p.enqueued)
              .count());
      if (p.traced) {
        trace.record_span("batch.queue_wait", trace.to_us(p.enqueued),
                          trace.to_us(taken),
                          {"user", static_cast<std::uint64_t>(p.user)});
      }
    }
    run_batch(std::move(batch), taken);
    lock.lock();
    batch_in_flight_ = false;
    drained_cv_.notify_all();
  }
}

void RequestBatcher::run_batch(std::vector<Pending> batch,
                               std::chrono::steady_clock::time_point taken) {
  obs::TraceSpan flush_span(obs::TraceCollector::global(), "batch.flush");
  flush_span.arg("batch", batch.size());
  // Each pass either answers the batch, fails it, or strictly shrinks it
  // (a hot swap pulled users out of range mid-flight), so the loop ends.
  while (!batch.empty()) {
    // Duplicate users in one micro-batch are scored once.
    std::vector<idx_t> unique_users;
    std::vector<std::size_t> slot_of;  // batch index -> unique_users index
    unique_users.reserve(batch.size());
    slot_of.reserve(batch.size());
    for (const auto& p : batch) {
      const auto it =
          std::find(unique_users.begin(), unique_users.end(), p.user);
      if (it == unique_users.end()) {
        slot_of.push_back(unique_users.size());
        unique_users.push_back(p.user);
      } else {
        slot_of.push_back(
            static_cast<std::size_t>(it - unique_users.begin()));
      }
    }

    // An engine failure must fail futures, not unwind through the flusher
    // thread and terminate the server.
    RecommendBatch scored;
    const auto engine_t0 = std::chrono::steady_clock::now();
    try {
      scored = engine_.recommend_batch(unique_users, opt_.k);
    } catch (const std::out_of_range&) {
      // A swap shrank the model under queries admitted against the old
      // generation: fail only the now-out-of-range futures and rescore the
      // rest — a valid query never pays for the id that happened to share
      // its micro-batch.
      const idx_t bound = engine_.num_users();
      std::vector<Pending> keep;
      keep.reserve(batch.size());
      for (auto& p : batch) {
        if (p.user < 0 || p.user >= bound) {
          const double e2e_ms = ms_since(p.enqueued);
          e2e_.record(e2e_ms);
          slo_observe(p.user, p.traced, e2e_ms, /*ok=*/false, 0.0, 0.0);
          trace_e2e(p, 0, /*failed=*/true);
          p.promise.set_exception(std::make_exception_ptr(std::out_of_range(
              "RequestBatcher: user id " + std::to_string(p.user) +
              " left range after a factor refresh (now [0, " +
              std::to_string(bound) + "))")));
        } else {
          keep.push_back(std::move(p));
        }
      }
      if (keep.size() == batch.size()) {
        // Nothing is out of range against the generation serving *now* —
        // the engine's complaint has some other cause; fail the batch
        // rather than retry forever.
        const auto error = std::current_exception();
        for (auto& p : keep) {
          const double e2e_ms = ms_since(p.enqueued);
          e2e_.record(e2e_ms);
          slo_observe(p.user, p.traced, e2e_ms, /*ok=*/false, 0.0, 0.0);
          trace_e2e(p, 0, /*failed=*/true);
          p.promise.set_exception(error);
        }
        return;
      }
      batch = std::move(keep);
      continue;
    } catch (...) {
      // OOM charging a new generation, and anything else non-recoverable.
      const auto error = std::current_exception();
      for (auto& p : batch) {
        const double e2e_ms = ms_since(p.enqueued);
        e2e_.record(e2e_ms);
        slo_observe(p.user, p.traced, e2e_ms, /*ok=*/false, 0.0, 0.0);
        trace_e2e(p, 0, /*failed=*/true);
        p.promise.set_exception(error);
      }
      return;
    }
    const double engine_ms = ms_since(engine_t0);
    const auto& results = scored.lists;

    if (opt_.cache_capacity > 0) {
      // Tagging puts with the answering generation is what retires stale
      // entries after a hot swap: the first post-swap put advances the cache
      // generation and older entries evict lazily as they are touched.
      for (std::size_t i = 0; i < unique_users.size(); ++i) {
        cache_.put(unique_users[i], opt_.k, results[i], scored.generation);
      }
    }
    flush_span.arg("generation", scored.generation);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const double e2e_ms = ms_since(batch[i].enqueued);
      e2e_.record(e2e_ms);
      const double queue_ms =
          std::chrono::duration<double, std::milli>(taken -
                                                    batch[i].enqueued)
              .count();
      slo_observe(batch[i].user, batch[i].traced, e2e_ms, /*ok=*/true,
                  queue_ms, engine_ms);
      trace_e2e(batch[i], scored.generation, /*failed=*/false);
      batch[i].promise.set_value(
          BatchedAnswer{results[slot_of[i]], scored.generation});
    }
    return;
  }
}

ServeStats RequestBatcher::stats() const {
  ServeStats s;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queries = queries_;
    s.batches = batches_;
  }
  s.cache_hits = cache_.hits();
  s.cache_misses = cache_.misses();
  s.cache_stale_evictions = cache_.stale_evictions();
  s.e2e = e2e_.summary();
  s.queue_delay = queue_delay_.summary();
  s.items_scored = engine_.items_scored() - base_scored_;
  s.items_pruned = engine_.items_pruned() - base_pruned_;
  s.batch_wall = engine_.batch_wall_summary();
  s.batch_modeled = engine_.batch_modeled_summary();
  s.batch_interconnect = engine_.batch_interconnect_summary();
  s.serving_devices =
      static_cast<std::uint64_t>(engine_.backend().device_count());
  const LiveFactorStore& live = engine_.live_store();
  s.generation = live.generation();
  s.refreshes = live.refreshes();
  s.refresh_failures = live.refresh_failures();
  s.swap_pause = live.swap_pause_summary();
  if (auto* slo = slo_.load(std::memory_order_acquire)) {
    const obs::HealthSnapshot h = slo->snapshot();
    s.slo.attached = true;
    s.slo.latency_threshold_ms = h.latency_threshold_ms;
    s.slo.latency_state = static_cast<std::uint64_t>(h.latency.state);
    s.slo.availability_state =
        static_cast<std::uint64_t>(h.availability.state);
    s.slo.latency_fast_burn = h.latency.fast_burn;
    s.slo.latency_slow_burn = h.latency.slow_burn;
    s.slo.availability_fast_burn = h.availability.fast_burn;
    s.slo.availability_slow_burn = h.availability.slow_burn;
    s.slo.latency_violations = h.latency.lifetime_bad;
    s.slo.availability_errors = h.availability.lifetime_bad;
    s.slo.latency_transitions = h.latency.transitions;
    s.slo.availability_transitions = h.availability.transitions;
    s.slo.exemplars_captured = slo->exemplars_captured();
  }
  return s;
}

}  // namespace cumf::serve
