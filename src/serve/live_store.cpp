#include "serve/live_store.hpp"

#include <exception>
#include <utility>

#include "obs/events.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace cumf::serve {

LiveFactorStore::LiveFactorStore(FactorStore initial)
    : LiveFactorStore(
          std::make_shared<const FactorStore>(std::move(initial))) {}

LiveFactorStore::LiveFactorStore(std::shared_ptr<const FactorStore> initial)
    : shards_(initial->num_shards()),
      current_{std::move(initial), 1},
      gen_number_(1) {}

LiveFactorStore::Pinned LiveFactorStore::pin() const {
  std::lock_guard<std::mutex> lock(current_mu_);
  return current_;
}

LiveFactorStore::RefreshOutcome LiveFactorStore::refresh_from_checkpoint(
    const std::string& dir) {
  util::Stopwatch load_watch;
  try {
    // The load span covers the off-critical-path checkpoint read + shard
    // build; the swap itself appears as a store.swap instant from install().
    obs::TraceSpan load_span(obs::TraceCollector::global(), "store.load");
    FactorStore next = FactorStore::from_checkpoint(dir, shards_);
    load_span.finish();
    return install(std::move(next), load_watch.milliseconds());
  } catch (const std::exception& e) {
    refresh_failures_.fetch_add(1, std::memory_order_relaxed);
    RefreshOutcome out;
    out.swapped = false;
    out.generation = generation();
    out.load_ms = load_watch.milliseconds();
    out.error = e.what();
    obs::EventLog::global().record(
        obs::Severity::kError, obs::Component::kStore, "refresh_failed",
        {"generation", out.generation},
        {"load_ms", static_cast<std::uint64_t>(out.load_ms)});
    return out;
  }
}

LiveFactorStore::RefreshOutcome LiveFactorStore::refresh(FactorStore next) {
  return install(std::move(next), 0.0);
}

void LiveFactorStore::set_admission_hook(AdmissionHook hook) {
  std::lock_guard<std::mutex> lock(swap_mu_);
  admission_hook_ = std::move(hook);
}

LiveFactorStore::RefreshOutcome LiveFactorStore::install(FactorStore next,
                                                         double load_ms) {
  // Allocate the snapshot's control block before entering the critical
  // section so the swap pause is a number assignment plus one pointer swap.
  Pinned gen{std::make_shared<const FactorStore>(std::move(next)), 0};

  RefreshOutcome out;
  out.load_ms = load_ms;
  util::Stopwatch pause;
  {
    std::lock_guard<std::mutex> lock(swap_mu_);
    const std::uint64_t serving = current_.generation;
    gen.generation = serving + 1;
    out.generation = gen.generation;
    if (admission_hook_) {
      // Admission runs before the candidate is published anywhere: a veto
      // (thrown exception) means no reader ever pinned it and the backend
      // rolled back whatever it charged — the old generation keeps serving.
      try {
        admission_hook_(gen.store);
      } catch (const std::exception& e) {
        refresh_failures_.fetch_add(1, std::memory_order_relaxed);
        out.swapped = false;
        out.generation = serving;
        out.swap_pause_ms = pause.milliseconds();
        out.error = e.what();
        obs::EventLog::global().record(
            obs::Severity::kWarn, obs::Component::kStore, "admission_veto",
            {"candidate_generation", serving + 1},
            {"serving_generation", serving});
        return out;
      }
    }
    gen_number_.store(gen.generation, std::memory_order_release);
    {
      std::lock_guard<std::mutex> publish(current_mu_);
      std::swap(current_, gen);
    }
    // `gen` now holds the superseded generation and is dropped on return,
    // outside both locks. In-flight readers may still hold pins; the last
    // one to release drains it.
  }
  out.swap_pause_ms = pause.milliseconds();
  out.swapped = true;
  swap_pause_.record(out.swap_pause_ms);
  refreshes_.fetch_add(1, std::memory_order_relaxed);
  // Full-height marker on the trace timeline: everything after this instant
  // was answered (or re-pinned) under the new generation.
  obs::TraceCollector::global().record_instant(
      "store.swap", {"generation", out.generation},
      {"pause_us", static_cast<std::uint64_t>(out.swap_pause_ms * 1e3)});
  obs::EventLog::global().record(
      obs::Severity::kInfo, obs::Component::kStore, "generation_swap",
      {"generation", out.generation},
      {"pause_us", static_cast<std::uint64_t>(out.swap_pause_ms * 1e3)});
  return out;
}

}  // namespace cumf::serve
