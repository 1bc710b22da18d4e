#pragma once

// Pluggable scoring backends for the TopKEngine.
//
// The engine decides *what* to score — it fans one SweepTask per
// shard × user-block out over the thread pool — and a ScoringBackend decides
// *how*: where the arithmetic runs and on which time axis it is accounted.
// Every backend is required to fill per-user heaps whose merged top-k is
// bit-identical to the reference CPU sweep, so backends differ only in cost,
// never in answers. That contract is what lets a real GPU, a SIMD-autotuned
// sweep, or an approximate scorer slot in later without touching the engine.
//
// Two implementations ship today:
//  - CpuScoringBackend  — the 4-chain item-major sweep on host threads
//    (wall-clock only, no modeled-time axis);
//  - MultiDeviceScoringBackend (serve/multi_device_backend.hpp) — the same
//    arithmetic, but each sweep is accounted as a kernel launch on the
//    gpusim::Device that owns the shard (flops/bytes derived analytically
//    from shard size × factor rank), every resident generation is charged
//    against device capacity, and per-query-batch modeled seconds come off the
//    devices' roofline clocks — which puts serving on the same modeled-time
//    axis as training and lets the Table 3 cost model price serving fleets.
//    One simulated GPU is simply a group of one device.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "serve/factor_store.hpp"
#include "util/types.hpp"

namespace cumf::serve {

struct Recommendation;  // serve/topk.hpp

/// One shard × user-block sweep handed to a backend. Spans/pointers reference
/// engine-owned state and are valid only for the duration of the sweep call.
struct SweepTask {
  const FactorStore* store = nullptr;
  std::span<const idx_t> users;  // the whole query batch
  /// Per-query sorted rated-item lists (parallel to `users`); only consulted
  /// when `exclude` is set.
  const std::vector<std::vector<idx_t>>* rated = nullptr;
  int first = 0;  // user block [first, last) within `users`
  int last = 0;
  const FactorShard* shard = nullptr;
  int k = 0;
  bool prune = true;     // Cauchy–Schwarz norm pruning
  bool exclude = false;  // drop items in rated[i]
};

/// What one sweep did — the engine aggregates these into its counters and
/// backends derive kernel traffic from them.
struct SweepCounters {
  std::uint64_t scored = 0;      // user×item dots computed
  std::uint64_t pruned = 0;      // candidates skipped via the norm bound
  std::uint64_t rows_swept = 0;  // θ rows touched before every user pruned out
};

/// Modeled cost of one recommend() batch, reported by finish_batch().
/// All-zero for wall-clock-only backends.
struct BatchCost {
  /// Total modeled seconds for the batch (kernels + interconnect).
  double modeled_s = 0.0;
  /// Slice of modeled_s spent gathering per-device candidates over the
  /// interconnect; nonzero only for multi-device backends.
  double interconnect_s = 0.0;
};

/// Reference sweep: item-major, 4-chain scoring, strict-bound pruning. All
/// backends must reproduce its heaps bit-for-bit (the simulated-device
/// backend simply calls it). `out` is indexed by user-in-block and holds
/// bounded min-heaps ordered by heap_cmp == ranks_before.
SweepCounters reference_sweep(const SweepTask& task,
                              std::vector<std::vector<Recommendation>>& out);

class ScoringBackend {
 public:
  virtual ~ScoringBackend() = default;

  /// Called once per recommend() batch, before any sweep, with the
  /// generation pinned for the batch. Capacity-accounting backends use it to
  /// charge a newly-seen snapshot and release drained ones; the default is a
  /// no-op.
  virtual void begin_batch(const std::shared_ptr<const FactorStore>& store) {
    (void)store;
  }

  /// Execute one sweep, filling `out` with per-user top-k heaps. Called
  /// concurrently from pool workers; implementations must be thread-safe.
  virtual SweepCounters sweep(
      const SweepTask& task,
      std::vector<std::vector<Recommendation>>& out) = 0;

  /// Called once per recommend() batch after every sweep completed. Returns
  /// the backend's modeled batch cost (all-zero = wall-clock-only backend).
  /// Batches are assumed not to overlap (the RequestBatcher serializes them
  /// through one flusher thread).
  virtual BatchCost finish_batch() { return {}; }

  /// Devices this backend spreads the model across (1 = host or a single
  /// simulated device).
  [[nodiscard]] virtual int device_count() const { return 1; }

  /// Scatter-gather merge topology for `store`: element s is the device that
  /// owns shard s, so the engine can merge per-device partial top-k lists
  /// before the cross-device gather. Empty = every shard on one device (flat
  /// merge). Must be answered for any store the backend has admitted.
  [[nodiscard]] virtual std::vector<int> shard_devices(
      const FactorStore& store) const {
    (void)store;
    return {};
  }
};

/// Host backend: the sweep runs on pool threads and that is the whole story.
class CpuScoringBackend final : public ScoringBackend {
 public:
  SweepCounters sweep(const SweepTask& task,
                      std::vector<std::vector<Recommendation>>& out) override;
};

}  // namespace cumf::serve
