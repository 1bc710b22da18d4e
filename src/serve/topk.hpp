#pragma once

// Batched top-k recommendation engine over a sharded FactorStore.
//
// recommend(users, k) fans one scoring task per shard × user-block out over
// the shared thread pool. Each task sweeps its shard's Θ rows item-major and
// scores every user in the block against the row while it is hot — the same
// amortization MO-ALS gets from batching row solves — maintaining a bounded
// min-heap of the k best per user. Per-shard heaps are then merged per user.
//
// The engine always serves a LiveFactorStore (live_store.hpp): every
// recommend() batch pins the current generation once up front, so the whole
// batch is answered from one immutable snapshot even while refreshes swap new
// checkpoints in underneath. recommend_batch() additionally reports which
// generation answered, which is what lets the RequestBatcher tag its score
// cache and invalidate stale entries incrementally after a hot swap. An
// engine built over a plain FactorStore wraps it, uncopied, in an engine-owned
// LiveFactorStore that nobody can refresh: it serves generation 1 for life.
//
// The sweep itself is executed by a pluggable ScoringBackend
// (serve/scoring_backend.hpp): the default CpuScoringBackend runs it on host
// threads; MultiDeviceScoringBackend runs the identical arithmetic but
// accounts every sweep as a kernel launch on a simulated device group (one
// device for a single GPU), putting serving on the modeled-time axis.
// Backends are required to return bit-identical top-k lists, so the choice
// moves cost, never answers.
//
// Two candidate filters run inside the sweep:
//  - norm pruning: shards store items in descending-‖θ_v‖ order, so once
//    ‖x_u‖·‖θ_v‖ (padded by a float-rounding guard) falls below user u's
//    current k-th best score, the rest of the shard is skipped for u;
//  - exclude-rated: with a training CSR attached, items the user already
//    rated never enter the heap.
//
// Results are deterministic: ordering is by (score desc, item id asc), and
// the pruning bound is strict, so output is identical to a brute-force scan.

#include <atomic>
#include <memory>
#include <span>
#include <vector>

#include "serve/factor_store.hpp"
#include "serve/serve_stats.hpp"
#include "sparse/csr.hpp"

namespace cumf::serve {

class ScoringBackend;  // serve/scoring_backend.hpp
class CpuScoringBackend;
class LiveFactorStore;  // serve/live_store.hpp

struct Recommendation {
  idx_t item = 0;
  double score = 0.0;

  friend bool operator==(const Recommendation&,
                         const Recommendation&) = default;
};

/// Ranking order: higher score first, ties broken by ascending item id.
[[nodiscard]] inline bool ranks_before(const Recommendation& a,
                                       const Recommendation& b) {
  return a.score > b.score || (a.score == b.score && a.item < b.item);
}

struct TopKOptions {
  /// Users scored together per task; the throughput lever (Θ rows are read
  /// once per block instead of once per user).
  int user_block = 32;
  /// Training ratings (m×n CSR). When set, items a user already rated are
  /// excluded from their recommendations.
  const sparse::CsrMatrix* exclude_rated = nullptr;
  /// Cauchy–Schwarz norm pruning (on by default; off for A/B in benches).
  bool prune = true;
  /// Scoring backend; nullptr uses an engine-owned CpuScoringBackend. The
  /// backend must outlive the engine; generations attach to it via
  /// begin_batch().
  ScoringBackend* backend = nullptr;
};

/// One recommend() batch plus the generation that answered it (1 for an
/// engine over a fixed FactorStore).
struct RecommendBatch {
  std::vector<std::vector<Recommendation>> lists;
  std::uint64_t generation = 0;
};

class TopKEngine {
 public:
  /// Serves a fixed store through an engine-owned LiveFactorStore that holds
  /// it without copying. The store (and the exclude CSR / backend, when set)
  /// must outlive the engine.
  explicit TopKEngine(const FactorStore& store, TopKOptions opt = {});
  /// Every batch pins `live`'s current generation; refreshes under a running
  /// engine are safe. `live` must outlive the engine.
  explicit TopKEngine(const LiveFactorStore& live, TopKOptions opt = {});
  ~TopKEngine();

  /// The live store this engine serves (engine-owned for a fixed store).
  [[nodiscard]] const LiveFactorStore& live_store() const { return *live_; }
  /// User-id bound of the snapshot serving right now (takes a pin).
  [[nodiscard]] idx_t num_users() const;
  [[nodiscard]] const TopKOptions& options() const { return opt_; }
  [[nodiscard]] ScoringBackend& backend() const { return *backend_; }

  /// Top-k items for every user in `users`, ranked by ranks_before, plus the
  /// generation that was pinned for the batch. Asking for more items than
  /// exist (or than remain after exclusion) returns a shorter list.
  [[nodiscard]] RecommendBatch recommend_batch(std::span<const idx_t> users,
                                               int k) const;

  /// recommend_batch without the generation tag.
  [[nodiscard]] std::vector<std::vector<Recommendation>> recommend(
      std::span<const idx_t> users, int k) const {
    return recommend_batch(users, k).lists;
  }

  /// Single-user convenience wrapper.
  [[nodiscard]] std::vector<Recommendation> recommend_one(idx_t user,
                                                          int k) const;

  /// Cumulative scored/pruned candidate counts since construction.
  [[nodiscard]] std::uint64_t items_scored() const {
    return items_scored_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t items_pruned() const {
    return items_pruned_.load(std::memory_order_relaxed);
  }

  /// Wall-clock latency per recommend() batch.
  [[nodiscard]] LatencySummary batch_wall_summary() const {
    return batch_wall_.summary();
  }
  /// Backend modeled time per batch (all-zero for wall-clock-only backends).
  [[nodiscard]] LatencySummary batch_modeled_summary() const {
    return batch_modeled_.summary();
  }
  /// Modeled interconnect slice of batch time — the cross-device candidate
  /// gather. All-zero except for multi-device backends.
  [[nodiscard]] LatencySummary batch_interconnect_summary() const {
    return batch_interconnect_.summary();
  }

 private:
  TopKEngine(std::unique_ptr<LiveFactorStore> owned, TopKOptions opt);

  std::unique_ptr<LiveFactorStore> owned_live_;  // fixed-store engines only
  const LiveFactorStore* live_;
  TopKOptions opt_;
  std::unique_ptr<CpuScoringBackend> owned_backend_;  // when opt_.backend null
  ScoringBackend* backend_;
  mutable std::atomic<std::uint64_t> items_scored_{0};
  mutable std::atomic<std::uint64_t> items_pruned_{0};
  mutable LatencyTracker batch_wall_;
  mutable LatencyTracker batch_modeled_;
  mutable LatencyTracker batch_interconnect_;
};

}  // namespace cumf::serve
