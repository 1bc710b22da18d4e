#pragma once

// Pluggable retraining tiers for the orchestrator.
//
// The orchestrator used to own exactly one trainer: full warm-started ALS
// every cycle. bench/orchestrate_refresh shows that is too heavy at high
// delta rates — cycles fall behind and the gate starts rejecting — while
// CuMF_SGD-style incremental updates reach the same gated quality at a
// fraction of the per-cycle cost. This header is the seam that makes the
// tier a per-cycle choice:
//
//   TrainerBackend            train(snapshot, warm_x, warm_theta) → TrainResult
//   ├─ FullAlsTrainer         fresh core::AlsSolver per snapshot, a handful
//   │                         of warm-started ALS iterations (the original
//   │                         Trainer, unchanged in behavior)
//   └─ IncrementalSgdTrainer  eq.-(4) SGD epochs over only the delta-touched
//                             user/item rows (Snapshot::touched_*), warm-
//                             started from the serving factors; untouched
//                             rows stay bit-identical
//
// Both backends publish their candidate (X, Θ) through the shared
// TrainerBackend::train wrapper: core::CheckpointManager's atomic
// unique-temp + rename into the candidate directory, stamped from one
// CheckpointStampSource. The stamp source is owned by the orchestrator and
// shared across every writer into its checkpoint dirs because restore()
// prefers the highest stamp — with per-trainer counters two alternating
// tiers would collide or go backwards and restore() could resurrect a stale
// candidate (the pre-refactor Trainer kept a per-instance counter that did
// exactly that).
//
// Nothing here touches the query path: training runs on the caller's thread.

#include <atomic>
#include <cstdint>
#include <string>

#include "core/solver.hpp"
#include "costmodel/machines.hpp"
#include "gpusim/device_spec.hpp"
#include "orchestrate/rating_log.hpp"

namespace cumf::orchestrate {

/// Which training tier produced a candidate. Numeric values are stable: they
/// ride the cumf_orchestrator_train_tier gauge and the orch.train trace arg.
enum class TrainTier : std::uint8_t {
  kFullAls = 0,
  kIncrementalSgd = 1,
};

[[nodiscard]] const char* tier_name(TrainTier tier);

/// Monotonic stamp source shared by every publisher writing into the
/// orchestrator's checkpoint directories (both trainer backends, the
/// submit_candidate path, and the rollback-target persist). Checkpoint
/// restore() picks the freshest valid snapshot by stamp, so publication
/// order must equal stamp order across *all* writers.
class CheckpointStampSource {
 public:
  /// Returns the next stamp; strictly increasing across all callers.
  int next() { return value_.fetch_add(1, std::memory_order_relaxed) + 1; }

 private:
  std::atomic<int> value_{0};
};

struct TrainerOptions {
  /// Solver configuration (latent rank, lambda, kernel toggles...). The
  /// iteration budget below overrides config.als.iterations.
  core::SolverConfig solver;
  /// ALS iterations per retrain cycle.
  int iterations = 4;
  /// Simulated devices to train on.
  int devices = 1;
  gpusim::DeviceSpec device_spec = gpusim::titan_x();
  /// Warm-start from the currently-serving factors when their shapes match
  /// the snapshot (they always do — RatingLog never grows the matrix).
  bool warm_start = true;
};

struct IncrementalSgdOptions {
  /// SGD epochs over the delta-touched samples per cycle.
  int epochs = 3;
  real_t lr = 0.02f;
  real_t lr_decay = 0.9f;  // per epoch, reset each cycle
  real_t lambda = 0.05f;
  /// Epoch sample order is a seeded deterministic shuffle (re-derived from
  /// seed ^ snapshot state): same snapshot + same seed ⇒ bit-identical
  /// candidate. Pinned by orchestrate_test's determinism suite.
  std::uint64_t seed = 1234;
  /// Machine model pricing the cycle via costmodel::sgd_epoch_seconds, so
  /// TrainResult::modeled_seconds stays honest across tiers.
  costmodel::CpuSpec model_cpu = costmodel::xeon_30core();
  int model_threads = 8;
};

struct TrainResult {
  TrainTier tier = TrainTier::kFullAls;
  int iterations = 0;            // ALS iterations or SGD epochs this cycle
  double wall_ms = 0.0;          // host wall time of the training run
  double modeled_seconds = 0.0;  // simulated device / machine-model clock
  double train_rmse = 0.0;       // RMSE on the snapshot it trained on
  /// Incremental tier: distinct delta-touched user/item rows rewritten and
  /// rating samples visited per epoch. Zero for the full tier (it rewrites
  /// every row).
  idx_t users_touched = 0;
  idx_t items_touched = 0;
  std::uint64_t samples_per_epoch = 0;
  linalg::FactorMatrix x;  // candidate factors, handed to the gate
  linalg::FactorMatrix theta;
};

/// The seam the orchestrator trains through. train() runs the tier-specific
/// pass, then publishes the candidate checkpoint with the next shared stamp.
class TrainerBackend {
 public:
  /// `candidate_dir` must exist; each train() overwrites the candidate
  /// checkpoint in it (atomically — see core/checkpoint.cpp). `stamps` is
  /// owned by the orchestrator and must outlive the backend.
  TrainerBackend(std::string candidate_dir, CheckpointStampSource* stamps);
  virtual ~TrainerBackend() = default;

  TrainerBackend(const TrainerBackend&) = delete;
  TrainerBackend& operator=(const TrainerBackend&) = delete;

  [[nodiscard]] virtual TrainTier tier() const = 0;

  /// Trains on `snap`, warm-started from `warm_x`/`warm_theta` when given,
  /// and publishes the candidate checkpoint under the next shared stamp so
  /// restore() always prefers the newest candidate regardless of which
  /// backend wrote it.
  TrainResult train(const RatingLog::Snapshot& snap,
                    const linalg::FactorMatrix* warm_x = nullptr,
                    const linalg::FactorMatrix* warm_theta = nullptr);

  [[nodiscard]] const std::string& candidate_dir() const {
    return candidate_dir_;
  }

 protected:
  [[nodiscard]] virtual TrainResult train_impl(
      const RatingLog::Snapshot& snap, const linalg::FactorMatrix* warm_x,
      const linalg::FactorMatrix* warm_theta) = 0;

 private:
  std::string candidate_dir_;
  CheckpointStampSource* stamps_;
};

/// The original warm-started ALS trainer: a fresh core::AlsSolver per
/// snapshot (the grid plan depends on the nonzero structure, so the solver
/// is not reusable across snapshots), a fixed iteration budget, every factor
/// row rewritten.
class FullAlsTrainer final : public TrainerBackend {
 public:
  FullAlsTrainer(TrainerOptions opt, std::string candidate_dir,
                 CheckpointStampSource* stamps);

  [[nodiscard]] TrainTier tier() const override { return TrainTier::kFullAls; }
  [[nodiscard]] const TrainerOptions& options() const { return opt_; }

 protected:
  [[nodiscard]] TrainResult train_impl(
      const RatingLog::Snapshot& snap, const linalg::FactorMatrix* warm_x,
      const linalg::FactorMatrix* warm_theta) override;

 private:
  TrainerOptions opt_;
};

/// The incremental tier: copies the warm factors and runs eq.-(4) SGD epochs
/// (baselines::sgd_update via its masked wrapper) over only the ratings
/// incident to Snapshot::touched_users / touched_items. Rows outside the
/// touched sets are never written, so an incremental candidate differs from
/// the serving model in exactly the delta-affected rows. The update loop is
/// single-threaded with a seeded shuffle — bit-identical across runs, which
/// the gate's reject-then-escalate logic and the determinism tests rely on.
/// Requires warm factors shaped like the snapshot; throws otherwise (the
/// orchestrator maps that to kTrainFailed).
class IncrementalSgdTrainer final : public TrainerBackend {
 public:
  IncrementalSgdTrainer(IncrementalSgdOptions opt, std::string candidate_dir,
                        CheckpointStampSource* stamps);

  [[nodiscard]] TrainTier tier() const override {
    return TrainTier::kIncrementalSgd;
  }
  [[nodiscard]] const IncrementalSgdOptions& options() const { return opt_; }

 protected:
  [[nodiscard]] TrainResult train_impl(
      const RatingLog::Snapshot& snap, const linalg::FactorMatrix* warm_x,
      const linalg::FactorMatrix* warm_theta) override;

 private:
  IncrementalSgdOptions opt_;
};

}  // namespace cumf::orchestrate
