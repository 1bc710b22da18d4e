#pragma once

// The retrain orchestrator: the daemon that closes the train→serve loop.
//
// The serving stack (PRs 1-4) could already hot-swap a checkpoint under live
// traffic — but a human had to train, gate, and swap it. The Orchestrator
// runs that loop continuously:
//
//   RatingLog ──snapshot──► Trainer ──candidate──► QualityGate ─┬─ pass ──►
//   promote: LiveFactorStore::refresh_from_checkpoint + baseline update
//                                                              └─ fail ──►
//   reject: old generation keeps serving, rejection logged + counted
//
// One cycle (run_cycle) is synchronous and serialized: snapshot the log,
// retrain (warm-started from the last-good factors), evaluate, and either
// promote the candidate checkpoint into the live store or reject it. The
// daemon thread (start/stop) fires cycles on a cadence or as soon as enough
// deltas pend, whichever comes first.
//
// Retraining is tiered (see orchestrate/trainer.hpp). The tier policy:
//
//   tier_mode = kFull         every cycle is a full warm-started ALS pass
//   tier_mode = kIncremental  every cycle is an incremental SGD pass over
//                             the delta-touched rows
//   tier_mode = kAuto         incremental by default; every
//                             consolidate_every-th training cycle runs full
//                             ALS instead (consolidation)
//
// Under kAuto and kIncremental, a gate rejection of an incremental
// candidate escalates to full ALS within the same cycle (same snapshot)
// rather than stalling — the rejection and the escalation are both counted,
// and the cycle's final tier is whatever produced the promoted/rejected
// model. Touched-row ids accumulate across cycles whose candidates did not
// promote, so deltas merged during a rejected cycle stay in scope for the
// next incremental pass instead of being silently dropped. Every promoted model's checkpoint is
// re-published to the last-good directory, so rollback() can always restore
// the newest model that ever passed the gate — promotions and rollbacks both
// go through the same refresh_from_checkpoint path queries already ride
// through without dropping.
//
// Externally-trained candidates enter through submit_candidate(), which runs
// the identical gate→promote path — that is also the seam the quality-gate
// tests use to push a deliberately degraded model at the gate.
//
// History and counters: every cycle appends a CycleRecord (audit trail), and
// counters() exports OrchestratorStats for ServeStats::orchestrator so the
// GetMetrics exposition reports the retrain loop next to the serving numbers.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "orchestrate/quality_gate.hpp"
#include "orchestrate/rating_log.hpp"
#include "orchestrate/trainer.hpp"
#include "serve/live_store.hpp"
#include "serve/serve_stats.hpp"

namespace cumf::orchestrate {

/// Which retraining tier run_cycle picks. See the tier-policy block in the
/// header comment.
enum class TrainTierMode : std::uint8_t {
  kFull = 0,
  kIncremental = 1,
  kAuto = 2,
};

struct OrchestratorOptions {
  TrainerOptions trainer;   // the full-ALS tier
  IncrementalSgdOptions sgd;  // the incremental tier
  GateOptions gate;
  /// Tier policy. kAuto serves incremental cycles by default with periodic
  /// full-ALS consolidation; rejection of an incremental candidate always
  /// escalates to full ALS in the same cycle (kAuto and kIncremental).
  TrainTierMode tier_mode = TrainTierMode::kAuto;
  /// kAuto: every Nth training cycle runs full ALS (N ≤ 1 → full every
  /// cycle). Counted over cycles that actually train; escalated full passes
  /// also reset the countdown.
  int consolidate_every = 8;
  /// Daemon: retrain at least this often.
  std::chrono::milliseconds cadence{2000};
  /// Daemon: retrain as soon as this many deltas pend (0 = cadence only).
  std::uint64_t delta_trigger = 0;
  /// Daemon: skip the training pass when no deltas arrived since the last
  /// cycle (the model could not change; cadence cycles record kSkipped).
  bool skip_when_idle = true;
  /// Working directory for the candidate and last-good checkpoint dirs
  /// (created under it). Must be writable.
  std::string work_dir;
};

enum class CycleOutcome {
  kPromoted,     // candidate passed the gate and is serving
  kRejected,     // gate refused it; old generation kept serving
  kSkipped,      // no new deltas, training pass elided
  kTrainFailed,  // solver/checkpoint error; nothing swapped
  kRolledBack,   // rollback() record
};

struct CycleRecord {
  std::uint64_t cycle = 0;  // 1-based sequence number
  CycleOutcome outcome = CycleOutcome::kSkipped;
  std::uint64_t generation = 0;   // serving generation after the cycle
  std::uint64_t deltas_seen = 0;  // lifetime deltas in the training snapshot
  GateReport gate;                // valid for kPromoted / kRejected
  /// Tier that produced the cycle's final candidate (after any escalation).
  TrainTier tier = TrainTier::kFullAls;
  /// True when an incremental candidate was rejected and the cycle re-ran
  /// full ALS on the same snapshot. The gate report is the final (full)
  /// verdict; train_wall_ms / train_modeled_s sum both passes.
  bool escalated = false;
  /// True when kAuto scheduled this cycle as a full-ALS consolidation.
  bool consolidation = false;
  double train_wall_ms = 0.0;
  double train_modeled_s = 0.0;
  double swap_pause_ms = 0.0;  // kPromoted / kRolledBack
  std::string error;           // kTrainFailed detail
};

class Orchestrator {
 public:
  /// `log` and `live` must outlive the orchestrator; `holdout` is the
  /// held-out rating slice the gate scores every candidate on. The gate
  /// baseline — and the rollback target — are initialized from the factors
  /// serving in `live` at construction, so the first candidate is judged
  /// against the seed model and rollback() works before any promotion.
  /// `exclude` (optional, must outlive the orchestrator) is the training
  /// CSR handed to the ranking metrics.
  Orchestrator(RatingLog& log, serve::LiveFactorStore& live,
               sparse::CooMatrix holdout, OrchestratorOptions opt,
               const sparse::CsrMatrix* exclude = nullptr);
  ~Orchestrator();

  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  /// Runs one full cycle synchronously: snapshot → train → gate →
  /// promote/reject. Serialized against the daemon and other callers.
  /// `force` trains even when no deltas pend.
  CycleRecord run_cycle(bool force = false);

  /// Gates and (on pass) promotes an externally-produced candidate through
  /// the same path run_cycle uses, without a training pass.
  CycleRecord submit_candidate(const linalg::FactorMatrix& x,
                               const linalg::FactorMatrix& theta);

  /// Re-promotes the last-good checkpoint — the newest model that passed
  /// the gate *before* the one serving now (the seed model until a second
  /// promotion happens) — into the live store, and reverts the gate
  /// baseline to it. One level deep: rolling back twice re-promotes the
  /// same checkpoint. Returns false when the refresh failed.
  bool rollback();

  /// Starts/stops the daemon thread. start() is idempotent; stop() joins
  /// and is also run by the destructor.
  void start();
  void stop();
  [[nodiscard]] bool running() const;

  /// Promotion/rejection audit trail, oldest first.
  [[nodiscard]] std::vector<CycleRecord> history() const;

  /// Counter snapshot for ServeStats::orchestrator.
  [[nodiscard]] serve::OrchestratorStats counters() const;
  /// Convenience: counters() into an existing snapshot (the TcpServer
  /// augment_stats hook).
  void merge_into(serve::ServeStats* stats) const { stats->orchestrator = counters(); }

  [[nodiscard]] const std::string& candidate_dir() const {
    return candidate_dir_;
  }
  [[nodiscard]] const std::string& last_good_dir() const { return good_dir_; }

 private:
  /// Gate → promote/reject tail shared by run_cycle and submit_candidate.
  /// Expects cycle_mu_ held; fills `record` in place. `published` says the
  /// candidate checkpoint is already in candidate_dir_ (the trainer wrote
  /// it); submit_candidate publishes it here after the gate passes. `tier`
  /// attributes the per-tier promotion/rejection counters (external
  /// submit_candidate models count under the full tier).
  void gate_and_promote(const linalg::FactorMatrix& x,
                        const linalg::FactorMatrix& theta, bool published,
                        TrainTier tier, CycleRecord* record);
  /// Picks the tier for the next training pass; sets *consolidation when
  /// kAuto's countdown scheduled a full cycle. Expects cycle_mu_ held.
  [[nodiscard]] TrainTier choose_tier(bool* consolidation) const;
  /// Runs one training pass on the chosen backend, with the tier-tagged
  /// orch.train span and per-tier retrain counters. Expects cycle_mu_ held.
  TrainResult run_training_pass(const RatingLog::Snapshot& snap,
                                TrainTier tier);
  void append_record(CycleRecord record);
  void daemon_loop();

  RatingLog& log_;
  serve::LiveFactorStore& live_;
  OrchestratorOptions opt_;
  QualityGate gate_;
  std::string candidate_dir_;
  std::string good_dir_;
  /// Single stamp source for every checkpoint writer (both trainer backends
  /// plus the orchestrator's own candidate/rollback-target saves): restore()
  /// prefers the highest stamp, so one counter keeps publication order and
  /// stamp order aligned across tiers.
  CheckpointStampSource stamps_;
  FullAlsTrainer full_trainer_;
  IncrementalSgdTrainer sgd_trainer_;

  /// Serializes cycles (daemon vs. manual run_cycle / submit_candidate /
  /// rollback). Never held on the query path.
  std::mutex cycle_mu_;
  // Guarded by cycle_mu_. serving_* mirrors the gate-blessed model in the
  // live store (warm-start source); good_* is the rollback target persisted
  // in good_dir_ (the model superseded by the latest promotion).
  linalg::FactorMatrix serving_x_;
  linalg::FactorMatrix serving_theta_;
  double serving_rmse_ = 0.0;
  double serving_recall_ = 0.0;
  double good_rmse_ = 0.0;
  double good_recall_ = 0.0;
  std::uint64_t cycles_run_ = 0;
  /// Training cycles since the last full-ALS pass (kAuto's consolidation
  /// countdown; any full pass — scheduled, escalated, or kFull mode —
  /// resets it).
  int cycles_since_full_ = 0;
  /// Touched-row ids accumulated across cycles whose candidate did not
  /// promote (sorted, deduplicated). Folded into every incremental pass and
  /// cleared when a run_cycle candidate promotes, so rejected cycles' deltas
  /// stay in training scope.
  std::vector<idx_t> carry_users_;
  std::vector<idx_t> carry_items_;

  mutable std::mutex history_mu_;
  std::vector<CycleRecord> history_;
  serve::OrchestratorStats stats_;  // guarded by history_mu_

  std::thread daemon_;
  /// Held across all of start()/stop() (including the join), so concurrent
  /// stop()s — e.g. an explicit stop() racing the destructor — serialize
  /// and both return only once the daemon has exited.
  std::mutex lifecycle_mu_;
  mutable std::mutex daemon_mu_;
  std::condition_variable daemon_cv_;
  bool daemon_stop_ = false;
  bool daemon_running_ = false;
};

}  // namespace cumf::orchestrate
