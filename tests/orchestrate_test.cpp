// The retrain orchestrator: quality-gated continuous training → hot swap.
//
// Covers the full ISSUE-5 loop: RatingLog delta merge semantics, the quality
// gate rejecting a deliberately degraded candidate while the old generation
// keeps serving bit-identically, promotion of a later good candidate,
// rollback to the last-good checkpoint, a concurrent ingest-while-retrain
// stress run (exercised under TSan in CI like every other suite), and the
// end-to-end TCP integration: deltas over the wire → retrain → gate →
// hot swap with zero dropped queries.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/solver.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"
#include "gpusim/device_group.hpp"
#include "orchestrate/orchestrator.hpp"
#include "orchestrate/quality_gate.hpp"
#include "orchestrate/rating_log.hpp"
#include "orchestrate/trainer.hpp"
#include "serve/batcher.hpp"
#include "serve/live_store.hpp"
#include "serve/net/client.hpp"
#include "serve/net/server.hpp"
#include "serve/topk.hpp"
#include "serve_test_util.hpp"
#include "sparse/split.hpp"
#include "util/rng.hpp"

namespace cumf {
namespace {

constexpr int kF = 8;
constexpr int kTopK = 5;

/// One trained world shared by every test in this suite (training is the
/// expensive part, especially under sanitizers): a planted-structure rating
/// matrix, its train/test split, a base model (3 ALS iterations) and a
/// better model (2 more warm iterations on the same data).
struct TrainedWorld {
  data::SyntheticOptions gen;
  sparse::CooMatrix ratings;
  sparse::TrainTestSplit split;
  sparse::CsrMatrix R;
  sparse::CsrMatrix Rt;
  linalg::FactorMatrix base_x, base_theta;
  linalg::FactorMatrix better_x, better_theta;
};

const TrainedWorld& world() {
  static const TrainedWorld* w = [] {
    auto* out = new TrainedWorld();
    out->gen.m = 400;
    out->gen.n = 180;
    out->gen.nz = 10'000;
    out->gen.f_true = 6;
    out->gen.noise_std = 0.4;
    out->gen.seed = 33;
    out->ratings = data::generate_ratings(out->gen);
    util::Rng rng(5);
    out->split = sparse::split_ratings(out->ratings, 0.15, rng);
    out->R = sparse::coo_to_csr(out->split.train);
    out->Rt = sparse::csc_as_csr_of_transpose(sparse::csr_to_csc(out->R));

    const auto topo = gpusim::PcieTopology::flat(1);
    gpusim::DeviceGroup gpu(1, gpusim::titan_x(), topo);
    core::SolverConfig cfg;
    cfg.als.f = kF;
    cfg.als.lambda = 0.05f;
    core::AlsSolver solver(gpu.pointers(), topo, out->R, out->Rt, cfg);
    for (int i = 0; i < 3; ++i) solver.run_iteration();
    out->base_x = solver.x();
    out->base_theta = solver.theta();
    for (int i = 0; i < 2; ++i) solver.run_iteration();
    out->better_x = solver.x();
    out->better_theta = solver.theta();
    return out;
  }();
  return *w;
}

/// Factors with enough uniform noise stirred in to wreck the ranking while
/// keeping shapes valid — the "deliberately degraded candidate".
linalg::FactorMatrix noised(const linalg::FactorMatrix& m, std::uint64_t seed) {
  linalg::FactorMatrix out = m;
  util::Rng rng(seed);
  for (auto& v : out.data()) {
    v += static_cast<real_t>(rng.uniform(-2.0, 2.0));
  }
  return out;
}

/// RAII temp working directory for the orchestrator's checkpoint dirs.
struct TempWorkDir {
  explicit TempWorkDir(const std::string& name)
      : path(std::filesystem::path(testing::TempDir()) / name) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempWorkDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::filesystem::path path;
};

orchestrate::OrchestratorOptions small_options(const std::string& work_dir) {
  orchestrate::OrchestratorOptions opt;
  opt.trainer.solver.als.f = kF;
  opt.trainer.solver.als.lambda = 0.05f;
  opt.trainer.iterations = 2;
  // Pinned to the full-ALS tier: these suites assert the original
  // gate/promote/rollback mechanics; the tier policy has its own tests
  // below.
  opt.tier_mode = orchestrate::TrainTierMode::kFull;
  opt.gate.k = kTopK;
  opt.gate.max_eval_users = 120;
  // Generous slacks: these tests assert the gate's *mechanism*; the
  // degraded-candidate cases blow past any sane slack regardless.
  opt.gate.rmse_slack = 0.05;
  opt.gate.recall_slack = 0.2;
  opt.work_dir = work_dir;
  return opt;
}

/// A delta batch over the trained world's id range, appended to `log`.
/// Values are the planted ratings' scale so incremental candidates stay
/// gate-worthy.
void append_deltas(orchestrate::RatingLog* log, int count,
                   std::uint64_t seed) {
  const auto& w = world();
  util::Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    const auto u = static_cast<idx_t>(
        rng.next_below(static_cast<std::uint64_t>(w.gen.m)));
    const auto v = static_cast<idx_t>(
        rng.next_below(static_cast<std::uint64_t>(w.gen.n)));
    ASSERT_TRUE(log->append(u, v, rng.next_real() * 4.0f + 1.0f));
  }
}

std::vector<std::vector<serve::Recommendation>> probe(
    const serve::TopKEngine& engine, idx_t users) {
  std::vector<idx_t> ids;
  for (idx_t u = 0; u < users; u += 7) ids.push_back(u);
  return engine.recommend(ids, kTopK);
}

// ------------------------------------------------------------ RatingLog ----

TEST(RatingLog, MergesDeltasLastWriterWins) {
  sparse::CooMatrix base;
  base.rows = 4;
  base.cols = 3;
  base.push_back(0, 0, 1.0f);
  base.push_back(1, 1, 2.0f);

  orchestrate::RatingLog log(std::move(base));
  EXPECT_TRUE(log.append(0, 0, 5.0f));   // overwrite existing pair
  EXPECT_TRUE(log.append(2, 2, 3.0f));   // brand-new pair
  EXPECT_TRUE(log.append(2, 2, 4.0f));   // overwrite the delta itself
  EXPECT_FALSE(log.append(9, 0, 1.0f));  // out-of-range user
  EXPECT_FALSE(log.append(0, 3, 1.0f));  // out-of-range item
  // Non-finite values (raw f64s off the wire) never reach a snapshot.
  EXPECT_FALSE(log.append(0, 0, std::numeric_limits<real_t>::quiet_NaN()));
  EXPECT_FALSE(log.append(0, 0, std::numeric_limits<real_t>::infinity()));
  EXPECT_EQ(log.accepted(), 3u);
  EXPECT_EQ(log.rejected(), 4u);
  EXPECT_EQ(log.pending(), 3u);

  auto snap = log.snapshot();
  EXPECT_EQ(log.pending(), 0u);
  EXPECT_EQ(snap.deltas_applied, 3u);
  ASSERT_EQ(snap.coo.nnz(), 3u);  // 2 base + 1 new, overwrites in place
  EXPECT_EQ(snap.csr.rows, 4);
  EXPECT_EQ(snap.csr.cols, 3);
  const auto dense = sparse::to_dense(snap.csr);
  EXPECT_FLOAT_EQ(dense[0 * 3 + 0], 5.0f);
  EXPECT_FLOAT_EQ(dense[1 * 3 + 1], 2.0f);
  EXPECT_FLOAT_EQ(dense[2 * 3 + 2], 4.0f);

  // The transpose mirrors the merged matrix.
  EXPECT_EQ(snap.csr_t.rows, 3);
  EXPECT_EQ(snap.csr_t.cols, 4);
  const auto dense_t = sparse::to_dense(snap.csr_t);
  EXPECT_FLOAT_EQ(dense_t[0 * 4 + 0], 5.0f);

  // A snapshot with nothing pending reproduces the same matrix.
  auto again = log.snapshot();
  EXPECT_EQ(again.coo.nnz(), 3u);
  EXPECT_EQ(again.deltas_applied, 3u);
}

TEST(RatingLog, SnapshotCollectsTouchedRowsFromMergedDeltas) {
  sparse::CooMatrix base;
  base.rows = 6;
  base.cols = 5;
  base.push_back(0, 0, 1.0f);
  base.push_back(5, 4, 2.0f);

  orchestrate::RatingLog log(std::move(base));
  ASSERT_TRUE(log.append(3, 1, 4.0f));
  ASSERT_TRUE(log.append(1, 1, 2.5f));  // second user, same item
  ASSERT_TRUE(log.append(3, 2, 1.0f));  // same user again
  ASSERT_TRUE(log.append(3, 1, 3.0f));  // overwrite of the first delta

  // Sorted, deduplicated, and covering exactly the delta-touched ids — the
  // base matrix's untouched rows (0 and 5) never appear.
  auto snap = log.snapshot();
  EXPECT_EQ(snap.touched_users, (std::vector<idx_t>{1, 3}));
  EXPECT_EQ(snap.touched_items, (std::vector<idx_t>{1, 2}));

  // Touched sets are per-snapshot: nothing pending → nothing touched.
  auto again = log.snapshot();
  EXPECT_TRUE(again.touched_users.empty());
  EXPECT_TRUE(again.touched_items.empty());
}

// ---------------------------------------------------------- QualityGate ----

TEST(QualityGate, RejectsDegradedAcceptsEqualCandidate) {
  const auto& w = world();
  orchestrate::GateOptions opt;
  opt.k = kTopK;
  opt.max_eval_users = 120;
  opt.rmse_slack = 0.05;
  opt.recall_slack = 0.2;
  orchestrate::QualityGate gate(w.split.test, opt, &w.R);

  const auto base = gate.evaluate(w.base_x, w.base_theta);
  EXPECT_TRUE(base.passed);  // no baseline yet: floors only
  gate.set_baseline(base.rmse, base.recall);
  EXPECT_TRUE(gate.has_baseline());

  // The same model re-evaluated passes against its own baseline.
  const auto same = gate.evaluate(w.base_x, w.base_theta);
  EXPECT_TRUE(same.passed);
  EXPECT_DOUBLE_EQ(same.baseline_rmse, base.rmse);

  // Noised factors crater both metrics and are rejected with a reason.
  const auto bad =
      gate.evaluate(noised(w.base_x, 77), noised(w.base_theta, 78));
  EXPECT_FALSE(bad.passed);
  EXPECT_FALSE(bad.reason.empty());
  EXPECT_GT(bad.rmse, base.rmse + opt.rmse_slack);

  // The extra-trained model also passes (it is simply better).
  const auto better = gate.evaluate(w.better_x, w.better_theta);
  EXPECT_TRUE(better.passed);
  EXPECT_LE(better.rmse, base.rmse + opt.rmse_slack);
}

TEST(QualityGate, RejectsNonFiniteCandidates) {
  // A diverged solve produces NaN factors; every threshold is a `> limit`
  // comparison NaN would sail through, so the gate must reject non-finite
  // RMSE explicitly — before the ranking metrics ever see the NaN scores.
  const auto& w = world();
  orchestrate::GateOptions opt;
  opt.k = kTopK;
  orchestrate::QualityGate gate(w.split.test, opt, &w.R);
  linalg::FactorMatrix bad_x = w.base_x;
  // Poison a user that provably appears in the holdout slice, so the NaN
  // reaches the RMSE sum.
  bad_x.row(w.split.test.row[0])[0] =
      std::numeric_limits<real_t>::quiet_NaN();
  const auto report = gate.evaluate(bad_x, w.base_theta);
  EXPECT_FALSE(report.passed);
  EXPECT_NE(report.reason.find("not finite"), std::string::npos);
}

TEST(QualityGate, AbsoluteFloorsApplyWithoutBaseline) {
  const auto& w = world();
  orchestrate::GateOptions opt;
  opt.k = kTopK;
  opt.max_rmse = 1e-6;  // impossible ceiling
  orchestrate::QualityGate gate(w.split.test, opt, &w.R);
  const auto report = gate.evaluate(w.base_x, w.base_theta);
  EXPECT_FALSE(report.passed);
  EXPECT_FALSE(report.reason.empty());
}

// --------------------------------------------------------- Orchestrator ----

TEST(Orchestrator, RejectedCandidateNeverDisturbsServing) {
  const auto& w = world();
  TempWorkDir work("cumf_orch_reject");
  orchestrate::RatingLog log(w.split.train);
  serve::LiveFactorStore live(serve::FactorStore(w.base_x, w.base_theta, 2));
  serve::TopKOptions eopt;
  eopt.exclude_rated = &w.R;
  const serve::TopKEngine engine(live, eopt);

  orchestrate::Orchestrator orch(log, live, w.split.test,
                                 small_options(work.path.string()), &w.R);
  const auto before = probe(engine, w.gen.m);

  // Degraded candidate: rejected, not swapped, and serving answers stay
  // bit-identical to the pre-candidate probe.
  const auto rejected =
      orch.submit_candidate(noised(w.base_x, 91), noised(w.base_theta, 92));
  EXPECT_EQ(rejected.outcome, orchestrate::CycleOutcome::kRejected);
  EXPECT_FALSE(rejected.gate.passed);
  EXPECT_EQ(rejected.generation, 1u);
  EXPECT_EQ(live.generation(), 1u);
  EXPECT_EQ(probe(engine, w.gen.m), before);

  // A later good candidate still promotes through the same path.
  const auto promoted = orch.submit_candidate(w.better_x, w.better_theta);
  EXPECT_EQ(promoted.outcome, orchestrate::CycleOutcome::kPromoted);
  EXPECT_EQ(promoted.generation, 2u);
  EXPECT_EQ(live.generation(), 2u);
  EXPECT_GE(promoted.swap_pause_ms, 0.0);

  const auto counters = orch.counters();
  EXPECT_EQ(counters.promotions, 1u);
  EXPECT_EQ(counters.rejections, 1u);
  EXPECT_EQ(counters.retrains, 0u);  // both candidates were external
  EXPECT_DOUBLE_EQ(counters.baseline_rmse, promoted.gate.rmse);

  const auto history = orch.history();
  ASSERT_EQ(history.size(), 2u);
  EXPECT_EQ(history[0].outcome, orchestrate::CycleOutcome::kRejected);
  EXPECT_EQ(history[1].outcome, orchestrate::CycleOutcome::kPromoted);
}

TEST(Orchestrator, RunCycleTrainsGatesPromotesAndSkipsWhenIdle) {
  const auto& w = world();
  TempWorkDir work("cumf_orch_cycle");
  orchestrate::RatingLog log(w.split.train);
  serve::LiveFactorStore live(serve::FactorStore(w.base_x, w.base_theta, 2));
  const serve::TopKEngine engine(live);

  orchestrate::Orchestrator orch(log, live, w.split.test,
                                 small_options(work.path.string()), &w.R);

  // Nothing pending, not forced: the training pass is elided.
  const auto idle = orch.run_cycle();
  EXPECT_EQ(idle.outcome, orchestrate::CycleOutcome::kSkipped);
  EXPECT_EQ(orch.counters().retrains, 0u);

  // Feed the held-out ratings back as deltas — fresh signal, so the
  // warm-started retrain must clear the gate.
  for (std::size_t i = 0; i < w.split.test.val.size(); ++i) {
    ASSERT_TRUE(log.append(w.split.test.row[i], w.split.test.col[i],
                           w.split.test.val[i]));
  }
  const auto cycle = orch.run_cycle();
  EXPECT_EQ(cycle.outcome, orchestrate::CycleOutcome::kPromoted);
  EXPECT_EQ(cycle.deltas_seen, w.split.test.val.size());
  EXPECT_GT(cycle.train_wall_ms, 0.0);
  EXPECT_GT(cycle.train_modeled_s, 0.0);
  EXPECT_EQ(live.generation(), 2u);

  const auto counters = orch.counters();
  EXPECT_EQ(counters.retrains, 1u);
  EXPECT_EQ(counters.promotions, 1u);
  EXPECT_EQ(counters.deltas_ingested, w.split.test.val.size());
  EXPECT_GT(counters.last_train_wall_ms, 0.0);
}

TEST(Orchestrator, RollbackRestoresTheSupersededModel) {
  const auto& w = world();
  TempWorkDir work("cumf_orch_rollback");
  orchestrate::RatingLog log(w.split.train);
  serve::LiveFactorStore live(serve::FactorStore(w.base_x, w.base_theta, 2));
  const serve::TopKEngine engine(live);

  orchestrate::Orchestrator orch(log, live, w.split.test,
                                 small_options(work.path.string()), &w.R);
  const auto gen1_probe = probe(engine, w.gen.m);

  ASSERT_EQ(orch.submit_candidate(w.better_x, w.better_theta).outcome,
            orchestrate::CycleOutcome::kPromoted);
  const auto gen2_probe = probe(engine, w.gen.m);
  ASSERT_NE(gen2_probe, gen1_probe);  // the better model actually differs

  // Rollback re-promotes the superseded checkpoint: a *new* generation
  // serving the old factors, bit-identically.
  ASSERT_TRUE(orch.rollback());
  EXPECT_EQ(live.generation(), 3u);
  EXPECT_EQ(probe(engine, w.gen.m), gen1_probe);
  EXPECT_EQ(orch.counters().rollbacks, 1u);

  // A fresh good candidate still promotes after the rollback.
  ASSERT_EQ(orch.submit_candidate(w.better_x, w.better_theta).outcome,
            orchestrate::CycleOutcome::kPromoted);
  EXPECT_EQ(live.generation(), 4u);
  EXPECT_EQ(probe(engine, w.gen.m), gen2_probe);
}

TEST(Orchestrator, LifecycleTransitionsLandInTheEventLog) {
  const auto& w = world();
  TempWorkDir work("cumf_orch_events");
  orchestrate::RatingLog log(w.split.train);
  serve::LiveFactorStore live(serve::FactorStore(w.base_x, w.base_theta, 2));
  const serve::TopKEngine engine(live);

  orchestrate::Orchestrator orch(log, live, w.split.test,
                                 small_options(work.path.string()), &w.R);

  // Watermark the shared log: only events recorded by this test's cycles
  // are examined below.
  auto& events = obs::EventLog::global();
  const std::uint64_t mark = events.recorded();

  ASSERT_EQ(orch.submit_candidate(noised(w.base_x, 93), noised(w.base_theta,
                                                               94))
                .outcome,
            orchestrate::CycleOutcome::kRejected);
  ASSERT_EQ(orch.submit_candidate(w.better_x, w.better_theta).outcome,
            orchestrate::CycleOutcome::kPromoted);
  ASSERT_TRUE(orch.rollback());

  // Every silent transition above left a structured event, in the order it
  // happened: gate reject, then the promotion, then the rollback — with the
  // store's generation_swap interleaved for each actual swap.
  std::vector<std::string> trail;
  std::vector<std::uint64_t> swap_generations;
  for (const obs::Event& ev : events.snapshot()) {
    if (ev.ticket < mark) continue;
    if (ev.component == obs::Component::kOrch) {
      trail.push_back(ev.message);
    } else if (ev.component == obs::Component::kStore) {
      ASSERT_STREQ(ev.message, "generation_swap");
      swap_generations.push_back(ev.args[0].value);
    }
  }
  const std::vector<std::string> want = {"gate_reject", "promotion",
                                         "rollback"};
  EXPECT_EQ(trail, want);
  // Promotion swapped in generation 2; the rollback re-promoted the
  // superseded checkpoint as generation 3.
  const std::vector<std::uint64_t> want_swaps = {2, 3};
  EXPECT_EQ(swap_generations, want_swaps);
  EXPECT_EQ(live.generation(), 3u);
}

TEST(Orchestrator, ConcurrentIngestQueriesAndRetrainsStayConsistent) {
  const auto& w = world();
  TempWorkDir work("cumf_orch_stress");
  orchestrate::RatingLog log(w.split.train);
  serve::LiveFactorStore live(serve::FactorStore(w.base_x, w.base_theta, 2));
  const serve::TopKEngine engine(live);
  serve::BatcherOptions bopt;
  bopt.k = kTopK;
  bopt.max_batch = 16;
  bopt.cache_capacity = 32;
  serve::RequestBatcher batcher(engine, bopt);

  auto opt = small_options(work.path.string());
  opt.trainer.iterations = 1;  // keep the stress run fast under TSan
  orchestrate::Orchestrator orch(log, live, w.split.test, opt, &w.R);

  constexpr int kIngestThreads = 3;
  constexpr int kDeltasPerThread = 400;
  constexpr int kQueryThreads = 2;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kIngestThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kDeltasPerThread; ++i) {
        const auto u = static_cast<idx_t>(
            rng.next_below(static_cast<std::uint64_t>(w.gen.m)));
        const auto v = static_cast<idx_t>(
            rng.next_below(static_cast<std::uint64_t>(w.gen.n)));
        EXPECT_TRUE(log.append(u, v, rng.next_real() * 5.0f));
      }
    });
  }
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(2000 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_acquire)) {
        const auto u = static_cast<idx_t>(
            rng.next_below(static_cast<std::uint64_t>(w.gen.m)));
        const auto answer = batcher.submit(u).get();
        EXPECT_FALSE(answer.items.empty());
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Retrain continuously while ingest + queries hammer the stack.
  int promotions = 0;
  for (int cycle = 0; cycle < 3; ++cycle) {
    const auto rec = orch.run_cycle(/*force=*/true);
    ASSERT_NE(rec.outcome, orchestrate::CycleOutcome::kTrainFailed)
        << rec.error;
    if (rec.outcome == orchestrate::CycleOutcome::kPromoted) ++promotions;
  }
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  const auto counters = orch.counters();
  EXPECT_EQ(counters.retrains, 3u);
  EXPECT_EQ(counters.deltas_ingested,
            static_cast<std::uint64_t>(kIngestThreads * kDeltasPerThread));
  EXPECT_EQ(counters.promotions, static_cast<std::uint64_t>(promotions));
  EXPECT_GT(answered.load(), 0u);
  // Every accepted delta was merged by some cycle's snapshot or pends for
  // the next — a final snapshot accounts for all of them, none lost.
  EXPECT_EQ(log.snapshot().deltas_applied,
            static_cast<std::uint64_t>(kIngestThreads * kDeltasPerThread));
}

// ------------------------------------------------ retraining tiers ---------

orchestrate::TrainerOptions small_trainer_options() {
  orchestrate::TrainerOptions topt;
  topt.solver.als.f = kF;
  topt.solver.als.lambda = 0.05f;
  topt.iterations = 1;
  return topt;
}

TEST(TrainerBackend, AlternatingTiersAlwaysRestoreTheNewestCandidate) {
  // Regression for the per-instance stamp bug: two backends publishing into
  // the same candidate dir must hand out strictly increasing checkpoint
  // stamps, or restore() (which prefers the highest stamp) can resurrect a
  // stale candidate after the tiers alternate.
  const auto& w = world();
  TempWorkDir work("cumf_trainer_stamps");
  orchestrate::CheckpointStampSource stamps;
  orchestrate::FullAlsTrainer full(small_trainer_options(),
                                   work.path.string(), &stamps);
  orchestrate::IncrementalSgdTrainer inc(orchestrate::IncrementalSgdOptions{},
                                         work.path.string(), &stamps);

  orchestrate::RatingLog log(w.split.train);
  core::CheckpointManager manager(work.path.string());
  linalg::FactorMatrix warm_x = w.base_x;
  linalg::FactorMatrix warm_theta = w.base_theta;
  int last_stamp = -1;
  for (int round = 0; round < 2; ++round) {
    append_deltas(&log, 40, 900 + static_cast<std::uint64_t>(round));
    const auto snap = log.snapshot();
    for (orchestrate::TrainerBackend* backend :
         {static_cast<orchestrate::TrainerBackend*>(&full),
          static_cast<orchestrate::TrainerBackend*>(&inc)}) {
      const auto result = backend->train(snap, &warm_x, &warm_theta);
      const auto restored = manager.restore();
      ASSERT_TRUE(restored.has_value());
      // The restored candidate is the one just published, bit-for-bit...
      EXPECT_EQ(restored->x.data(), result.x.data());
      EXPECT_EQ(restored->theta.data(), result.theta.data());
      // ...because the stamp moved strictly forward across both backends.
      EXPECT_GT(restored->resume_iteration(), last_stamp);
      last_stamp = restored->resume_iteration();
      warm_x = result.x;
      warm_theta = result.theta;
    }
  }
}

TEST(IncrementalSgdTrainer, TouchesOnlyDeltaAffectedRows) {
  const auto& w = world();
  TempWorkDir work("cumf_inc_masked");
  orchestrate::CheckpointStampSource stamps;
  orchestrate::IncrementalSgdTrainer inc(orchestrate::IncrementalSgdOptions{},
                                         work.path.string(), &stamps);

  orchestrate::RatingLog log(w.split.train);
  append_deltas(&log, 60, 911);
  const auto snap = log.snapshot();
  ASSERT_FALSE(snap.touched_users.empty());
  ASSERT_LT(snap.touched_users.size(), static_cast<std::size_t>(w.gen.m));

  const auto result = inc.train(snap, &w.base_x, &w.base_theta);
  EXPECT_EQ(result.tier, orchestrate::TrainTier::kIncrementalSgd);
  EXPECT_EQ(result.users_touched,
            static_cast<idx_t>(snap.touched_users.size()));
  EXPECT_EQ(result.items_touched,
            static_cast<idx_t>(snap.touched_items.size()));
  EXPECT_GT(result.samples_per_epoch, 0u);
  EXPECT_GT(result.modeled_seconds, 0.0);

  const std::vector<char> user_touched = [&] {
    std::vector<char> mask(static_cast<std::size_t>(w.gen.m), 0);
    for (const idx_t u : snap.touched_users) mask[u] = 1;
    return mask;
  }();
  const std::vector<char> item_touched = [&] {
    std::vector<char> mask(static_cast<std::size_t>(w.gen.n), 0);
    for (const idx_t v : snap.touched_items) mask[v] = 1;
    return mask;
  }();
  const auto row_bytes = sizeof(real_t) * static_cast<std::size_t>(kF);
  std::size_t changed_rows = 0;
  for (idx_t u = 0; u < w.gen.m; ++u) {
    if (user_touched[static_cast<std::size_t>(u)] != 0) {
      changed_rows +=
          std::memcmp(result.x.row(u), w.base_x.row(u), row_bytes) != 0;
    } else {
      // Untouched rows come out bit-identical to the warm start.
      EXPECT_EQ(std::memcmp(result.x.row(u), w.base_x.row(u), row_bytes), 0)
          << "untouched user row " << u << " was modified";
    }
  }
  for (idx_t v = 0; v < w.gen.n; ++v) {
    if (item_touched[static_cast<std::size_t>(v)] == 0) {
      EXPECT_EQ(
          std::memcmp(result.theta.row(v), w.base_theta.row(v), row_bytes), 0)
          << "untouched item row " << v << " was modified";
    }
  }
  EXPECT_GT(changed_rows, 0u);  // the touched rows actually trained
}

TEST(IncrementalSgdTrainer, SameSnapshotSameSeedIsBitIdentical) {
  const auto& w = world();
  TempWorkDir work_a("cumf_inc_det_a");
  TempWorkDir work_b("cumf_inc_det_b");
  orchestrate::CheckpointStampSource stamps_a, stamps_b;
  orchestrate::IncrementalSgdOptions sopt;
  orchestrate::IncrementalSgdTrainer a(sopt, work_a.path.string(), &stamps_a);
  orchestrate::IncrementalSgdTrainer b(sopt, work_b.path.string(), &stamps_b);

  orchestrate::RatingLog log(w.split.train);
  append_deltas(&log, 80, 922);
  const auto snap = log.snapshot();

  const auto r1 = a.train(snap, &w.base_x, &w.base_theta);
  const auto r2 = b.train(snap, &w.base_x, &w.base_theta);
  EXPECT_EQ(r1.x.data(), r2.x.data());  // bit-identical, not approximately
  EXPECT_EQ(r1.theta.data(), r2.theta.data());

  // A different seed shuffles the sample order into a different candidate.
  orchestrate::IncrementalSgdOptions other = sopt;
  other.seed ^= 0xbeef;
  TempWorkDir work_c("cumf_inc_det_c");
  orchestrate::CheckpointStampSource stamps_c;
  orchestrate::IncrementalSgdTrainer c(other, work_c.path.string(),
                                       &stamps_c);
  const auto r3 = c.train(snap, &w.base_x, &w.base_theta);
  EXPECT_NE(r1.x.data(), r3.x.data());
}

TEST(Orchestrator, AutoTierConsolidatesOnScheduleAndSplitsCounters) {
  const auto& w = world();
  TempWorkDir work("cumf_orch_auto");
  orchestrate::RatingLog log(w.split.train);
  serve::LiveFactorStore live(serve::FactorStore(w.base_x, w.base_theta, 2));

  auto opt = small_options(work.path.string());
  opt.tier_mode = orchestrate::TrainTierMode::kAuto;
  opt.consolidate_every = 3;
  orchestrate::Orchestrator orch(log, live, w.split.test, opt, &w.R);

  // Feed the held-out slice back in thirds — real signal, so every tier's
  // candidate clears the gate.
  const auto n = w.split.test.val.size();
  std::size_t fed = 0;
  auto feed_third = [&](int third) {
    const std::size_t end = n * static_cast<std::size_t>(third + 1) / 3;
    for (; fed < end; ++fed) {
      ASSERT_TRUE(log.append(w.split.test.row[fed], w.split.test.col[fed],
                             w.split.test.val[fed]));
    }
  };

  for (int cycle = 0; cycle < 3; ++cycle) {
    feed_third(cycle);
    const auto rec = orch.run_cycle();
    ASSERT_EQ(rec.outcome, orchestrate::CycleOutcome::kPromoted)
        << rec.error << " " << rec.gate.reason;
    EXPECT_FALSE(rec.escalated);
    if (cycle < 2) {
      EXPECT_EQ(rec.tier, orchestrate::TrainTier::kIncrementalSgd);
      EXPECT_FALSE(rec.consolidation);
    } else {
      // Every consolidate_every-th training cycle runs full ALS.
      EXPECT_EQ(rec.tier, orchestrate::TrainTier::kFullAls);
      EXPECT_TRUE(rec.consolidation);
    }
  }

  const auto counters = orch.counters();
  EXPECT_EQ(counters.retrains, 3u);
  EXPECT_EQ(counters.retrains_incremental, 2u);
  EXPECT_EQ(counters.retrains_full, 1u);
  EXPECT_EQ(counters.promotions, 3u);
  EXPECT_EQ(counters.promotions_incremental, 2u);
  EXPECT_EQ(counters.promotions_full, 1u);
  EXPECT_EQ(counters.consolidations, 1u);
  EXPECT_EQ(counters.escalations, 0u);
  EXPECT_EQ(counters.last_train_tier,
            static_cast<std::uint64_t>(orchestrate::TrainTier::kFullAls));
  EXPECT_EQ(live.generation(), 4u);  // three promotions over the seed
}

TEST(Orchestrator, RejectedIncrementalCandidateEscalatesToFullAls) {
  const auto& w = world();
  TempWorkDir work("cumf_orch_escalate");
  orchestrate::RatingLog log(w.split.train);
  serve::LiveFactorStore live(serve::FactorStore(w.base_x, w.base_theta, 2));

  auto opt = small_options(work.path.string());
  opt.tier_mode = orchestrate::TrainTierMode::kIncremental;
  // An absurd learning rate diverges the incremental candidate, so the gate
  // must reject it — the cycle then re-trains with full ALS on the same
  // snapshot instead of stalling.
  opt.sgd.lr = 10.0f;
  orchestrate::Orchestrator orch(log, live, w.split.test, opt, &w.R);

  for (std::size_t i = 0; i < w.split.test.val.size(); ++i) {
    ASSERT_TRUE(log.append(w.split.test.row[i], w.split.test.col[i],
                           w.split.test.val[i]));
  }
  const auto rec = orch.run_cycle();
  ASSERT_EQ(rec.outcome, orchestrate::CycleOutcome::kPromoted)
      << rec.error << " " << rec.gate.reason;
  EXPECT_TRUE(rec.escalated);
  EXPECT_EQ(rec.tier, orchestrate::TrainTier::kFullAls);
  EXPECT_EQ(live.generation(), 2u);

  const auto counters = orch.counters();
  EXPECT_EQ(counters.retrains, 2u);  // both passes of the one cycle
  EXPECT_EQ(counters.retrains_incremental, 1u);
  EXPECT_EQ(counters.retrains_full, 1u);
  EXPECT_EQ(counters.rejections_incremental, 1u);
  EXPECT_EQ(counters.rejections_full, 0u);
  EXPECT_EQ(counters.promotions_full, 1u);
  EXPECT_EQ(counters.escalations, 1u);
  EXPECT_EQ(counters.consolidations, 0u);  // escalation, not the schedule

  // Nothing pending after the escalated promotion: the next cycle skips.
  const auto idle = orch.run_cycle();
  EXPECT_EQ(idle.outcome, orchestrate::CycleOutcome::kSkipped);
}

// ------------------------------------------------- end-to-end over TCP -----

TEST(Orchestrator, EndToEndIngestRetrainGateSwapOverTcp) {
  const auto& w = world();
  TempWorkDir work("cumf_orch_e2e");
  orchestrate::RatingLog log(w.split.train);
  serve::LiveFactorStore live(serve::FactorStore(w.base_x, w.base_theta, 2));
  serve::TopKOptions eopt;
  eopt.exclude_rated = &w.R;
  const serve::TopKEngine engine(live, eopt);
  serve::BatcherOptions bopt;
  bopt.k = kTopK;
  bopt.max_batch = 16;
  bopt.max_delay = std::chrono::microseconds(500);
  serve::RequestBatcher batcher(engine, bopt);

  auto opt = small_options(work.path.string());
  orchestrate::Orchestrator orch(log, live, w.split.test, opt, &w.R);

  serve::net::ServerOptions sopt;
  sopt.ingest = [&log](idx_t user, idx_t item, double value) {
    return log.append(user, item, static_cast<real_t>(value));
  };
  sopt.augment_stats = [&orch](serve::ServeStats& s) { orch.merge_into(&s); };
  serve::net::TcpServer server(batcher, sopt);

  // Continuous query traffic for the whole scenario; every response must be
  // kOk — a promotion, rejection, or rollback may never drop a query.
  std::atomic<bool> stop{false};
  std::atomic<int> bad_responses{0};
  std::atomic<std::uint64_t> served{0};
  std::thread traffic([&] {
    serve::net::Client client("127.0.0.1", server.port());
    util::Rng rng(404);
    while (!stop.load(std::memory_order_acquire)) {
      const auto u = static_cast<idx_t>(
          rng.next_below(static_cast<std::uint64_t>(w.gen.m)));
      const auto resp = client.query(u, kTopK);
      if (resp.status != serve::net::Status::kOk) bad_responses.fetch_add(1);
      served.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // 1. Ingest the held-out slice as deltas over the wire.
  serve::net::Client ops("127.0.0.1", server.port());
  const auto n_deltas = w.split.test.val.size();
  for (std::size_t i = 0; i < n_deltas; ++i) {
    ASSERT_EQ(ops.add_rating(w.split.test.row[i], w.split.test.col[i],
                             w.split.test.val[i]),
              serve::net::Status::kOk);
  }
  EXPECT_EQ(ops.add_rating(static_cast<idx_t>(w.gen.m) + 5, 0, 3.0),
            serve::net::Status::kBadUser);
  // Counters leave the server through the GetMetrics exposition.
  std::string text = ops.metrics();
  auto metric = [&text](const char* series) {
    return obs::metric_value(text, series).value_or(-1.0);
  };
  EXPECT_EQ(metric("cumf_orchestrator_deltas_total{result=\"ingested\"}"),
            static_cast<double>(n_deltas));
  EXPECT_EQ(metric("cumf_orchestrator_deltas_total{result=\"rejected\"}"), 1.0);
  EXPECT_EQ(metric("cumf_serve_generation"), 1.0);

  // 2. Retrain on the fresh deltas → gate → hot swap under live traffic.
  const auto cycle = orch.run_cycle();
  ASSERT_EQ(cycle.outcome, orchestrate::CycleOutcome::kPromoted)
      << cycle.error << " " << cycle.gate.reason;
  text = ops.metrics();
  EXPECT_EQ(metric("cumf_serve_generation"), 2.0);
  // One retrain and one promotion, both on the full tier (this server is
  // pinned kFull).
  EXPECT_EQ(metric("cumf_orchestrator_retrains_total{tier=\"full\"}"), 1.0);
  EXPECT_EQ(metric("cumf_orchestrator_retrains_total{tier=\"incremental\"}"),
            0.0);
  EXPECT_EQ(metric("cumf_orchestrator_promotions_total{tier=\"full\"}"), 1.0);
  EXPECT_EQ(metric("cumf_orchestrator_promotions_total{tier=\"incremental\"}"),
            0.0);
  EXPECT_EQ(metric("cumf_orchestrator_train_tier"),
            static_cast<double>(orchestrate::TrainTier::kFullAls));
  EXPECT_GT(metric("cumf_orchestrator_train_wall_ms"), 0.0);
  // Promotion moved the gate baseline to the promoted candidate's metrics
  // (the exposition renders doubles in round-trip form).
  EXPECT_DOUBLE_EQ(metric("cumf_orchestrator_baseline_rmse"), cycle.gate.rmse);
  EXPECT_DOUBLE_EQ(metric("cumf_orchestrator_baseline_recall"),
                   cycle.gate.recall);

  // 3. A degraded candidate is rejected; generation holds.
  const auto rejected =
      orch.submit_candidate(noised(w.base_x, 55), noised(w.base_theta, 56));
  EXPECT_EQ(rejected.outcome, orchestrate::CycleOutcome::kRejected);
  text = ops.metrics();
  EXPECT_EQ(metric("cumf_serve_generation"), 2.0);
  EXPECT_EQ(metric("cumf_orchestrator_rejections_total{tier=\"full\"}"), 1.0);

  // 4. Rollback to the pre-promotion model; queries keep flowing.
  ASSERT_TRUE(orch.rollback());
  text = ops.metrics();
  EXPECT_EQ(metric("cumf_serve_generation"), 3.0);
  EXPECT_EQ(metric("cumf_orchestrator_rollbacks_total"), 1.0);

  stop.store(true, std::memory_order_release);
  traffic.join();
  EXPECT_EQ(bad_responses.load(), 0);
  EXPECT_GT(served.load(), 0u);

  // The post-rollback answers over the wire are the generation-1 factors,
  // bit-identical to brute force.
  for (idx_t u = 0; u < 40; u += 7) {
    const auto resp = ops.query(u, kTopK);
    ASSERT_EQ(resp.status, serve::net::Status::kOk);
    EXPECT_EQ(resp.generation, 3u);
    EXPECT_EQ(resp.items,
              serve_test::brute_force_topk(w.base_x, w.base_theta, u, kTopK,
                                           &w.R));
  }
}

}  // namespace
}  // namespace cumf
