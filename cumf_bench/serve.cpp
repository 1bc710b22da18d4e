// The two serving workloads.
//
// serve-catalog: 20K users × 50K items at f=32 behind the TCP front-end,
// cache off, so the engine sweep dominates a read. Its factors come from
// three ALS iterations on a Zipf-popularity synthetic set of ~1M ratings,
// trained during set-up, so item norms are skewed the way trained factors
// are and norm pruning has something to prune. An open loop at a fixed rate
// on one connection gives read latency; a closed loop at saturation gives
// capacity. The rate is a twentieth of the capacity measured on the 4-core
// machine the benchmark was sized on, frozen so a faster engine shows up as
// lower latency rather than as more offered load. It is that low because a
// queue amplifies every change of the host's speed (README.md has the
// measurements). Every 64th reply is checked bit for bit against a
// one-shard, no-pruning reference engine.
//
// serve-retrain: the bench/orchestrate_refresh world — 1500 users × 700
// items, f=16, a four-iteration seed model — with reads, AddRating writes
// and retraining on one stack. The catalog is tiny, so time goes to the
// network, the batcher, the score cache and hot swaps; full-ALS
// consolidations compete with queries for the cores. Reads are Zipf over
// users so the cache sees repeats. The bench's main thread calls
// Orchestrator::run_cycle every 250 ms (auto tier, consolidation every 4th
// cycle); the run_cycle wall is the delta-to-promote time.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"
#include "gpusim/device_group.hpp"
#include "obs/trace.hpp"
#include "orchestrate/orchestrator.hpp"
#include "probes.hpp"
#include "sparse/split.hpp"

namespace cumf::bench {

namespace {

constexpr int kTopK = 10;
constexpr int kVerifyEvery = 64;
/// Open-loop warm-up at the measured rates before the measured phases.
constexpr double kWarmupSeconds = 2.0;

/// Ratings, their split, and the CSR pair training needs.
struct RatingData {
  sparse::CooMatrix train;
  sparse::CooMatrix test;
  sparse::CsrMatrix R;
  sparse::CsrMatrix Rt;
};

RatingData make_ratings(const data::SyntheticOptions& gen, std::uint64_t seed) {
  RatingData d;
  util::Rng split_rng(seed ^ 0xabcdef1234567ull);
  auto split =
      sparse::split_ratings(data::generate_ratings(gen), 0.1, split_rng);
  d.train = std::move(split.train);
  d.test = std::move(split.test);
  d.R = sparse::coo_to_csr(d.train);
  d.Rt = sparse::csc_as_csr_of_transpose(sparse::csr_to_csc(d.R));
  return d;
}

core::SolverConfig solver_config(int f) {
  core::SolverConfig cfg;
  cfg.als.f = f;
  cfg.als.lambda = 0.05f;
  return cfg;
}

/// Trains `iterations` ALS iterations on one TitanX; returns the wall time
/// and fills the factors and the simulated-GPU time.
double train_model(const RatingData& d, const core::SolverConfig& cfg,
                   int iterations, linalg::FactorMatrix* x,
                   linalg::FactorMatrix* theta, double* modeled_s) {
  const auto topo = gpusim::PcieTopology::flat(1);
  gpusim::DeviceGroup gpu(1, gpusim::titan_x(), topo);
  core::AlsSolver solver(gpu.pointers(), topo, d.R, d.Rt, cfg);
  const auto t0 = Clock::now();
  for (int i = 0; i < iterations; ++i) solver.run_iteration();
  const double wall_s = seconds_since(t0);
  *modeled_s = solver.modeled_seconds();
  *x = solver.x();
  *theta = solver.theta();
  return wall_s;
}

/// Read latency and goodput, each a median over the phase's seconds (see
/// windowed_quantile) so a host stall of a second or two does not move them.
void report_reads(const LoadResult& open, const LoadResult& closed,
                  Report& rep) {
  rep.timing("latency_p50_ms", open.read_quantile(0.5), "ms",
             open.read_ms.size());
  rep.metric("latency_p90_ms", open.read_quantile(0.9), "ms");
  rep.timing("throughput_per_s", closed.median_reads_per_second(), "1/s",
             closed.reads_ok);
}

/// The model a serving workload starts from: the factors it serves first,
/// how long their training took, and how well they fit the ratings they
/// were trained on. The fit rather than the test RMSE: on serve-retrain's
/// small test split the test RMSE moves by about 3% from seed to seed, the
/// fit by about 1%.
void report_served_model(double modeled_s, const RatingData& data,
                         const linalg::FactorMatrix& x,
                         const linalg::FactorMatrix& theta, Report& rep) {
  rep.metric("modeled_time_to_model_s", modeled_s, "s");
  rep.metric("model_rmse", eval::rmse(data.train, x, theta), "rmse");
  rep.note("served model: test RMSE " +
           std::to_string(eval::rmse(data.test, x, theta)));
}

/// The tail of an open loop's reads and its generator's lateness.
void report_tail(const LoadResult& open, Report& rep) {
  rep.metric("tail.read_p99_ms", open.read_ms.quantile(0.99), "ms");
  rep.metric("tail.read_p999_ms", open.read_ms.quantile(0.999), "ms");
  rep.metric("gen.late_ms.p99", open.late_ms.quantile(0.99), "ms");
}

void note_open_loop(const char* phase, const LoadResult& r, Report& rep) {
  std::string line = std::string(phase) + ": " +
                     std::to_string(r.reads_sent) + " reads, " +
                     std::to_string(r.writes_sent) +
                     " writes; generator late p99 " +
                     std::to_string(r.late_ms.quantile(0.99)) +
                     " ms, read p99 " +
                     std::to_string(r.read_ms.quantile(0.99)) +
                     " ms, read p99.9 " +
                     std::to_string(r.read_ms.quantile(0.999)) + " ms";
  if (r.writes_sent != 0) {
    line += "; write p50 " + std::to_string(r.write_ms.quantile(0.5)) +
            " ms, p90 " + std::to_string(r.write_ms.quantile(0.9)) +
            " ms, p99 " + std::to_string(r.write_ms.quantile(0.99)) + " ms";
  }
  rep.note(line);
}

// ---------------------------------------------------------------- catalog --

constexpr double kCatalogReadRate = 100.0;  // reads/s, frozen (see header)
constexpr int kCatalogOpenConns = 1;
constexpr int kClosedConns = 4;
constexpr int kClosedDepth = 32;
constexpr double kOpenShare = 0.7;  // of a run; the closed loop gets the rest

struct CatalogWorld {
  RatingData data;
  linalg::FactorMatrix x;
  linalg::FactorMatrix theta;
  double modeled_s = 0.0;  // of the served model's training
  std::unique_ptr<ServingStack> stack;
};

struct CatalogPhase {
  LoadResult open;
  LoadResult closed;
};

/// The open loop for `open_s`, then the closed loop for `closed_s` (none
/// when 0).
CatalogPhase catalog_phase(CatalogWorld& w, const Traffic& traffic,
                           double open_s, double closed_s, std::uint64_t seed,
                           util::Rng& rng) {
  OpenLoopSpec spec;
  spec.read_rate = kCatalogReadRate;
  spec.read_conns = kCatalogOpenConns;
  spec.seconds = open_s;
  spec.k = kTopK;
  spec.verify_every = kVerifyEvery;
  CatalogPhase ph;
  ph.open = run_open_loop(w.stack->server.port(), spec, traffic, rng);
  if (closed_s > 0.0) {
    ph.closed = run_closed_loop(w.stack->server.port(), kClosedConns,
                                kClosedDepth, closed_s, kTopK, traffic, seed,
                                kVerifyEvery);
  }
  return ph;
}

/// Checks kept replies bit for bit against a one-shard, no-pruning engine.
void verify_catalog(const CatalogWorld& w, const CatalogPhase& ph,
                    Report& rep) {
  const serve::FactorStore one_shard(w.x, w.theta, 1);
  serve::TopKOptions opt;
  opt.exclude_rated = &w.data.R;
  opt.prune = false;
  const serve::TopKEngine reference(one_shard, opt);
  std::uint64_t checked = 0, wrong = 0;
  for (const LoadResult* r : {&ph.open, &ph.closed}) {
    for (const KeptReply& kept : r->kept) {
      ++checked;
      if (kept.items != reference.recommend_one(kept.user, kTopK)) ++wrong;
    }
  }
  rep.note("verified " + std::to_string(checked) +
           " replies against the reference engine");
  if (wrong != 0) rep.fail("replies differ from the reference engine", wrong);
  ph.open.tally(rep, "open loop");
  ph.closed.tally(rep, "closed loop");
}

}  // namespace

void run_serve_catalog(const RunOptions& opt, Report& rep) {
  data::SyntheticOptions gen;
  gen.m = 20'000;
  gen.n = 50'000;
  gen.nz = 1'000'000;
  gen.seed = opt.seed;
  const core::SolverConfig cfg = solver_config(32);
  serve::BatcherOptions bopt;
  bopt.k = kTopK;
  bopt.max_batch = 32;
  bopt.max_delay = std::chrono::microseconds(1000);

  SetupTimes setup;
  Samples train_s;
  CatalogWorld w;
  while (setup.more()) {
    w.stack.reset();  // it points into w.data
    w = CatalogWorld{};
    auto t0 = Clock::now();
    w.data = make_ratings(gen, opt.seed);
    const double data_s = seconds_since(t0);
    // Training the served model is set-up, and also the workload's time to
    // a model, so it is repeated with set-up and gets samples of its own.
    const double seed_train_s =
        train_model(w.data, cfg, 3, &w.x, &w.theta, &w.modeled_s);
    train_s.add(seed_train_s);
    t0 = Clock::now();
    w.stack = std::make_unique<ServingStack>(w.x, w.theta, &w.data.R, bopt,
                                             serve::net::ServerOptions{});
    setup.add(data_s, seed_train_s, seconds_since(t0));
  }
  rep.note("catalog: " + std::to_string(gen.m) + " users x " +
           std::to_string(gen.n) + " items, " +
           std::to_string(w.data.R.nnz()) + " training ratings, f=32");

  const Traffic traffic = uniform_reads(gen.m);
  util::Rng rng(opt.seed ^ 0xca7a10full);
  {
    // Warm-up at the measured rate: fixed length, so not part of setup_s.
    OpenLoopSpec warm;
    warm.read_rate = kCatalogReadRate;
    warm.read_conns = kCatalogOpenConns;
    warm.seconds = kWarmupSeconds;
    warm.k = kTopK;
    (void)run_open_loop(w.stack->server.port(), warm, traffic, rng);
  }

  const double plain_s = opt.traced() ? opt.seconds / 2.0 : opt.seconds;
  const double open_s = plain_s * kOpenShare;
  const CatalogPhase plain = catalog_phase(w, traffic, open_s,
                                           plain_s - open_s, opt.seed, rng);
  verify_catalog(w, plain, rep);
  note_open_loop("open loop", plain.open, rep);
  setup.report(rep);
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report_reads(plain.open, plain.closed, rep);
  rep.timing("time_to_model_s", train_s.median(), "s", train_s.size());
  rep.metric("time_to_model_p90_s", train_s.quantile(0.9), "s");
  rep.timing("secondary_p90_ms", plain.closed.read_quantile(0.9), "ms",
             plain.closed.read_ms.size());
  report_served_model(w.modeled_s, w.data, w.x, w.theta, rep);
  if (!opt.traced()) return;

  // The traced half repeats the open loop only: traffic at saturation would
  // outgrow any trace ring this machine can hold.
  enable_tracing();
  const CatalogPhase traced =
      catalog_phase(w, traffic, open_s, 0.0, opt.seed, rng);
  verify_catalog(w, traced, rep);
  note_open_loop("traced open loop", traced.open, rep);
  rep.metric("obs.trace_overhead_pct",
             overhead_pct(plain.open.read_quantile(0.5),
                          traced.open.read_quantile(0.5)),
             "%");
  report_tail(plain.open, rep);
  probe_serving(*w.stack, kCatalogReadRate, kCatalogOpenConns, traffic, rng,
                rep);
  rep.metric("serve.live_store.swap_pause_ms.max", 0.0, "ms");  // no swaps
  report_no_core(rep);
  report_no_orchestrator(rep);
  write_trace(opt.trace_dir, rep);
}

// ---------------------------------------------------------------- retrain --

namespace {

constexpr double kRetrainReadRate = 2000.0;   // reads/s over 2 connections
constexpr double kRetrainWriteRate = 2000.0;  // AddRating/s on 1 connection
constexpr int kRetrainReadConns = 2;
constexpr int kRetrainCacheEntries = 1024;
constexpr auto kCyclePeriod = std::chrono::milliseconds(250);
/// Reads keep running this long after the last cycle of a phase, so every
/// promoted generation is served before the phase ends.
constexpr auto kCycleTail = std::chrono::milliseconds(400);
constexpr double kRetrainOpenShare = 0.6;

/// Members in dependency order: the orchestrator goes first on
/// destruction, then the serving stack, then the log the server feeds.
struct RetrainWorld {
  RatingData data;
  linalg::FactorMatrix x;  // seed model
  linalg::FactorMatrix theta;
  double modeled_s = 0.0;  // of the seed model's training
  std::unique_ptr<orchestrate::RatingLog> log;
  std::unique_ptr<ServingStack> stack;
  std::unique_ptr<orchestrate::Orchestrator> orch;
};

struct RetrainPhase {
  LoadResult open;
  LoadResult closed;
  std::vector<orchestrate::CycleRecord> cycles;  // open loop only
  std::vector<orchestrate::CycleRecord> all_cycles;
  Samples cycle_ms;  // run_cycle wall, open loop only
};

/// Calls run_cycle every kCyclePeriod on this thread while `load` runs the
/// generator on another, stopping kCycleTail before `seconds` are up.
/// `cycle_ms` (optional) receives each run_cycle wall.
void cycles_beside(RetrainWorld& w, double seconds,
                   const std::function<void()>& load,
                   std::vector<orchestrate::CycleRecord>* records,
                   Samples* cycle_ms) {
  auto& trace = obs::TraceCollector::global();
  const auto start = Clock::now();
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds)) -
                    kCycleTail;
  // Joined on every path: the generator stops on its own schedule.
  std::jthread generator(load);
  for (auto next = start + kCyclePeriod; next < stop; next += kCyclePeriod) {
    std::this_thread::sleep_until(next);
    obs::TraceSpan span(trace, "bench.cycle");
    const auto t0 = Clock::now();
    records->push_back(w.orch->run_cycle(/*force=*/true));
    if (cycle_ms != nullptr) cycle_ms->add(ms_between(t0, Clock::now()));
    next = std::max(next, Clock::now() - kCyclePeriod);
  }
  generator.join();
}

/// The open loop for `open_s`, then the closed loop for `closed_s` (none
/// when 0), with retraining cycles beside both.
RetrainPhase retrain_phase(RetrainWorld& w, const Traffic& traffic,
                           double open_s, double closed_s, std::uint64_t seed,
                           util::Rng& rng) {
  RetrainPhase ph;
  const std::uint16_t port = w.stack->server.port();
  OpenLoopSpec spec;
  spec.read_rate = kRetrainReadRate;
  spec.read_conns = kRetrainReadConns;
  spec.write_rate = kRetrainWriteRate;
  spec.seconds = open_s;
  spec.k = kTopK;
  cycles_beside(
      w, open_s, [&] { ph.open = run_open_loop(port, spec, traffic, rng); },
      &ph.cycles, &ph.cycle_ms);
  ph.all_cycles = ph.cycles;
  if (closed_s > 0.0) {
    cycles_beside(
        w, closed_s,
        [&] {
          ph.closed = run_closed_loop(port, kClosedConns, kClosedDepth,
                                      closed_s, kTopK, traffic, seed, 0);
        },
        &ph.all_cycles, nullptr);
  }
  return ph;
}

/// Cycle outcomes, and every promoted generation served by some read.
void verify_retrain(const RetrainPhase& ph, Report& rep) {
  ph.open.tally(rep, "open loop");
  ph.closed.tally(rep, "closed loop");
  rep.attempted(ph.all_cycles.size());
  std::set<std::uint64_t> seen = ph.open.generations;
  seen.insert(ph.closed.generations.begin(), ph.closed.generations.end());
  for (const auto& rec : ph.all_cycles) {
    if (rec.outcome == orchestrate::CycleOutcome::kTrainFailed) {
      rep.fail("retrain cycle failed: " + rec.error);
    } else if (rec.outcome == orchestrate::CycleOutcome::kPromoted &&
               seen.count(rec.generation) == 0) {
      rep.fail("promoted generation " + std::to_string(rec.generation) +
               " was never served");
    }
  }
}

}  // namespace

void run_serve_retrain(const RunOptions& opt, Report& rep) {
  data::SyntheticOptions gen;
  gen.m = 1500;
  gen.n = 700;
  gen.nz = 40'000;
  gen.f_true = 8;
  gen.noise_std = 0.4;
  gen.seed = opt.seed;
  const core::SolverConfig cfg = solver_config(16);
  serve::BatcherOptions bopt;
  bopt.k = kTopK;
  bopt.max_batch = 32;
  bopt.max_delay = std::chrono::microseconds(1000);
  bopt.cache_capacity = kRetrainCacheEntries;

  SetupTimes setup;
  RetrainWorld w;
  while (setup.more()) {
    // Tear the previous world down in dependency order before replacing it.
    w.orch.reset();
    w.stack.reset();
    w.log.reset();
    w = RetrainWorld{};
    auto t0 = Clock::now();
    w.data = make_ratings(gen, opt.seed);
    const double data_s = seconds_since(t0);
    const double seed_train_s =
        train_model(w.data, cfg, 4, &w.x, &w.theta, &w.modeled_s);
    t0 = Clock::now();
    w.log = std::make_unique<orchestrate::RatingLog>(w.data.train);
    serve::net::ServerOptions sopt;
    sopt.ingest = [log = w.log.get()](idx_t u, idx_t i, double v) {
      return log->append(u, i, static_cast<real_t>(v));
    };
    w.stack = std::make_unique<ServingStack>(w.x, w.theta, &w.data.R, bopt,
                                             std::move(sopt));
    orchestrate::OrchestratorOptions oopt;
    oopt.trainer.solver = cfg;
    oopt.trainer.iterations = 3;
    oopt.gate.k = kTopK;
    oopt.gate.max_eval_users = 150;
    oopt.gate.rmse_slack = 0.05;
    oopt.gate.recall_slack = 0.2;
    oopt.tier_mode = orchestrate::TrainTierMode::kAuto;
    oopt.consolidate_every = 4;
    // As in bench/orchestrate_refresh: the uniform-random delta values are
    // noise, and the gentler SGD keeps incremental candidates passing.
    oopt.sgd.lr = 0.01f;
    oopt.sgd.epochs = 2;
    oopt.work_dir = opt.work_dir + "/orchestrator";
    std::filesystem::remove_all(oopt.work_dir);
    std::filesystem::create_directories(oopt.work_dir);
    w.orch = std::make_unique<orchestrate::Orchestrator>(
        *w.log, w.stack->live, w.data.test, oopt, &w.data.R);
    setup.add(data_s, seed_train_s, seconds_since(t0));
  }

  const auto users = static_cast<std::uint64_t>(gen.m);
  const auto items = static_cast<std::uint64_t>(gen.n);
  const Traffic traffic{
      [users](util::Rng& rng) {
        return static_cast<idx_t>(rng.zipf(users, 1.1));
      },
      [users, items](util::Rng& rng, idx_t* u, idx_t* i, double* v) {
        *u = static_cast<idx_t>(rng.next_below(users));
        *i = static_cast<idx_t>(rng.zipf(items, 1.05));
        *v = rng.next_double() * 5.0;
      }};
  util::Rng rng(opt.seed ^ 0x7e7a1full);
  {
    // Warm-up reads and writes; the writes become the first cycle's deltas.
    OpenLoopSpec warm;
    warm.read_rate = kRetrainReadRate;
    warm.read_conns = kRetrainReadConns;
    warm.write_rate = kRetrainWriteRate;
    warm.seconds = kWarmupSeconds;
    warm.k = kTopK;
    (void)run_open_loop(w.stack->server.port(), warm, traffic, rng);
  }

  const double plain_s = opt.traced() ? opt.seconds / 2.0 : opt.seconds;
  const double open_s = plain_s * kRetrainOpenShare;
  const RetrainPhase plain = retrain_phase(w, traffic, open_s,
                                           plain_s - open_s, opt.seed, rng);
  verify_retrain(plain, rep);
  note_open_loop("open loop", plain.open, rep);
  rep.note("delta-to-promote: p50 " + std::to_string(plain.cycle_ms.median()) +
           " ms, p90 " + std::to_string(plain.cycle_ms.quantile(0.9)) +
           " ms over " + std::to_string(plain.cycle_ms.size()) + " cycles");
  setup.report(rep);
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report_reads(plain.open, plain.closed, rep);
  rep.timing("time_to_model_s", plain.cycle_ms.median() / 1e3, "s",
             plain.cycle_ms.size());
  rep.metric("time_to_model_p90_s", plain.cycle_ms.quantile(0.9) / 1e3, "s");
  rep.timing("secondary_p90_ms", plain.open.write_quantile(0.9), "ms",
             plain.open.write_ms.size());
  report_served_model(w.modeled_s, w.data, w.x, w.theta, rep);
  if (!opt.traced()) return;

  // The traced half repeats the open loop (and its cycles) only, as for
  // serve-catalog.
  enable_tracing();
  const RetrainPhase traced =
      retrain_phase(w, traffic, open_s, 0.0, opt.seed, rng);
  verify_retrain(traced, rep);
  note_open_loop("traced open loop", traced.open, rep);
  rep.metric("obs.trace_overhead_pct",
             overhead_pct(plain.open.read_quantile(0.5),
                          traced.open.read_quantile(0.5)),
             "%");
  report_tail(plain.open, rep);

  std::vector<orchestrate::CycleRecord> cycles = plain.all_cycles;
  cycles.insert(cycles.end(), traced.all_cycles.begin(),
                traced.all_cycles.end());
  double pause_max_ms = 0.0;
  double promotions = 0.0, rejections = 0.0, escalations = 0.0;
  Samples full_ms, incremental_ms;
  for (const auto& rec : cycles) {
    pause_max_ms = std::max(pause_max_ms, rec.swap_pause_ms);
    promotions += rec.outcome == orchestrate::CycleOutcome::kPromoted;
    rejections += rec.outcome == orchestrate::CycleOutcome::kRejected;
    escalations += rec.escalated;
    if (rec.escalated) continue;  // its wall sums two passes
    (rec.tier == orchestrate::TrainTier::kFullAls ? full_ms : incremental_ms)
        .add(rec.train_wall_ms);
  }
  rep.metric("orch.cycles", static_cast<double>(cycles.size()), "count");
  rep.metric("orch.promotions", promotions, "count");
  rep.metric("orch.rejections", rejections, "count");
  rep.metric("orch.escalations", escalations, "count");
  rep.metric("orch.train_ms.incremental.p50", incremental_ms.median(), "ms");
  rep.metric("orch.train_ms.full.p50", full_ms.median(), "ms");
  rep.metric("serve.live_store.swap_pause_ms.max", pause_max_ms, "ms");

  probe_serving(*w.stack, kRetrainReadRate, kRetrainReadConns, traffic, rng,
                rep);
  report_no_core(rep);
  write_trace(opt.trace_dir, rep);
}

}  // namespace cumf::bench
