// Serving throughput: queries/sec vs micro-batch size, shard count, and
// scoring backend — plus the Table 3 cost treatment applied to serving.
//
// The serving analogue of the paper's batching story — MO-ALS batches row
// solves so Θᵀ is swept once per batch instead of once per row; the top-k
// engine batches user queries so each Θ shard row is read once per user
// block. This bench quantifies that lever on a synthetic model: batch size 1
// (naive online serving) vs micro-batches, across shard counts, plus the
// RequestBatcher + LRU cache on Zipf-skewed traffic.
//
// The same stream is then replayed through a one-device
// MultiDeviceScoringBackend on two device specs (Titan X, GK210): identical
// top-k lists, but every sweep is accounted as a simulated kernel launch,
// yielding modeled ms per batch —
// and from that, a fleet plan per device: how many GPUs, at what $/hr, to
// serve the target load, and the qps-per-dollar each device spec buys.
//
// A refresh-under-load mode then exercises the live-serving path: query
// threads keep hammering a LiveFactorStore-backed engine while freshly
// "retrained" checkpoints are hot-swapped in, reporting qps before / during /
// after each swap plus the swap-pause (pointer-swap critical section) — the
// paper's retrain-often story measured at the serving edge.
//
// The batching-vs-batch-1 comparison is a *relative perf race* that can
// flake on loaded shared runners; it is reported (with a WARNING on
// regression) but never fails the run — exactness is gated in
// tests/serve_test.cpp, not here.
//
// CSV: bench_results/serve_throughput.csv

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <future>
#include <span>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/checkpoint.hpp"
#include "obs/slo.hpp"
#include "costmodel/machines.hpp"
#include "costmodel/serving_fleet.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_group.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/topology.hpp"
#include "serve/batcher.hpp"
#include "serve/multi_device_backend.hpp"
#include "serve/factor_store.hpp"
#include "serve/live_store.hpp"
#include "serve/scoring_backend.hpp"
#include "serve/topk.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace cumf;

constexpr idx_t kUsers = 2000;
constexpr idx_t kItems = 4000;
constexpr int kF = 32;
constexpr int kTopK = 10;
constexpr int kQueries = 2000;
constexpr int kFleetBatch = 32;

linalg::FactorMatrix random_factors(idx_t rows, int f, std::uint64_t seed) {
  linalg::FactorMatrix m(rows, f);
  util::Rng rng(seed);
  m.randomize_uniform(rng, -1.0f, 1.0f);
  return m;
}

struct RunResult {
  double seconds = 0.0;
  double qps = 0.0;
  std::uint64_t scored = 0;
  std::uint64_t pruned = 0;
  serve::LatencySummary modeled;
  serve::LatencySummary interconnect;
};

RunResult run_stream(const serve::TopKEngine& engine,
                     const std::vector<idx_t>& stream, int batch) {
  RunResult r;
  const std::uint64_t scored0 = engine.items_scored();
  const std::uint64_t pruned0 = engine.items_pruned();
  util::Stopwatch watch;
  for (int q = 0; q < kQueries; q += batch) {
    const int take = std::min(batch, kQueries - q);
    (void)engine.recommend(
        std::span<const idx_t>(stream.data() + q,
                               static_cast<std::size_t>(take)),
        kTopK);
  }
  r.seconds = watch.seconds();
  r.qps = static_cast<double>(kQueries) / r.seconds;
  r.scored = engine.items_scored() - scored0;
  r.pruned = engine.items_pruned() - pruned0;
  r.modeled = engine.batch_modeled_summary();
  r.interconnect = engine.batch_interconnect_summary();
  return r;
}

}  // namespace

int main() {
  bench::print_header("serve_throughput",
                      "online top-k serving: qps, modeled time, fleet cost");

  const auto x = random_factors(kUsers, kF, 101);
  const auto theta = random_factors(kItems, kF, 102);

  // Zipf-skewed query stream: hot users repeat, like production traffic.
  std::vector<idx_t> stream(kQueries);
  util::Rng traffic(103);
  for (auto& u : stream) {
    u = static_cast<idx_t>(traffic.zipf(static_cast<std::uint64_t>(kUsers), 1.1));
  }

  util::CsvWriter csv(
      bench::results_dir() + "/serve_throughput.csv",
      {"mode", "backend", "device", "shards", "batch", "queries", "seconds",
       "qps", "modeled_ms", "kernel_ms", "interconnect_ms", "devices", "nodes",
       "dollars_per_hr", "qps_per_dollar", "items_scored", "items_pruned",
       "cache_hits", "generation", "swap_pause_ms", "qps_before", "qps_during",
       "qps_after"});

  std::printf("  model: %d users x %d items, f=%d, top-%d\n\n", kUsers, kItems,
              kF, kTopK);
  std::printf("  %-10s %-8s %-8s %7s %6s %9s %11s %11s %13s %13s\n", "mode",
              "backend", "device", "shards", "batch", "wall(s)", "qps",
              "modeled(ms)", "scored", "pruned");

  double qps_batch1 = 0.0;
  double qps_batched_best = 0.0;

  // ---- host backend: the batching lever across shard counts --------------
  for (const int shards : {1, 2, 4}) {
    const serve::FactorStore store(x, theta, shards);
    for (const int batch : {1, 8, 32, 128}) {
      serve::TopKOptions opt;
      opt.user_block = batch;
      const serve::TopKEngine engine(store, opt);
      const RunResult r = run_stream(engine, stream, batch);

      if (batch == 1) {
        qps_batch1 = std::max(qps_batch1, r.qps);
      } else {
        qps_batched_best = std::max(qps_batched_best, r.qps);
      }

      std::printf("  %-10s %-8s %-8s %7d %6d %9.3f %11.0f %11s %13llu %13llu\n",
                  "direct", "cpu", "host", shards, batch, r.seconds, r.qps,
                  "-", static_cast<unsigned long long>(r.scored),
                  static_cast<unsigned long long>(r.pruned));
      csv.row("direct", "cpu", "host", shards, batch, kQueries, r.seconds,
              r.qps, 0.0, 0.0, 0.0, 0, 0, 0.0, 0.0, r.scored, r.pruned, 0, 0,
              0.0, 0.0, 0.0, 0.0);
    }
  }

  // ---- simulated-GPU backend: same answers, modeled-time axis ------------
  // Per device spec: replay the stream, record modeled ms per micro-batch,
  // and derive the fleet profile the cost model prices below.
  struct DeviceRun {
    costmodel::PricedDevice device;
    costmodel::ServingProfile profile;
  };
  std::vector<DeviceRun> device_runs;
  for (const auto& priced : costmodel::priced_serving_devices()) {
    device_runs.push_back({priced, {}});
  }

  const serve::FactorStore store(x, theta, 2);
  const serve::TopKEngine cpu_engine(store);
  for (auto& run : device_runs) {
    const auto topo = gpusim::PcieTopology::flat(1);
    gpusim::DeviceGroup group(1, run.device.spec, topo);
    serve::MultiDeviceScoringBackend backend(group, topo);
    serve::TopKOptions opt;
    opt.user_block = kFleetBatch;
    opt.backend = &backend;

    // Backend parity is asserted in tests; this is a cheap belt-and-braces
    // check that the bench itself is comparing identical answers. A separate
    // engine keeps these single-user probes out of the modeled-latency
    // summary the fleet profile is built from.
    {
      const serve::TopKEngine parity_engine(store, opt);
      for (int q = 0; q < 8; ++q) {
        if (parity_engine.recommend_one(stream[q], kTopK) !=
            cpu_engine.recommend_one(stream[q], kTopK)) {
          std::fprintf(stderr, "FATAL: gpusim backend diverged from cpu\n");
          return 1;
        }
      }
    }
    group[0].reset_counters();
    group[0].reset_clock();

    const serve::TopKEngine engine(store, opt);
    const RunResult r = run_stream(engine, stream, kFleetBatch);
    run.profile.batch_seconds = r.modeled.p50_ms * 1e-3;
    run.profile.batch_users = kFleetBatch;

    std::printf("  %-10s %-8s %-8s %7d %6d %9.3f %11.0f %11.3f %13llu %13llu\n",
                "direct", "gpusim", run.device.spec.name.c_str(), 2,
                kFleetBatch, r.seconds, r.qps, r.modeled.p50_ms,
                static_cast<unsigned long long>(r.scored),
                static_cast<unsigned long long>(r.pruned));
    csv.row("direct", "gpusim", run.device.spec.name, 2, kFleetBatch, kQueries,
            r.seconds, r.qps, r.modeled.p50_ms, r.modeled.p50_ms, 0.0, 1, 0,
            0.0, 0.0, r.scored, r.pruned, 0, 0, 0.0, 0.0, 0.0, 0.0);
  }

  // Fleet requirement shared by the multi-device sweep and the fleet-sizing
  // section: well above one device's modeled capacity, so plans actually
  // size fleets rather than answer "one".
  costmodel::FleetRequirement req;
  req.target_qps = 5'000'000.0;
  req.p99_ms = 5.0;
  req.max_fill_ms = 2.0;

  // ---- multi-device sweep: the model-parallel split across a group -------
  // Θ's shards spread across 1/2/4 devices per spec; answers stay
  // bit-identical to the host engine while the modeled axis splits into
  // per-device kernel time (max over devices — they run concurrently) plus
  // the interconnect gather of per-device candidate partials. Each
  // configuration is priced as a node by the multi-device fleet planner, so
  // the qps-per-dollar column answers "2×cheap vs 1×big" directly.
  std::printf("\n  multi-device sweep (batch %d, %d shards):\n", kFleetBatch,
              4);
  std::printf("  %-8s %7s %9s %11s %11s %11s %11s %13s\n", "device", "devs",
              "wall(s)", "qps", "modeled(ms)", "kernel(ms)", "gather(ms)",
              "qps/$-hr");
  const serve::FactorStore mdstore(x, theta, 4);
  for (auto& run : device_runs) {
    for (const int p : {1, 2, 4}) {
      const auto topo = gpusim::PcieTopology::flat(p);
      gpusim::DeviceGroup group(p, run.device.spec, topo);
      serve::MultiDeviceScoringBackend backend(group, topo);
      serve::TopKOptions opt;
      opt.user_block = kFleetBatch;
      opt.backend = &backend;

      {
        const serve::TopKEngine parity_engine(mdstore, opt);
        for (int q = 0; q < 8; ++q) {
          if (parity_engine.recommend_one(stream[q], kTopK) !=
              cpu_engine.recommend_one(stream[q], kTopK)) {
            std::fprintf(stderr,
                         "FATAL: multigpu backend diverged from cpu (p=%d)\n",
                         p);
            return 1;
          }
        }
      }

      const serve::TopKEngine engine(mdstore, opt);
      const RunResult r = run_stream(engine, stream, kFleetBatch);
      const double gather_ms = r.interconnect.p50_ms;
      const double kernel_ms = r.modeled.p50_ms - gather_ms;

      costmodel::MultiDeviceNode node;
      node.spec = run.device.spec;
      node.price_per_device_hr = run.device.pricing.price_per_device_hr;
      node.devices = p;
      node.interconnect_gbps = topo.pcie_gbps();
      const auto plan = costmodel::plan_multi_device_fleet(
          req, node, run.profile, kTopK, backend.placement_imbalance(mdstore));

      std::printf("  %-8s %7d %9.3f %11.0f %11.3f %11.3f %11.3f %13.0f\n",
                  run.device.spec.name.c_str(), p, r.seconds, r.qps,
                  r.modeled.p50_ms, kernel_ms, gather_ms,
                  plan.qps_per_dollar_hr);
      csv.row("multidev", "multigpu", run.device.spec.name, 4, kFleetBatch,
              kQueries, r.seconds, r.qps, r.modeled.p50_ms, kernel_ms,
              gather_ms, p, plan.nodes, plan.dollars_per_hr,
              plan.qps_per_dollar_hr, r.scored, r.pruned, 0, 0, 0.0, 0.0, 0.0,
              0.0);
    }
  }

  // ---- RequestBatcher + hot-user LRU cache on the same Zipf stream -------
  {
    const serve::TopKEngine engine(store);
    serve::BatcherOptions opt;
    opt.k = kTopK;
    opt.max_batch = 32;
    opt.cache_capacity = 256;
    // SLO watch over the batcher run: burn rates computed against a 25 ms
    // latency threshold, reported after the wave loop.
    obs::SloOptions slo_opt;
    slo_opt.latency_threshold_ms = 25.0;
    obs::SloMonitor slo(slo_opt);
    serve::RequestBatcher batcher(engine, opt);
    batcher.set_slo(&slo);

    // Closed-loop waves: each wave's queries resolve before the next wave
    // arrives, so hot users from earlier waves hit the LRU cache.
    constexpr int kWave = 100;
    util::Stopwatch watch;
    std::vector<std::future<serve::BatchedAnswer>> futures;
    futures.reserve(kWave);
    for (int q = 0; q < kQueries; q += kWave) {
      futures.clear();
      const int take = std::min(kWave, kQueries - q);
      for (int i = 0; i < take; ++i) futures.push_back(batcher.submit(stream[q + i]));
      for (auto& fut : futures) (void)fut.get();
    }
    const double secs = watch.seconds();
    const double qps = static_cast<double>(kQueries) / secs;

    const auto stats = batcher.stats();
    std::printf(
        "  %-10s %-8s %-8s %7d %6d %9.3f %11.0f %11s %13llu %13llu  (%.0f%% "
        "cache hits, wall p99 %.2f ms, e2e p99 %.2f ms, queue p99 %.2f ms)\n",
        "batcher", "cpu", "host", 2, 32, secs, qps, "-",
        static_cast<unsigned long long>(stats.items_scored),
        static_cast<unsigned long long>(stats.items_pruned),
        100.0 * static_cast<double>(stats.cache_hits) /
            static_cast<double>(stats.queries),
        stats.batch_wall.p99_ms, stats.e2e.p99_ms, stats.queue_delay.p99_ms);
    csv.row("batcher", "cpu", "host", 2, 32, kQueries, secs, qps, 0.0, 0.0,
            0.0, 0, 0, 0.0, 0.0, stats.items_scored, stats.items_pruned,
            stats.cache_hits, 0, 0.0, 0.0, 0.0, 0.0);
    const auto health = slo.snapshot();
    std::printf("  SLO: latency %s (fast burn %.2f, %llu violations over "
                "%llu queries, threshold %.0f ms), availability %s\n",
                obs::alert_state_name(health.latency.state),
                health.latency.fast_burn,
                static_cast<unsigned long long>(health.latency.lifetime_bad),
                static_cast<unsigned long long>(health.latency.lifetime_total),
                health.latency_threshold_ms,
                obs::alert_state_name(health.availability.state));
  }

  // ---- refresh under load: hot swaps while query threads stay hot --------
  // Query threads run closed-loop micro-batches against a LiveFactorStore
  // engine; the main thread "retrains" (fresh random factors), checkpoints,
  // and hot-swaps. qps is sampled before each swap, across the refresh call
  // (load + shard + pointer swap), and after — the drop to watch is the
  // during column; swap_pause is the pointer-swap critical section alone.
  {
    constexpr int kLiveThreads = 4;
    constexpr int kSwaps = 3;
    serve::LiveFactorStore live(serve::FactorStore(x, theta, 2));
    serve::TopKOptions opt;
    opt.user_block = kFleetBatch;
    const serve::TopKEngine engine(live, opt);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> answered{0};
    std::vector<std::thread> workers;
    workers.reserve(kLiveThreads);
    for (int t = 0; t < kLiveThreads; ++t) {
      workers.emplace_back([&, t] {
        // Each thread walks the Zipf stream from its own offset.
        std::size_t pos = static_cast<std::size_t>(t) * 499;
        while (!stop.load(std::memory_order_relaxed)) {
          pos = (pos + kFleetBatch) %
                (stream.size() - static_cast<std::size_t>(kFleetBatch));
          (void)engine.recommend(
              std::span<const idx_t>(stream.data() + pos, kFleetBatch), kTopK);
          answered.fetch_add(kFleetBatch, std::memory_order_relaxed);
        }
      });
    }

    const auto window_qps = [&answered](double seconds) {
      const std::uint64_t start = answered.load();
      util::Stopwatch w;
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long>(seconds * 1e6)));
      return static_cast<double>(answered.load() - start) / w.seconds();
    };

    const auto ckpt_dir =
        std::filesystem::temp_directory_path() / "cumf_serve_bench_ckpt";
    std::filesystem::create_directories(ckpt_dir);

    std::printf("\n  refresh under load (%d query threads, batch %d):\n",
                kLiveThreads, kFleetBatch);
    std::printf("  %-4s %11s %11s %13s %13s %13s\n", "gen", "load(ms)",
                "pause(ms)", "qps_before", "qps_during", "qps_after");
    for (int s = 1; s <= kSwaps; ++s) {
      const auto x_new = random_factors(kUsers, kF, 500 + static_cast<std::uint64_t>(s));
      const auto t_new = random_factors(kItems, kF, 600 + static_cast<std::uint64_t>(s));
      {
        core::CheckpointManager manager(ckpt_dir.string());
        manager.save_x(x_new, s);
        manager.save_theta(t_new, s);
      }

      const double qps_before = window_qps(0.15);
      // The during window matches the before/after windows and contains the
      // whole refresh (load + shard + swap), so the three qps are comparable.
      const std::uint64_t during0 = answered.load();
      util::Stopwatch during;
      const auto outcome = live.refresh_from_checkpoint(ckpt_dir.string());
      const double refresh_s = during.seconds();
      if (refresh_s < 0.15) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            static_cast<long>((0.15 - refresh_s) * 1e6)));
      }
      const double qps_during =
          static_cast<double>(answered.load() - during0) / during.seconds();
      const double qps_after = window_qps(0.15);
      if (!outcome.swapped) {
        std::fprintf(stderr, "FATAL: refresh failed: %s\n",
                     outcome.error.c_str());
        stop.store(true);
        for (auto& t : workers) t.join();
        std::filesystem::remove_all(ckpt_dir);
        return 1;
      }

      std::printf("  %-4llu %11.2f %11.4f %13.0f %13.0f %13.0f\n",
                  static_cast<unsigned long long>(outcome.generation),
                  outcome.load_ms, outcome.swap_pause_ms, qps_before,
                  qps_during, qps_after);
      csv.row("refresh", "cpu", "host", 2, kFleetBatch, kQueries, 0.0, 0.0,
              0.0, 0.0, 0.0, 0, 0, 0.0, 0.0, 0, 0, 0, outcome.generation,
              outcome.swap_pause_ms, qps_before, qps_during, qps_after);
    }
    stop.store(true);
    for (auto& t : workers) t.join();
    std::filesystem::remove_all(ckpt_dir);

    const auto pause = live.swap_pause_summary();
    std::printf("  %llu swaps, swap-pause p99 %.4f ms, max %.4f ms — queries "
                "never block on a swap (generation pinning)\n",
                static_cast<unsigned long long>(live.refreshes()),
                pause.p99_ms, pause.max_ms);
  }

  // ---- fleet sizing: how many GPUs, at what $/hr, for the target load ----
  std::printf("\n  fleet plan for %.0f qps at p99 <= %.1f ms:\n",
              req.target_qps, req.p99_ms);
  std::printf("  %-8s %11s %8s %11s %10s %13s\n", "device", "qps/device",
              "devices", "p99(ms)", "$/hr", "qps/$-hr");
  for (const auto& run : device_runs) {
    const auto plan = costmodel::plan_serving_fleet(
        req, run.device.spec, run.device.pricing.price_per_device_hr, run.profile);
    std::printf("  %-8s %11.0f %8d %11.2f %10.2f %13.0f%s\n",
                plan.device.c_str(), plan.device_qps, plan.devices,
                plan.modeled_p99_ms, plan.dollars_per_hr,
                plan.qps_per_dollar_hr, plan.feasible ? "" : "  (INFEASIBLE)");
    csv.row("fleet", "gpusim", plan.device, 2, kFleetBatch, kQueries, 0.0,
            plan.device_qps, plan.modeled_p99_ms, 0.0, 0.0, plan.devices,
            plan.nodes, plan.dollars_per_hr, plan.qps_per_dollar_hr, 0, 0, 0,
            0, 0.0, 0.0, 0.0, 0.0);
  }

  // ---- 2×cheap vs 1×big: the CuMF_SGD cost question, answered ------------
  // Price the same target on single big-device nodes vs dual cheap-device
  // nodes (gather cost included) and let dollars decide.
  {
    const auto& big = device_runs[0];    // titan_x
    const auto& cheap = device_runs[1];  // gk210
    const auto big_plan = costmodel::plan_serving_fleet(
        req, big.device.spec, big.device.pricing.price_per_device_hr,
        big.profile);
    costmodel::MultiDeviceNode node;
    node.spec = cheap.device.spec;
    node.price_per_device_hr = cheap.device.pricing.price_per_device_hr;
    node.devices = 2;
    const auto cheap_plan =
        costmodel::plan_multi_device_fleet(req, node, cheap.profile, kTopK);
    const bool cheap_wins =
        cheap_plan.feasible &&
        (!big_plan.feasible ||
         cheap_plan.dollars_per_hr < big_plan.dollars_per_hr);
    std::printf("\n  2xcheap vs 1xbig for %.0f qps: %s at $%.2f/hr vs %s at "
                "$%.2f/hr -> %s\n",
                req.target_qps, cheap_plan.device.c_str(),
                cheap_plan.dollars_per_hr, big_plan.device.c_str(),
                big_plan.dollars_per_hr,
                cheap_wins ? cheap_plan.device.c_str()
                           : big_plan.device.c_str());
    csv.row("fleet", "gpusim", cheap_plan.device, 2, kFleetBatch, kQueries,
            0.0, cheap_plan.device_qps, cheap_plan.modeled_p99_ms, 0.0,
            cheap_plan.interconnect_ms, cheap_plan.devices, cheap_plan.nodes,
            cheap_plan.dollars_per_hr, cheap_plan.qps_per_dollar_hr, 0, 0, 0,
            0, 0.0, 0.0, 0.0, 0.0);
  }

  // ---- informational perf race (never gates: shared runners flake) -------
  const bool batching_wins = qps_batched_best > qps_batch1;
  std::printf("\n  micro-batched best %.0f qps vs batch-1 best %.0f qps: %s\n",
              qps_batched_best, qps_batch1,
              batching_wins ? "batching wins" : "regression");
  if (!batching_wins) {
    std::printf("  WARNING: batching did not beat batch-1 on this run; this "
                "is a relative perf race on a shared machine, not a "
                "correctness failure (exactness is gated in serve_test).\n");
  }
  return 0;
}
