#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/kernels.hpp"
#include "core/reduction.hpp"
#include "eval/metrics.hpp"
#include "gpusim/device_group.hpp"
#include "obs/trace.hpp"

namespace cumf::bench {

namespace {

constexpr int kServeShards = 4;

serve::TopKOptions engine_options(const sparse::CsrMatrix* exclude) {
  serve::TopKOptions opt;
  opt.exclude_rated = exclude;
  return opt;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One reduce_across_devices call on p=4 buffers of `units`×f² ones, the
/// shape of update-Θ's partial Hermitians; checks the reduced slices.
/// Returns the median wall seconds and sets *bytes.
double probe_reduce(idx_t units, int f, double* bytes, Report& rep) {
  constexpr int kParts = 4;
  constexpr int kRepeats = 5;
  const auto topo = gpusim::PcieTopology::two_socket(kParts);
  gpusim::DeviceGroup gpus(kParts, gpusim::gk210(), topo);
  const std::size_t len = static_cast<std::size_t>(units) * f * f;
  std::vector<std::vector<real_t>> bufs(kParts);
  std::vector<real_t*> ptrs;
  for (auto& b : bufs) {
    b.resize(len);
    ptrs.push_back(b.data());
  }
  Samples wall;
  for (int r = 0; r < kRepeats; ++r) {
    for (auto& b : bufs) std::fill(b.begin(), b.end(), 1.0f);
    obs::TraceSpan span(obs::TraceCollector::global(), "bench.reduce");
    const auto t0 = Clock::now();
    const core::ReduceResult res =
        core::reduce_across_devices(gpus.pointers(), topo, ptrs, units, f * f,
                                    core::ReduceScheme::TwoPhase);
    wall.add(seconds_since(t0));
    *bytes = static_cast<double>(res.bytes_moved);
    for (int d = 0; d < kParts; ++d) {
      const sparse::Range owned = res.owned[static_cast<std::size_t>(d)];
      const auto& b = bufs[static_cast<std::size_t>(d)];
      const bool summed = std::all_of(
          b.begin() + static_cast<std::ptrdiff_t>(owned.begin) * f * f,
          b.begin() + static_cast<std::ptrdiff_t>(owned.end) * f * f,
          [](real_t v) { return v == static_cast<real_t>(kParts); });
      if (!summed) rep.fail("reduce probe: wrong reduced slice");
    }
  }
  rep.attempted(kRepeats);
  return wall.median();
}

}  // namespace

ServingStack::ServingStack(const linalg::FactorMatrix& x,
                           const linalg::FactorMatrix& theta,
                           const sparse::CsrMatrix* exclude,
                           serve::BatcherOptions bopt,
                           serve::net::ServerOptions sopt)
    : live(serve::FactorStore(x, theta, kServeShards)),
      engine(live, engine_options(exclude)),
      batcher(engine, bopt),
      server(batcher, std::move(sopt)) {}

double transfer_bytes(const std::vector<gpusim::Device*>& devices) {
  double bytes = 0.0;
  for (const gpusim::Device* d : devices) {
    const gpusim::DeviceCounters& c = d->counters();
    bytes += static_cast<double>(c.h2d_bytes + c.d2h_bytes + c.d2d_bytes);
  }
  return bytes;
}

void probe_core(const TrainedModel& model, const TrainingProfile& training,
                Report& rep) {
  constexpr int kReplays = 3;
  const int f = model.als.f;
  gpusim::Device dev(0, gpusim::titan_x());
  auto& trace = obs::TraceCollector::global();
  double hermitian_s = 0.0, solve_s = 0.0;
  // One update side: every row of R solved against the fixed factor, in the
  // solver's wave size.
  auto replay = [&](const sparse::CsrMatrix& R,
                    const linalg::FactorMatrix& fixed) {
    const idx_t wave =
        std::max<idx_t>(1, std::min(R.rows, model.als.solve_batch));
    std::vector<real_t> A(static_cast<std::size_t>(wave) * f * f);
    std::vector<real_t> B(static_cast<std::size_t>(wave) * f);
    std::vector<real_t> out(static_cast<std::size_t>(R.rows) * f);
    for (idx_t b = 0; b < R.rows; b += wave) {
      const idx_t e = std::min<idx_t>(R.rows, b + wave);
      {
        obs::TraceSpan span(trace, "bench.hermitian");
        const auto t0 = Clock::now();
        core::get_hermitian_block(dev, R, b, e, fixed.data().data(), f,
                                  model.als.lambda, model.als.kernel, A.data(),
                                  B.data());
        hermitian_s += seconds_since(t0);
      }
      obs::TraceSpan span(trace, "bench.solve");
      const auto t0 = Clock::now();
      core::batch_solve_block(dev, A.data(), B.data(), e - b, f,
                              out.data() + static_cast<std::size_t>(b) * f);
      solve_s += seconds_since(t0);
    }
    if (!std::all_of(out.begin(), out.end(),
                     [](real_t v) { return std::isfinite(v); })) {
      rep.fail("core probe: non-finite solution");
    }
  };
  // The median of a few replays of one iteration, each update-X then
  // update-Θ.
  Samples hermitian_runs, solve_runs;
  for (int r = 0; r < kReplays; ++r) {
    hermitian_s = solve_s = 0.0;
    replay(model.R, model.theta);
    replay(model.Rt, model.x);
    hermitian_runs.add(hermitian_s);
    solve_runs.add(solve_s);
  }
  rep.attempted(2 * kReplays);
  hermitian_s = hermitian_runs.median();
  solve_s = solve_runs.median();
  rep.note("core probe: get_hermitian " +
           std::to_string(hermitian_runs.quantile(0.0)) + ".." +
           std::to_string(hermitian_runs.quantile(1.0)) + " s, batch_solve " +
           std::to_string(solve_runs.quantile(0.0)) + ".." +
           std::to_string(solve_runs.quantile(1.0)) + " s over " +
           std::to_string(kReplays) + " replays; iterations " +
           std::to_string(training.iteration_s.quantile(0.0)) + ".." +
           std::to_string(training.iteration_s.quantile(1.0)) + " s");
  double flops = 0.0, bytes = 0.0;  // computed, not measured
  for (const sparse::CsrMatrix* R : {&model.R, &model.Rt}) {
    const gpusim::KernelStats ks = core::hermitian_kernel_stats(
        R->nnz(), R->rows, f, model.als.kernel, R->cols);
    flops += ks.flops;
    bytes += static_cast<double>(ks.global_read + ks.global_write +
                                 ks.gathered_read);
  }

  const int iterations = std::max(1, training.iterations);
  const core::PhaseProfile& p = training.profile;
  rep.metric("core.get_hermitian.wall_s", hermitian_s, "s");
  rep.metric("core.get_hermitian.modeled_s", p.get_hermitian / iterations,
             "s");
  rep.metric("core.get_hermitian.gflops", ratio(flops, hermitian_s) / 1e9,
             "GFLOP/s");
  rep.metric("core.get_hermitian.bytes", bytes, "bytes");
  rep.metric("core.batch_solve.wall_s", solve_s, "s");
  rep.metric("core.batch_solve.modeled_s", p.batch_solve / iterations, "s");

  double reduce_s = 0.0, reduce_bytes = 0.0;
  if (training.reduces) {
    reduce_s = probe_reduce(model.theta.rows(), f, &reduce_bytes, rep);
  }
  rep.metric("core.reduce.wall_s", reduce_s, "s");
  rep.metric("core.reduce.modeled_s", p.reduce / iterations, "s");
  rep.metric("core.reduce.bytes", reduce_bytes, "bytes");
  rep.metric("core.transfer.modeled_s", p.transfer / iterations, "s");
  rep.metric("gpusim.transfer.bytes", training.transfer_bytes / iterations,
             "bytes");

  const double iteration_s = training.iteration_s.median();
  rep.timing("core.iteration.wall_s", iteration_s, "s",
             training.iteration_s.size());
  rep.metric("core.iteration.unattributed_s",
             iteration_s - hermitian_s - solve_s - reduce_s, "s");

  Samples eval_s;
  for (int r = 0; r < 3; ++r) {
    obs::TraceSpan span(trace, "bench.eval");
    const auto t0 = Clock::now();
    (void)eval::rmse(model.test, model.x, model.theta);
    eval_s.add(seconds_since(t0));
  }
  rep.metric("eval.rmse.wall_s", eval_s.median(), "s");
}

void probe_serving(ServingStack& stack, double rate, int read_conns,
                   const Traffic& traffic, util::Rng& rng, Report& rep) {
  auto& trace = obs::TraceCollector::global();
  const int k = stack.batcher.options().k;
  const auto f = static_cast<double>(stack.live.pin().store->f());

  // Engine at its saturation batch shape (max_batch users per call).
  Samples batch_ms;
  double busy_s = 0.0, users = 0.0;
  const std::uint64_t scored0 = stack.engine.items_scored();
  const std::uint64_t pruned0 = stack.engine.items_pruned();
  std::vector<idx_t> block(stack.batcher.options().max_batch);
  const auto engine_end = Clock::now() + std::chrono::milliseconds(600);
  while (Clock::now() < engine_end || batch_ms.size() < 8) {
    for (auto& u : block) u = traffic.user(rng);
    obs::TraceSpan span(trace, "bench.engine");
    const auto t0 = Clock::now();
    const serve::RecommendBatch batch = stack.engine.recommend_batch(block, k);
    const double ms = ms_between(t0, Clock::now());
    batch_ms.add(ms);
    busy_s += ms / 1e3;
    users += static_cast<double>(block.size());
    for (const auto& list : batch.lists) {
      if (list.size() != static_cast<std::size_t>(k)) {
        rep.fail("engine probe: short top-k list");
      }
    }
  }
  rep.attempted(batch_ms.size());
  const auto scored =
      static_cast<double>(stack.engine.items_scored() - scored0);
  const auto pruned =
      static_cast<double>(stack.engine.items_pruned() - pruned0);
  rep.timing("serve.engine.batch_ms.p50", batch_ms.median(), "ms",
             batch_ms.size());
  rep.metric("serve.engine.users_per_s", ratio(users, busy_s), "1/s");
  rep.metric("serve.engine.macs_per_s", ratio(scored * f, busy_s), "1/s");
  rep.metric("serve.engine.prune_ratio", ratio(pruned, scored + pruned),
             "ratio");

  // The same stream one user per call: the engine's share of a read at the
  // workload's (low) rate, where micro-batches hold about one user.
  Samples single_ms;
  const auto single_end = Clock::now() + std::chrono::milliseconds(400);
  while (Clock::now() < single_end || single_ms.size() < 20) {
    const idx_t user = traffic.user(rng);
    obs::TraceSpan span(trace, "bench.engine");
    const auto t0 = Clock::now();
    (void)stack.engine.recommend_batch(std::span<const idx_t>(&user, 1), k);
    single_ms.add(ms_between(t0, Clock::now()));
  }
  rep.attempted(single_ms.size());

  constexpr double kReplaySeconds = 1.5;
  const serve::ServeStats before = stack.batcher.stats();
  LoadResult inproc;
  {
    obs::TraceSpan span(trace, "bench.probe.inproc");
    inproc = run_inprocess_open_loop(stack.batcher, rate, kReplaySeconds, k,
                                     traffic, rng);
  }
  const serve::ServeStats after = stack.batcher.stats();
  inproc.tally(rep, "in-process probe");
  OpenLoopSpec spec;
  spec.read_rate = rate;
  spec.read_conns = read_conns;
  spec.seconds = kReplaySeconds;
  spec.k = k;
  LoadResult wire;
  {
    obs::TraceSpan span(trace, "bench.probe.wire");
    wire = run_open_loop(stack.server.port(), spec, traffic, rng);
  }
  wire.tally(rep, "wire probe");

  // Self times telescope: engine + batcher + net = the wire p50.
  const double engine_p50 = single_ms.median();
  const double inproc_p50 = inproc.read_ms.median();
  const double wire_p50 = wire.read_ms.median();
  rep.timing("serve.engine.self_ms.p50", engine_p50, "ms", single_ms.size());
  rep.timing("serve.batcher.self_ms.p50", inproc_p50 - engine_p50, "ms",
             inproc.read_ms.size());
  rep.timing("serve.net.self_ms.p50", wire_p50 - inproc_p50, "ms",
             wire.read_ms.size());
  rep.note("probe at " + std::to_string(static_cast<int>(rate)) +
           " reads/s: wire p50 " +
           std::to_string(wire_p50) + " ms = engine " +
           std::to_string(engine_p50) + " + batcher " +
           std::to_string(inproc_p50 - engine_p50) + " + net " +
           std::to_string(wire_p50 - inproc_p50) +
           "; generator late p99 in-process " +
           std::to_string(inproc.late_ms.quantile(0.99)) + " ms, wire " +
           std::to_string(wire.late_ms.quantile(0.99)) + " ms");
  const auto queries = static_cast<double>(after.queries - before.queries);
  const auto hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const auto batches = static_cast<double>(after.batches - before.batches);
  rep.metric("serve.batcher.batch_size.mean", ratio(queries - hits, batches),
             "count");
  rep.metric("serve.cache.hit_ratio", ratio(hits, queries), "ratio");
}

void report_no_core(Report& rep) {
  report_unused(rep, {{"core.get_hermitian.wall_s", "s"},
                      {"core.get_hermitian.modeled_s", "s"},
                      {"core.get_hermitian.gflops", "GFLOP/s"},
                      {"core.get_hermitian.bytes", "bytes"},
                      {"core.batch_solve.wall_s", "s"},
                      {"core.batch_solve.modeled_s", "s"},
                      {"core.reduce.wall_s", "s"},
                      {"core.reduce.modeled_s", "s"},
                      {"core.reduce.bytes", "bytes"},
                      {"core.transfer.modeled_s", "s"},
                      {"gpusim.transfer.bytes", "bytes"},
                      {"core.iteration.wall_s", "s"},
                      {"core.iteration.unattributed_s", "s"},
                      {"eval.rmse.wall_s", "s"}});
}

void report_no_serving(Report& rep) {
  report_unused(rep, {{"serve.engine.batch_ms.p50", "ms"},
                      {"serve.engine.users_per_s", "1/s"},
                      {"serve.engine.macs_per_s", "1/s"},
                      {"serve.engine.prune_ratio", "ratio"},
                      {"serve.engine.self_ms.p50", "ms"},
                      {"serve.batcher.self_ms.p50", "ms"},
                      {"serve.batcher.batch_size.mean", "count"},
                      {"serve.cache.hit_ratio", "ratio"},
                      {"serve.net.self_ms.p50", "ms"},
                      {"serve.live_store.swap_pause_ms.max", "ms"},
                      {"gen.late_ms.p99", "ms"},
                      {"tail.read_p99_ms", "ms"},
                      {"tail.read_p999_ms", "ms"}});
}

void report_no_orchestrator(Report& rep) {
  report_unused(rep, {{"orch.cycles", "count"},
                      {"orch.promotions", "count"},
                      {"orch.rejections", "count"},
                      {"orch.escalations", "count"},
                      {"orch.train_ms.incremental.p50", "ms"},
                      {"orch.train_ms.full.p50", "ms"}});
}

}  // namespace cumf::bench
