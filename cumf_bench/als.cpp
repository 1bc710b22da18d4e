// The two training workloads.
//
// als-netflix is the paper's single-GPU MO-ALS case: one TitanX, Cholesky,
// a Netflix-shaped matrix on which get_hermitian is nearly all of the
// iteration, so a kernel change shows here. als-hugewiki-4gpu is its
// SU-ALS case: four GK210s on a two-socket PCIe tree, update-Θ forced
// data-parallel (p=4, q=2, as in the Figure 10 bench) with the two-phase
// reduction, so transfers and the reduction take a large share of modeled
// time; a reduce or transfer change shows here and not on als-netflix.
//
// A run trains from fresh factors, a fixed number of iterations a job, as
// many whole jobs as fit in its time and at least one; evaluation after
// each iteration is timed on its own and excluded from the training wall.

#include <algorithm>
#include <cmath>
#include <optional>

#include "bench.hpp"
#include "data/datasets.hpp"
#include "data/synthetic.hpp"
#include "gpusim/device_group.hpp"
#include "obs/trace.hpp"
#include "probes.hpp"

namespace cumf::bench {

namespace {

struct AlsWorkload {
  data::DatasetSpec spec;
  double scale = 0.0;
  int f = 0;
  int iterations = 0;   // per training job
  double target = 0.0;  // test RMSE the job must reach
  int devices = 1;
  gpusim::DeviceSpec device;
  bool data_parallel_theta = false;
};

gpusim::PcieTopology topology(const AlsWorkload& w) {
  return w.devices > 1 ? gpusim::PcieTopology::two_socket(w.devices)
                       : gpusim::PcieTopology::flat(1);
}

core::SolverConfig solver_config(const AlsWorkload& w) {
  core::SolverConfig cfg;
  cfg.als.f = w.f;
  cfg.als.lambda = 0.05f;
  if (w.data_parallel_theta) {
    cfg.reduce = core::ReduceScheme::TwoPhase;
    core::Plan plan;
    plan.mode = core::ParallelMode::DataParallel;
    plan.p = 4;
    plan.q = 2;
    cfg.plan_t = plan;
  }
  return cfg;
}

bool all_finite(const linalg::FactorMatrix& m) {
  return std::all_of(m.data().begin(), m.data().end(),
                     [](real_t v) { return std::isfinite(v); });
}

/// What one measured interval of training jobs observed.
struct AlsPhase {
  Samples iteration_ms;
  Samples job_ms;  // all of a job's iterations, evaluation excluded
  Samples time_to_rmse_s;
  double modeled_s = 0.0;  // simulated-GPU clock of one whole job
  double final_rmse = 0.0;
  TrainingProfile training;  // profile of the last job, walls of all
  linalg::FactorMatrix x;    // factors of the last job
  linalg::FactorMatrix theta;
};

/// Trains from fresh factors until `seconds` are used up (at least once),
/// not starting a job that would overrun by more than the last one took.
AlsPhase train_jobs(const AlsWorkload& w, const data::SimDataset& ds,
                    double seconds, Report& rep) {
  auto& trace = obs::TraceCollector::global();
  const auto topo = topology(w);
  const core::SolverConfig cfg = solver_config(w);
  AlsPhase ph;
  const auto start = Clock::now();
  double last_job_s = 0.0;
  do {
    const auto job_start = Clock::now();
    gpusim::DeviceGroup gpus(w.devices, w.device, topo);
    core::AlsSolver solver(gpus.pointers(), topo, ds.train_csr,
                           ds.train_rt_csr, cfg);
    eval::ConvergenceHistory hist;
    hist.add({0, 0.0, 0.0, 0.0,
              eval::rmse(ds.test, solver.x(), solver.theta())});
    double wall_s = 0.0;
    for (int it = 1; it <= w.iterations; ++it) {
      double s = 0.0;
      {
        obs::TraceSpan span(trace, "bench.iteration");
        const auto t0 = Clock::now();
        solver.run_iteration();
        s = seconds_since(t0);
      }
      wall_s += s;
      ph.iteration_ms.add(s * 1e3);
      ph.training.iteration_s.add(s);
      obs::TraceSpan span(trace, "bench.eval");
      const double test = eval::rmse(ds.test, solver.x(), solver.theta());
      hist.add({it, wall_s, solver.modeled_seconds(), 0.0, test});
    }
    rep.attempted(1);
    const double t_rmse = hist.wall_time_to_rmse(w.target);
    ph.final_rmse = hist.points.back().test_rmse;
    if (t_rmse < 0.0 || ph.final_rmse > w.target) {
      rep.fail("training ended at test RMSE " + std::to_string(ph.final_rmse) +
               ", target " + std::to_string(w.target));
    }
    if (!all_finite(solver.x()) || !all_finite(solver.theta())) {
      rep.fail("training produced non-finite factors");
    }
    ph.time_to_rmse_s.add(t_rmse);
    ph.job_ms.add(wall_s * 1e3);
    ph.modeled_s = solver.modeled_seconds();
    ph.training.profile = solver.profile();
    ph.training.modeled_s = solver.modeled_seconds();
    ph.training.transfer_bytes = transfer_bytes(gpus.pointers());
    ph.training.iterations = w.iterations;
    ph.training.reduces = w.data_parallel_theta;
    ph.x = solver.x();
    ph.theta = solver.theta();
    last_job_s = seconds_since(job_start);
  } while (seconds_since(start) + last_job_s <= seconds);
  return ph;
}

void run_als(const AlsWorkload& w, const RunOptions& opt, Report& rep) {
  SetupTimes setup;
  std::optional<data::SimDataset> ds;
  while (setup.more()) {
    ds.reset();
    auto t0 = Clock::now();
    ds.emplace(data::make_sim_dataset(w.spec, w.scale, opt.seed, 0.1, w.f));
    const double data_s = seconds_since(t0);
    t0 = Clock::now();
    {
      // Device group and solver construction: planning, grid partitioning
      // and factor initialization, which every training job repeats.
      const auto topo = topology(w);
      gpusim::DeviceGroup gpus(w.devices, w.device, topo);
      const core::AlsSolver solver(gpus.pointers(), topo, ds->train_csr,
                                   ds->train_rt_csr, solver_config(w));
    }
    setup.add(data_s, 0.0, seconds_since(t0));
  }
  const double nnz = static_cast<double>(ds->train_csr.nnz());
  rep.note("data: m=" + std::to_string(ds->spec.m) +
           " n=" + std::to_string(ds->spec.n) +
           " nnz=" + std::to_string(ds->train_csr.nnz()) +
           " f=" + std::to_string(w.f) + ", " + std::to_string(w.iterations) +
           " iterations a job, target test RMSE " + std::to_string(w.target));

  const double plain_s = opt.traced() ? opt.seconds / 2.0 : opt.seconds;
  const AlsPhase plain = train_jobs(w, *ds, plain_s, rep);
  const double iteration_ms = plain.iteration_ms.median();
  setup.report(rep);
  rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
  rep.timing("latency_p50_ms", iteration_ms, "ms", plain.iteration_ms.size());
  rep.metric("latency_p90_ms", plain.iteration_ms.quantile(0.9), "ms");
  // Each iteration visits every rating twice: update-X and update-Θ.
  rep.metric("throughput_per_s", 2.0 * nnz / (iteration_ms / 1e3), "1/s");
  rep.timing("time_to_model_s", plain.time_to_rmse_s.median(), "s",
             plain.time_to_rmse_s.size());
  rep.metric("time_to_model_p90_s", plain.time_to_rmse_s.quantile(0.9), "s");
  rep.timing("secondary_p90_ms", plain.job_ms.quantile(0.9), "ms",
             plain.job_ms.size());
  rep.metric("modeled_time_to_model_s", plain.modeled_s, "s");
  rep.metric("model_rmse", plain.final_rmse, "rmse");
  if (!opt.traced()) return;

  enable_tracing();
  const AlsPhase traced = train_jobs(w, *ds, opt.seconds / 2.0, rep);
  rep.metric("obs.trace_overhead_pct",
             overhead_pct(iteration_ms, traced.iteration_ms.median()), "%");
  const TrainedModel model{ds->train_csr, ds->train_rt_csr, ds->test,
                           traced.x, traced.theta, solver_config(w).als};
  probe_core(model, traced.training, rep);
  report_no_serving(rep);
  report_no_orchestrator(rep);
  write_trace(opt.trace_dir, rep);
}

}  // namespace

void run_als_netflix(const RunOptions& opt, Report& rep) {
  AlsWorkload w;
  w.spec = data::netflix();
  w.scale = 0.02;
  w.f = 48;
  w.iterations = 6;
  w.target = 0.92;
  w.device = gpusim::titan_x();
  run_als(w, opt, rep);
}

void run_als_hugewiki(const RunOptions& opt, Report& rep) {
  AlsWorkload w;
  w.spec = data::hugewiki();
  w.scale = 0.002;
  w.f = 32;
  w.iterations = 7;
  w.target = 1.00;
  w.devices = 4;
  w.device = gpusim::gk210();
  w.data_parallel_theta = true;
  run_als(w, opt, rep);
}

}  // namespace cumf::bench
