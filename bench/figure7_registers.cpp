// Figure 7: convergence speed of cuMF with and without aggressively using
// registers to aggregate A_u (the Listing-1 optimization).
//
// Paper's findings on one GPU: Netflix converges 2.5× as slow without
// registers (75 s vs 30 s to RMSE 0.92); YahooMusic 1.7× as slow — smaller
// because YahooMusic is sparser, so get_hermitian is a smaller share of the
// runtime. "Among all optimizations done in MO-ALS, using registers for A_u
// brings the greatest performance gain."
//
// The claim is about GPU memory traffic, so it is reproduced on the modeled
// clock: both runs execute the same host kernel and train identical factors,
// and only the simulated traffic differs.

#include <cstdio>

#include "bench_common.hpp"
#include "core/solver.hpp"
#include "data/datasets.hpp"
#include "gpusim/device_group.hpp"

namespace {

using namespace cumf;

void run_dataset(const data::DatasetSpec& full, double scale, int f,
                 int iters, double paper_slowdown, util::CsvWriter& csv) {
  const auto ds = data::make_sim_dataset(full, scale, 2016, 0.1, f);
  std::printf("\n--- %s (m=%lld n=%lld nz=%lld f=%d) ---\n",
              full.name.c_str(), static_cast<long long>(ds.spec.m),
              static_cast<long long>(ds.spec.n),
              static_cast<long long>(ds.train_csr.nnz()), f);

  eval::ConvergenceHistory runs[2];
  for (const bool use_registers : {true, false}) {
    const auto topo = gpusim::PcieTopology::flat(1);
    gpusim::DeviceGroup gpu(1, gpusim::titan_x(), topo);
    core::SolverConfig cfg;
    cfg.als.f = f;
    cfg.als.lambda = static_cast<real_t>(full.lambda);
    cfg.als.kernel.use_registers = use_registers;
    core::AlsSolver solver(gpu.pointers(), topo, ds.train_csr,
                           ds.train_rt_csr, cfg);
    auto hist = solver.train(iters, &ds.train, &ds.test,
                             use_registers ? "with-registers"
                                           : "without-registers");
    bench::print_history(hist);
    for (const auto& pt : hist.points) {
      csv.row(full.name, hist.label, pt.iteration, pt.wall_seconds,
              pt.modeled_seconds, pt.train_rmse, pt.test_rmse);
    }
    runs[use_registers ? 0 : 1] = std::move(hist);
  }

  const double t_with = runs[0].modeled_time_to_rmse(ds.target_rmse);
  const double t_without = runs[1].modeled_time_to_rmse(ds.target_rmse);
  if (t_with > 0 && t_without > 0) {
    std::printf(
        "  modeled time to RMSE %.3f: with %.4gs, without %.4gs -> %.2fx "
        "slower without (paper: %.1fx)\n",
        ds.target_rmse, t_with, t_without, t_without / t_with,
        paper_slowdown);
  }
}

}  // namespace

int main() {
  bench::print_header("Figure 7", "benefit of aggressively using registers");
  util::CsvWriter csv(bench::results_dir() + "/figure7_registers.csv",
                      {"dataset", "config", "iteration", "wall_s", "modeled_s",
                       "train_rmse", "test_rmse"});
  run_dataset(data::netflix(), 0.015, 24, 4, 2.5, csv);
  run_dataset(data::yahoomusic(), 0.003, 24, 4, 1.7, csv);
  return 0;
}
