#include "baselines/fpsgd.hpp"

#include <cmath>
#include <condition_variable>
#include <mutex>
#include <vector>

#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace cumf::baselines {

FpsgdSgd::FpsgdSgd(const sparse::CsrMatrix& train, SgdOptions opt)
    : train_(train), opt_(opt),
      grid_(sparse::grid_partition(train, opt.threads + 1, opt.threads + 1)),
      x_(train.rows, opt.f), theta_(train.cols, opt.f), lr_(opt.lr) {
  util::Rng rng(opt_.seed);
  const real_t scale = opt_.effective_init_scale();
  x_.randomize(rng, scale);
  theta_.randomize(rng, scale);
}

void FpsgdSgd::process_block(const sparse::GridBlock& blk, real_t lr) {
  const int f = opt_.f;
  for (idx_t lr_row = 0; lr_row < blk.local.rows; ++lr_row) {
    const idx_t u = blk.row_range.begin + lr_row;
    const auto cols = blk.local.row_cols(lr_row);
    const auto vals = blk.local.row_vals(lr_row);
    real_t* xu = x_.row(u);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const idx_t v = blk.col_range.begin + cols[k];
      sgd_update(xu, theta_.row(v), vals[k], lr, opt_.lambda, f);
    }
  }
}

void FpsgdSgd::run_epoch() {
  const int g = grid_.p;  // (threads+1) × (threads+1) grid
  const auto total_blocks = static_cast<std::size_t>(g) * static_cast<std::size_t>(g);

  // The libMF scheduler: a worker takes any unprocessed block whose row and
  // column stripes are free; conflict-freedom makes the inner loop lock-free.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<char> done(total_blocks, 0);
  std::vector<char> row_busy(static_cast<std::size_t>(g), 0);
  std::vector<char> col_busy(static_cast<std::size_t>(g), 0);
  std::size_t remaining = total_blocks;
  const real_t lr = lr_;

  auto worker = [&] {
    std::unique_lock lock(mu);
    for (;;) {
      if (remaining == 0) return;
      int pick_i = -1, pick_j = -1;
      for (int i = 0; i < g && pick_i < 0; ++i) {
        if (col_busy[static_cast<std::size_t>(i)]) continue;
        for (int j = 0; j < g; ++j) {
          if (row_busy[static_cast<std::size_t>(j)]) continue;
          if (!done[static_cast<std::size_t>(i) * g + j]) {
            pick_i = i;
            pick_j = j;
            break;
          }
        }
      }
      if (pick_i < 0) {
        cv.wait(lock);
        continue;
      }
      done[static_cast<std::size_t>(pick_i) * g + pick_j] = 1;
      col_busy[static_cast<std::size_t>(pick_i)] = 1;
      row_busy[static_cast<std::size_t>(pick_j)] = 1;
      --remaining;
      lock.unlock();
      process_block(grid_.block(pick_i, pick_j), lr);
      lock.lock();
      col_busy[static_cast<std::size_t>(pick_i)] = 0;
      row_busy[static_cast<std::size_t>(pick_j)] = 0;
      cv.notify_all();
    }
  };

  // One worker per chunk; the caller runs chunks too, so progress never stalls.
  util::parallel_for_chunks(util::ThreadPool::global(), 0, opt_.threads,
                            [&](nnz_t, nnz_t) { worker(); });

  samples_ += static_cast<double>(train_.nnz());
  lr_ *= opt_.lr_decay;
  ++epochs_run_;
}

BaselineRun FpsgdSgd::train(const sparse::CooMatrix* train_eval,
                            const sparse::CooMatrix* test_eval,
                            const std::string& label) {
  BaselineRun run;
  run.history.label = label;
  auto snapshot = [&](int epoch, double wall) {
    eval::ConvergencePoint pt;
    pt.iteration = epoch;
    pt.wall_seconds = wall;
    pt.train_rmse = train_eval ? eval::rmse(*train_eval, x_, theta_) : 0.0;
    pt.test_rmse = test_eval ? eval::rmse(*test_eval, x_, theta_) : 0.0;
    run.history.add(pt);
  };
  snapshot(0, 0.0);
  double wall = 0.0;
  for (int e = 1; e <= opt_.epochs; ++e) {
    util::Stopwatch sw;
    run_epoch();
    wall += sw.seconds();
    snapshot(e, wall);
  }
  run.samples_processed = samples_;
  return run;
}

}  // namespace cumf::baselines
