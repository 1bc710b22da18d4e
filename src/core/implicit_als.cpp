#include "core/implicit_als.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <mutex>
#include <vector>

#include "core/kernels.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/hermitian.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace cumf::core {

void gram_kernel(gpusim::Device& dev, const real_t* theta, idx_t n, int f,
                 real_t* G) {
  const std::size_t fsq = static_cast<std::size_t>(f) * f;
  std::memset(G, 0, fsq * sizeof(real_t));
  std::mutex mu;
  util::parallel_for_chunks(dev.pool(), 0, n, [&](nnz_t lo, nnz_t hi) {
    std::vector<real_t> local(fsq, 0.0f);
    linalg::rank1_accumulate_registers(
        local.data(), theta + static_cast<std::size_t>(lo) * f,
        static_cast<int>(hi - lo), f);
    std::lock_guard lock(mu);
    for (std::size_t e = 0; e < fsq; ++e) G[e] += local[e];
  });

  gpusim::KernelStats s;
  s.flops = static_cast<double>(n) * f * f * 2.0;
  s.global_read = static_cast<bytes_t>(n) * f * sizeof(real_t);
  s.global_write = fsq * sizeof(real_t);
  dev.account_kernel(s);
}

void get_hermitian_implicit(gpusim::Device& dev, const sparse::CsrMatrix& R,
                            idx_t row_begin, idx_t row_end,
                            const real_t* theta, const real_t* G, int f,
                            real_t lambda, real_t alpha,
                            const KernelOptions& opt, real_t* A, real_t* B) {
  const std::size_t fsq = static_cast<std::size_t>(f) * f;

  util::parallel_for_chunks(
      dev.pool(), row_begin, row_end, [&](nnz_t lo, nnz_t hi) {
        std::vector<real_t> bin_buf(static_cast<std::size_t>(kHostBin) * f);
        std::vector<real_t> a_acc(fsq);
        std::vector<real_t> b_acc(static_cast<std::size_t>(f));

        for (nnz_t u = lo; u < hi; ++u) {
          const auto local = static_cast<std::size_t>(u - row_begin);
          // Seed with the shared Gram matrix plus plain-λ diagonal.
          std::memcpy(a_acc.data(), G, fsq * sizeof(real_t));
          linalg::add_diagonal(a_acc.data(), lambda, f);
          std::memset(b_acc.data(), 0,
                      static_cast<std::size_t>(f) * sizeof(real_t));

          const auto cols = R.row_cols(static_cast<idx_t>(u));
          const auto vals = R.row_vals(static_cast<idx_t>(u));
          stage_and_contract(
              a_acc.data(), bin_buf.data(), cols.size(), f,
              [&](real_t* slot, std::size_t k) {
                const real_t* tv = theta + static_cast<std::size_t>(cols[k]) * f;
                const real_t w = alpha * vals[k];
                // B wants (1 + w)·θ with the raw column; A wants w·θθᵀ,
                // which the rank-1 kernel gets by staging √w·θ.
                linalg::axpy(b_acc.data(), real_t{1} + w, tv, f);
                const real_t root = std::sqrt(std::max(real_t{0}, w));
                for (int i = 0; i < f; ++i) slot[i] = root * tv[i];
              });
          std::memcpy(A + local * fsq, a_acc.data(), fsq * sizeof(real_t));
          std::memcpy(B + local * static_cast<std::size_t>(f), b_acc.data(),
                      static_cast<std::size_t>(f) * sizeof(real_t));
        }
      });

  const nnz_t nz = R.row_ptr[static_cast<std::size_t>(row_end)] -
                   R.row_ptr[static_cast<std::size_t>(row_begin)];
  auto stats = hermitian_kernel_stats(nz, row_end - row_begin, f, opt, R.cols);
  // Extra traffic vs the explicit kernel: reading G once per row.
  stats.global_read += static_cast<bytes_t>(row_end - row_begin) * fsq *
                       sizeof(real_t);
  dev.account_kernel(stats);
}

ImplicitAlsSolver::ImplicitAlsSolver(gpusim::Device& dev,
                                     const sparse::CsrMatrix& R,
                                     const sparse::CsrMatrix& Rt,
                                     ImplicitAlsOptions opt)
    : dev_(dev), R_(R), Rt_(Rt), opt_(opt), x_(R.rows, opt.f),
      theta_(R.cols, opt.f) {
  if (R.rows != Rt.cols || R.cols != Rt.rows || R.nnz() != Rt.nnz()) {
    throw std::invalid_argument("ImplicitAlsSolver: R/Rt shape mismatch");
  }
  util::Rng rng(opt_.seed);
  const auto scale =
      static_cast<real_t>(1.0 / std::sqrt(static_cast<double>(opt_.f)));
  x_.randomize(rng, scale);
  theta_.randomize(rng, scale);
}

double ImplicitAlsSolver::modeled_seconds() const {
  return dev_.clock_seconds();
}

void ImplicitAlsSolver::update_side(const sparse::CsrMatrix& R,
                                    const linalg::FactorMatrix& fixed,
                                    linalg::FactorMatrix& out) {
  const int f = opt_.f;
  const std::size_t fsq = static_cast<std::size_t>(f) * f;
  std::vector<real_t> G(fsq);
  gram_kernel(dev_, fixed.data().data(), fixed.rows(), f, G.data());

  const idx_t bs = std::max<idx_t>(1, std::min(R.rows, opt_.solve_batch));
  std::vector<real_t> A(static_cast<std::size_t>(bs) * fsq);
  std::vector<real_t> B(static_cast<std::size_t>(bs) * f);
  for (idx_t b = 0; b < R.rows; b += bs) {
    const idx_t e = std::min<idx_t>(R.rows, b + bs);
    get_hermitian_implicit(dev_, R, b, e, fixed.data().data(), G.data(), f,
                           opt_.lambda, opt_.alpha, opt_.kernel, A.data(),
                           B.data());
    batch_solve_block(dev_, A.data(), B.data(), e - b, f, out.row(b));
  }
}

void ImplicitAlsSolver::run_iteration() {
  update_side(R_, theta_, x_);
  update_side(Rt_, x_, theta_);
  ++iterations_run_;
}

}  // namespace cumf::core
