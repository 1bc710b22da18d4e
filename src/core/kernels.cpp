#include "core/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <vector>

#include "linalg/cg.hpp"
#include "linalg/cholesky.hpp"
#include "util/thread_pool.hpp"

namespace cumf::core {

namespace {
constexpr bytes_t kReal = sizeof(real_t);

bool is_base_path(const KernelOptions& opt) {
  return opt.bin <= 1 && !opt.use_registers;
}
}  // namespace

gpusim::KernelStats hermitian_kernel_stats(nnz_t nz, idx_t rows, int f,
                                           const KernelOptions& opt,
                                           idx_t cols) {
  gpusim::KernelStats s;
  const double dnz = static_cast<double>(nz);
  const double df = static_cast<double>(f);
  // Table 3: A costs Nz·f(f+1)/2 multiplies (+ as many adds); B costs
  // Nz + Nz·f (+ per-row tail, folded into the rows term).
  s.flops = dnz * df * (df + 1.0) + 2.0 * dnz * df +
            static_cast<double>(rows) * df;
  // CSR traversal: values + column indices, plus row pointers.
  s.global_read = static_cast<bytes_t>(nz) * (kReal + sizeof(idx_t)) +
                  static_cast<bytes_t>(rows) * sizeof(nnz_t);
  // B is written once per row.
  s.global_write = static_cast<bytes_t>(rows) * f * kReal;

  const bytes_t theta_bytes = static_cast<bytes_t>(nz) * f * kReal;
  const bytes_t product_bytes = static_cast<bytes_t>(nz) * f * f * kReal;
  const bytes_t a_bytes =
      static_cast<bytes_t>(rows) * f * f * kReal;

  s.gathered_via_texture = opt.use_texture;
  if (cols > 0 && nz > 0) {
    const double reuse = static_cast<double>(nz) / cols;
    s.gather_quality = std::clamp(0.5 + 0.07 * std::log(reuse + 1.0), 0.5, 1.0);
  }
  if (is_base_path(opt)) {
    // Algorithm 1: every multiplicand is fetched from (gathered) global
    // memory and every partial product read-modify-writes A_u in global.
    s.gathered_read = product_bytes + theta_bytes;  // A products + B axpy
    s.global_read += product_bytes;                 // A RMW reads
    s.global_write += product_bytes;                // A RMW writes
    return s;
  }

  // Algorithm 2: θ columns staged once into shared memory, products read
  // from shared; register accumulation flushes A once per row.
  s.gathered_read = theta_bytes;
  s.shared_write = theta_bytes;
  if (opt.use_registers) {
    // 4x4 register tiles reuse each staged element across a tile row/col.
    s.shared_read = product_bytes / 2;
    s.global_write += a_bytes;  // single flush per row (Listing 1)
  } else {
    // Without register accumulation every partial product read-modify-
    // writes A_u. A_u is only f²·4 B and stays hot, so those RMWs are
    // served at L1/shared speed rather than DRAM — but unlike the register
    // path they are real traffic: one read + one write per product on top
    // of reading the staged operands.
    s.shared_read = 2 * product_bytes;   // staged operands + A reads
    s.shared_write = theta_bytes + product_bytes;  // staging + A writes
    s.global_write += a_bytes;
  }
  return s;
}

gpusim::KernelStats solve_kernel_stats(idx_t rows, int f) {
  gpusim::KernelStats s;
  const double df = static_cast<double>(f);
  // Cholesky factor ~ f³/3 multiply-adds, two triangular solves ~ f² each.
  s.flops = static_cast<double>(rows) * (2.0 * df * df * df / 3.0 + 2.0 * df * df);
  s.global_read = static_cast<bytes_t>(rows) * (f * f + f) * kReal;
  s.global_write = static_cast<bytes_t>(rows) * f * kReal;
  return s;
}

void get_hermitian_block(gpusim::Device& dev, const sparse::CsrMatrix& R,
                         idx_t row_begin, idx_t row_end, const real_t* theta,
                         int f, real_t lambda, const KernelOptions& opt,
                         real_t* A, real_t* B, bool accumulate) {
  const std::size_t fsq = static_cast<std::size_t>(f) * f;

  util::parallel_for_chunks(
      dev.pool(), row_begin, row_end, [&](nnz_t lo, nnz_t hi) {
        // Per-worker scratch: the "shared memory" bin and the "register"
        // accumulator tile target.
        std::vector<real_t> bin_buf(static_cast<std::size_t>(kHostBin) * f);
        std::vector<real_t> a_acc(fsq);
        std::vector<real_t> b_acc(static_cast<std::size_t>(f));

        for (nnz_t u = lo; u < hi; ++u) {
          const auto local = static_cast<std::size_t>(u - row_begin);
          real_t* a_out = A + local * fsq;
          real_t* b_out = B + local * static_cast<std::size_t>(f);
          std::memset(a_acc.data(), 0, fsq * sizeof(real_t));
          std::memset(b_acc.data(), 0, static_cast<std::size_t>(f) * sizeof(real_t));

          const auto cols = R.row_cols(static_cast<idx_t>(u));
          const auto vals = R.row_vals(static_cast<idx_t>(u));
          stage_and_contract(
              a_acc.data(), bin_buf.data(), cols.size(), f,
              [&](real_t* slot, std::size_t k) {
                std::memcpy(slot, theta + static_cast<std::size_t>(cols[k]) * f,
                            static_cast<std::size_t>(f) * sizeof(real_t));
                linalg::axpy(b_acc.data(), vals[k], slot, f);
              });

          // Weighted-λ: block-local count, so partial Hermitians reduce to
          // the global n_{x_u}·λ·I (eq. 5).
          linalg::add_diagonal(a_acc.data(),
                               lambda * static_cast<real_t>(cols.size()), f);
          // Alg. 2 line 11: one flush from registers to global memory.
          if (accumulate) {
            for (std::size_t e = 0; e < fsq; ++e) a_out[e] += a_acc[e];
            for (int e = 0; e < f; ++e) b_out[e] += b_acc[static_cast<std::size_t>(e)];
          } else {
            std::memcpy(a_out, a_acc.data(), fsq * sizeof(real_t));
            std::memcpy(b_out, b_acc.data(),
                        static_cast<std::size_t>(f) * sizeof(real_t));
          }
        }
      });

  nnz_t nz = R.row_ptr[static_cast<std::size_t>(row_end)] -
             R.row_ptr[static_cast<std::size_t>(row_begin)];
  dev.account_kernel(
      hermitian_kernel_stats(nz, row_end - row_begin, f, opt, R.cols));
}

int batch_solve_block(gpusim::Device& dev, real_t* A, real_t* B, idx_t count,
                      int f, real_t* x_out) {
  const std::size_t fsq = static_cast<std::size_t>(f) * f;
  std::atomic<int> clamped{0};

  util::parallel_for_chunks(dev.pool(), 0, count, [&](nnz_t lo, nnz_t hi) {
    int local_clamped = 0;
    for (nnz_t u = lo; u < hi; ++u) {
      real_t* a = A + static_cast<std::size_t>(u) * fsq;
      real_t* b = B + static_cast<std::size_t>(u) * static_cast<std::size_t>(f);
      // A row with no ratings leaves A_u == 0: by convention x_u = 0.
      bool empty = true;
      for (int i = 0; i < f && empty; ++i) {
        empty = (a[static_cast<std::size_t>(i) * f + i] == real_t{0});
      }
      real_t* x = x_out + static_cast<std::size_t>(u) * static_cast<std::size_t>(f);
      if (empty) {
        std::memset(x, 0, static_cast<std::size_t>(f) * sizeof(real_t));
        continue;
      }
      const linalg::CholeskyResult res = linalg::solve_spd_inplace(a, b, f);
      if (!res.ok) ++local_clamped;
      std::memcpy(x, b, static_cast<std::size_t>(f) * sizeof(real_t));
    }
    clamped.fetch_add(local_clamped);
  });

  dev.account_kernel(solve_kernel_stats(count, f));
  return clamped.load();
}

gpusim::KernelStats solve_cg_kernel_stats(idx_t rows, int f,
                                          double avg_iters) {
  gpusim::KernelStats s;
  const double df = static_cast<double>(f);
  // Each CG step is one symv (2f²) plus a few axpy/dot passes (~6f).
  s.flops = static_cast<double>(rows) * avg_iters * (2.0 * df * df + 6.0 * df);
  // A is re-read from global memory every step.
  s.global_read = static_cast<bytes_t>(
      static_cast<double>(rows) * avg_iters * df * df * sizeof(real_t));
  s.global_write = static_cast<bytes_t>(rows) * f * kReal;
  return s;
}

std::int64_t batch_solve_block_cg(gpusim::Device& dev, const real_t* A,
                                  const real_t* B, idx_t count, int f,
                                  real_t* x_inout, int max_iters,
                                  double tolerance) {
  const std::size_t fsq = static_cast<std::size_t>(f) * f;
  std::atomic<std::int64_t> total_iters{0};
  linalg::CgOptions opt;
  opt.max_iters = max_iters;
  opt.tolerance = tolerance;

  util::parallel_for_chunks(dev.pool(), 0, count, [&](nnz_t lo, nnz_t hi) {
    std::int64_t local = 0;
    for (nnz_t u = lo; u < hi; ++u) {
      const real_t* a = A + static_cast<std::size_t>(u) * fsq;
      const real_t* b = B + static_cast<std::size_t>(u) * static_cast<std::size_t>(f);
      real_t* x = x_inout + static_cast<std::size_t>(u) * static_cast<std::size_t>(f);
      bool empty = true;
      for (int i = 0; i < f && empty; ++i) {
        empty = (a[static_cast<std::size_t>(i) * f + i] == real_t{0});
      }
      if (empty) {
        std::memset(x, 0, static_cast<std::size_t>(f) * sizeof(real_t));
        continue;
      }
      local += linalg::cg_solve(a, b, x, f, opt).iterations;
    }
    total_iters.fetch_add(local);
  });

  const double avg = count > 0 ? static_cast<double>(total_iters.load()) /
                                     static_cast<double>(count)
                               : 0.0;
  dev.account_kernel(solve_cg_kernel_stats(count, f, avg));
  return total_iters.load();
}

}  // namespace cumf::core
