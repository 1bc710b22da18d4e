#pragma once

// The two compute phases of ALS update-X (and, symmetrically, update-Θ):
//
//   get_hermitian — for every row u of a CSR block, form
//       A_u = Σ_{r_uv≠0} (θ_v·θ_vᵀ + λI)   and   B_u = Θᵀ·R_{u*}ᵀ
//     (eq. 2). The λ term uses the block-local nonzero count, so partial
//     A_u's computed from column partitions sum to the globally correct
//     weighted-λ Hermitian after reduction (eq. 5).
//
//   batch_solve — solve A_u·x_u = B_u for every u via in-place Cholesky.
//
// The host runs one kernel: Algorithm 2 with every optimization on (θ
// columns staged kHostBin at a time, register-tile accumulation, one flush
// of A_u per row). KernelOptions does not change the host arithmetic, so
// every option set yields bit-identical A/B. It only selects the simulated
// traffic that hermitian_kernel_stats charges per launch: the Fig. 7/8
// ablations (Algorithm 1 vs 2, registers, texture) are claims about GPU
// memory traffic and are reproduced on the modeled clock alone.

#include <algorithm>
#include <cstddef>

#include "core/als_options.hpp"
#include "gpusim/counters.hpp"
#include "gpusim/device.hpp"
#include "linalg/hermitian.hpp"
#include "sparse/csr.hpp"
#include "util/types.hpp"

namespace cumf::core {

/// Width of the "shared memory" bin the host kernels stage θ columns
/// through (Alg. 2 lines 5-10). rank1_accumulate_registers sums each bin in
/// its own tiles, so this width fixes the float summation order that trained
/// factors are pinned to; KernelOptions::bin is a modeled-axis knob only.
inline constexpr int kHostBin = 20;

/// Alg. 2 lines 5-10 over one row's `n` nonzeros: stage(slot, k) writes the
/// staged column of the row's k-th nonzero into `slot` (f floats, folding it
/// into B_u on the way), and every bin of up to kHostBin slots is contracted
/// into the f×f accumulator `a`. `bin_buf` holds kHostBin·f floats.
template <class Stage>
void stage_and_contract(real_t* a, real_t* bin_buf, std::size_t n, int f,
                        Stage&& stage) {
  for (std::size_t k = 0; k < n; k += kHostBin) {
    const std::size_t cnt = std::min<std::size_t>(kHostBin, n - k);
    for (std::size_t c = 0; c < cnt; ++c) {
      stage(bin_buf + c * static_cast<std::size_t>(f), k + c);
    }
    linalg::rank1_accumulate_registers(a, bin_buf, static_cast<int>(cnt), f);
  }
}

/// Analytic traffic of get_hermitian over `nz` nonzeros and `rows` rows at
/// dimension f (Table 3's cost model turned into bytes/flops). `cols` is the
/// fixed factor's extent: the average per-column reuse nz/cols sets the
/// texture-cache quality (sparser catalogs benefit less, §5.3); cols = 0
/// assumes perfect reuse.
gpusim::KernelStats hermitian_kernel_stats(nnz_t nz, idx_t rows, int f,
                                           const KernelOptions& opt,
                                           idx_t cols = 0);

/// Analytic traffic of batch_solve over `rows` systems of size f.
gpusim::KernelStats solve_kernel_stats(idx_t rows, int f);

/// Computes A/B for rows [row_begin, row_end) of `R` (a CSR whose column
/// indices address `theta` — θ_v is the f contiguous floats at theta+v*f).
/// A has (row_end-row_begin)·f² entries, B (row_end-row_begin)·f.
/// With accumulate=true the contribution is added to the existing A/B
/// contents instead of overwriting them — this is how the elastic sequential
/// waves of §4.4 fold several logical Θ-partitions through one physical
/// device. Accounts one kernel launch on `dev`.
void get_hermitian_block(gpusim::Device& dev, const sparse::CsrMatrix& R,
                         idx_t row_begin, idx_t row_end, const real_t* theta,
                         int f, real_t lambda, const KernelOptions& opt,
                         real_t* A, real_t* B, bool accumulate = false);

/// Solves the `count` systems produced by get_hermitian_block, writing
/// x_u into x_out (count·f, row-major). A and B are clobbered (in-place
/// solve, §2.2). Returns the number of systems that needed pivot clamping
/// (rows with no ratings produce the zero solution and are not counted).
int batch_solve_block(gpusim::Device& dev, real_t* A, real_t* B, idx_t count,
                      int f, real_t* x_out);

/// Analytic traffic of the CG batch solver at `avg_iters` steps per system.
gpusim::KernelStats solve_cg_kernel_stats(idx_t rows, int f, double avg_iters);

/// CG variant of batch_solve: x_inout provides the warm start (the previous
/// ALS iterate) and receives the solution; A and B are read-only. Returns
/// the total CG iterations taken across all systems.
std::int64_t batch_solve_block_cg(gpusim::Device& dev, const real_t* A,
                                  const real_t* B, idx_t count, int f,
                                  real_t* x_inout, int max_iters,
                                  double tolerance);

}  // namespace cumf::core
