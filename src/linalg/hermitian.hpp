#pragma once

// Hermitian accumulation kernel: the inner loop of get_hermitian_x.
//
// The paper's single biggest optimization (§3.4, Fig. 7) is where the partial
// sum  A_u += θ_v·θ_vᵀ  lives while iterating over a row's rated columns. The
// host keeps it where Algorithm 2 does: a bin of columns is accumulated into
// fixed-size local tiles that the compiler keeps in registers (the CPU
// analogue of the paper's macro-expanded f² register variables, Listing 1),
// and A_u is touched exactly once per bin flush. The Algorithm 1 and
// use_registers=false variants exist only on the modeled axis
// (core::hermitian_kernel_stats).

#include "util/types.hpp"

namespace cumf::linalg {

/// A += Σ_{k<bin} θ_k·θ_kᵀ for `bin` columns stored contiguously
/// (thetas[k*f .. k*f+f)), accumulating in register tiles and writing each
/// A element exactly once. Tile size is fixed at compile time. Each tile
/// sums its bin from zero in column order before adding to A, so results
/// depend on how a caller splits its columns into bins.
void rank1_accumulate_registers(real_t* A, const real_t* thetas, int bin, int f);

/// y += alpha * x over f elements.
inline void axpy(real_t* y, real_t alpha, const real_t* x, int f) {
  for (int i = 0; i < f; ++i) y[i] += alpha * x[i];
}

/// Dot product over f elements (double accumulation).
inline double dot(const real_t* a, const real_t* b, int f) {
  double s = 0.0;
  for (int i = 0; i < f; ++i) s += static_cast<double>(a[i]) * b[i];
  return s;
}

/// Adds lambda to the diagonal of a row-major f×f matrix.
inline void add_diagonal(real_t* A, real_t lambda, int f) {
  for (int i = 0; i < f; ++i) A[static_cast<std::size_t>(i) * f + i] += lambda;
}

}  // namespace cumf::linalg
