#pragma once

// Configuration for the cuMF ALS solvers.

#include <cstdint>

#include "util/types.hpp"

namespace cumf::core {

/// Modeled memory path of the get_hermitian kernel (Algorithm 2's three
/// optimizations, each independently toggleable for the Fig. 7/8
/// ablations). It selects the simulated traffic charged per launch only:
/// the host arithmetic, and so the trained factors, are the same for every
/// setting. bin <= 1 without registers models Algorithm 1.
struct KernelOptions {
  int bin = 20;               // shared-memory staging width, paper uses 10-30
  bool use_registers = true;  // accumulate A_u in registers (Listing 1)
  bool use_texture = true;    // route θ gathers through texture cache
};

/// Backend for the batch_solve phase. Cholesky is the paper's exact
/// O(f³) in-place solver; ConjugateGradient is the approximate O(k·f²)
/// solver the cuMF line later shipped (als_cg) — warm-started from the
/// previous ALS iterate, it reaches ALS-useful accuracy in a few steps.
enum class SolveBackend { Cholesky, ConjugateGradient };

struct AlsOptions {
  int f = 32;                 // latent dimension (paper: 100)
  real_t lambda = 0.05f;      // weighted-λ regularization strength
  int iterations = 10;        // one iteration = update-X + update-Θ
  KernelOptions kernel;
  idx_t solve_batch = 4096;   // rows per get_hermitian/batch_solve wave
  SolveBackend solve_backend = SolveBackend::Cholesky;
  int cg_max_iters = 8;       // CG steps per system (als_cg-style)
  double cg_tolerance = 1e-4;
  std::uint64_t seed = 42;
  bool verbose = false;
};

}  // namespace cumf::core
