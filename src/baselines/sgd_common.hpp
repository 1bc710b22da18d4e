#pragma once

// Shared pieces of the SGD-based baselines (libMF/FPSGD, NOMAD).
//
// These are the systems the paper compares against in §5.2 and §5.4. The SGD
// update is eq. (4):
//   e    = r_uv - x_uᵀθ_v
//   x_u += α (e·θ_v - λ·x_u)
//   θ_v += α (e·x_u - λ·θ_v)
// (using the pre-update x_u on the second line, as in the standard FunkSVD
// formulation the cited systems implement).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "eval/metrics.hpp"
#include "linalg/dense.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "util/types.hpp"

namespace cumf::baselines {

struct SgdOptions {
  int f = 32;
  real_t lambda = 0.05f;
  real_t lr = 0.05f;        // initial learning rate α
  real_t lr_decay = 0.9f;   // α multiplier per epoch
  int epochs = 10;
  int threads = 4;          // worker count (simulated cores)
  real_t init_scale = 0.0f; // factor init in [0, scale); 0 → 1/sqrt(f)
  std::uint64_t seed = 123;

  [[nodiscard]] real_t effective_init_scale() const {
    if (init_scale > 0) return init_scale;
    return static_cast<real_t>(1.0 / std::sqrt(static_cast<double>(f)));
  }

  /// Rescales lr / init for data whose ratings live on mean `mean` with
  /// variance `var` (YahooMusic's 0-100 scale vs Netflix's 1-5): gradients
  /// scale with the error magnitude, so α must shrink with the variance, and
  /// x·θ should start near the mean.
  void adapt_to_rating_scale(double mean, double var) {
    lr = static_cast<real_t>(std::min(0.05, 0.12 / std::max(1.0, var)));
    lr_decay = 0.97f;  // gentle decay so long runs keep making progress
    init_scale = static_cast<real_t>(
        std::sqrt(std::max(mean, 0.25) / static_cast<double>(f)) * 2.0);
  }
};

/// One SGD update on a single rating (eq. 4). Returns the pre-update error.
inline real_t sgd_update(real_t* xu, real_t* tv, real_t r, real_t lr,
                         real_t lambda, int f) {
  double pred = 0.0;
  for (int k = 0; k < f; ++k) pred += static_cast<double>(xu[k]) * tv[k];
  const real_t e = r - static_cast<real_t>(pred);
  for (int k = 0; k < f; ++k) {
    const real_t xk = xu[k];
    xu[k] += lr * (e * tv[k] - lambda * xk);
    tv[k] += lr * (e * xk - lambda * tv[k]);
  }
  return e;
}

/// Eq.-(4) update restricted to one side. The incremental retraining tier
/// (orchestrate/trainer.hpp) must leave factor rows outside the delta-touched
/// set bit-identical to their warm start, so a rating pairing a touched user
/// with an untouched item updates x_u only (θ_v reads as a constant), and
/// vice versa. With both sides enabled this IS sgd_update. Returns the
/// pre-update error.
inline real_t sgd_update_masked(real_t* xu, real_t* tv, real_t r, real_t lr,
                                real_t lambda, int f, bool update_x,
                                bool update_theta) {
  if (update_x && update_theta) return sgd_update(xu, tv, r, lr, lambda, f);
  double pred = 0.0;
  for (int k = 0; k < f; ++k) pred += static_cast<double>(xu[k]) * tv[k];
  const real_t e = r - static_cast<real_t>(pred);
  if (update_x) {
    for (int k = 0; k < f; ++k) xu[k] += lr * (e * tv[k] - lambda * xu[k]);
  } else if (update_theta) {
    for (int k = 0; k < f; ++k) tv[k] += lr * (e * xu[k] - lambda * tv[k]);
  }
  return e;
}

/// Convergence record plus the traffic stats the machine models need.
struct BaselineRun {
  eval::ConvergenceHistory history;
  double samples_processed = 0.0;  // total SGD updates (Nz × epochs)
};

}  // namespace cumf::baselines
