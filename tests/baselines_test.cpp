#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "baselines/ccdpp.hpp"
#include "baselines/fpsgd.hpp"
#include "baselines/nomad.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"
#include "sparse/split.hpp"
#include "util/rng.hpp"

namespace cumf::baselines {
namespace {

struct Problem {
  sparse::CooMatrix train;
  sparse::CooMatrix test;
  sparse::CsrMatrix train_csr;
};

Problem make_problem(std::uint64_t seed = 7) {
  data::SyntheticOptions opt;
  opt.m = 300;
  opt.n = 120;
  opt.nz = 9000;
  opt.f_true = 8;
  opt.noise_std = 0.3;
  opt.seed = seed;
  const auto all = data::generate_ratings(opt);
  util::Rng rng(seed ^ 0xfeed);
  auto split = sparse::split_ratings(all, 0.15, rng);
  Problem p;
  p.train = std::move(split.train);
  p.test = std::move(split.test);
  p.train_csr = sparse::coo_to_csr(p.train);
  return p;
}

SgdOptions sgd_options() {
  SgdOptions o;
  o.f = 16;
  o.lambda = 0.05f;
  o.lr = 0.05f;
  o.epochs = 8;
  o.threads = 3;
  return o;
}

// ----------------------------------------------------------- sgd core ------

TEST(SgdUpdate, MovesPredictionTowardRating) {
  const int f = 4;
  real_t x[4] = {0.1f, 0.2f, 0.3f, 0.4f};
  real_t t[4] = {0.5f, 0.5f, 0.5f, 0.5f};
  double before = 0.0;
  for (int k = 0; k < f; ++k) before += static_cast<double>(x[k]) * t[k];
  const real_t r = 4.0f;
  sgd_update(x, t, r, 0.1f, 0.0f, f);
  double after = 0.0;
  for (int k = 0; k < f; ++k) after += static_cast<double>(x[k]) * t[k];
  EXPECT_GT(after, before);
  EXPECT_LT(after, r);  // one small step, no overshoot at this lr
}

TEST(SgdUpdate, RegularizationShrinksFactors) {
  const int f = 2;
  real_t x[2] = {1.0f, 1.0f};
  real_t t[2] = {1.0f, 1.0f};
  // Rating equals prediction → error 0, only the λ terms act.
  sgd_update(x, t, 2.0f, 0.1f, 0.5f, f);
  EXPECT_LT(x[0], 1.0f);
  EXPECT_LT(t[0], 1.0f);
}

TEST(SgdUpdate, ZeroLambdaIsExactGradientStep) {
  // With λ = 0 eq. (4) is a pure gradient step, hand-computable: the second
  // line must use the PRE-update x (FunkSVD), not the already-moved one.
  const int f = 2;
  real_t x[2] = {1.0f, 0.0f};
  real_t t[2] = {0.5f, 1.0f};
  const real_t r = 2.0f;          // pred = 0.5, e = 1.5
  const real_t lr = 0.1f;
  const real_t e = sgd_update(x, t, r, lr, 0.0f, f);
  EXPECT_FLOAT_EQ(e, 1.5f);
  EXPECT_FLOAT_EQ(x[0], 1.0f + lr * (1.5f * 0.5f));  // x += α·e·θ
  EXPECT_FLOAT_EQ(x[1], 0.0f + lr * (1.5f * 1.0f));
  EXPECT_FLOAT_EQ(t[0], 0.5f + lr * (1.5f * 1.0f));  // θ += α·e·x_pre
  EXPECT_FLOAT_EQ(t[1], 1.0f + lr * (1.5f * 0.0f));
}

TEST(SgdUpdate, NegativeRatingPushesPredictionDown) {
  // Centered datasets carry negative ratings; the error sign must flow
  // through symmetrically.
  const int f = 3;
  real_t x[3] = {0.4f, 0.4f, 0.4f};
  real_t t[3] = {0.6f, 0.6f, 0.6f};
  double before = 0.0;
  for (int k = 0; k < f; ++k) before += static_cast<double>(x[k]) * t[k];
  const real_t e = sgd_update(x, t, -2.0f, 0.05f, 0.0f, f);
  EXPECT_LT(e, 0.0f);
  double after = 0.0;
  for (int k = 0; k < f; ++k) after += static_cast<double>(x[k]) * t[k];
  EXPECT_LT(after, before);
  EXPECT_GT(after, -2.0f);  // one small step, no overshoot
}

TEST(SgdUpdate, RankOneEdgeMatchesScalarForm) {
  // f = 1 collapses eq. (4) to scalars — the loop bounds must not assume
  // f > 1 anywhere.
  real_t x[1] = {2.0f};
  real_t t[1] = {3.0f};
  const real_t r = 7.0f;  // e = 7 - 6 = 1
  const real_t e = sgd_update(x, t, r, 0.1f, 0.2f, 1);
  EXPECT_FLOAT_EQ(e, 1.0f);
  EXPECT_FLOAT_EQ(x[0], 2.0f + 0.1f * (1.0f * 3.0f - 0.2f * 2.0f));
  EXPECT_FLOAT_EQ(t[0], 3.0f + 0.1f * (1.0f * 2.0f - 0.2f * 3.0f));
}

TEST(SgdUpdateMasked, BothSidesEnabledMatchesSgdUpdate) {
  const int f = 4;
  real_t x1[4] = {0.1f, 0.2f, 0.3f, 0.4f};
  real_t t1[4] = {0.5f, 0.4f, 0.3f, 0.2f};
  real_t x2[4] = {0.1f, 0.2f, 0.3f, 0.4f};
  real_t t2[4] = {0.5f, 0.4f, 0.3f, 0.2f};
  const real_t e1 = sgd_update(x1, t1, 3.5f, 0.07f, 0.03f, f);
  const real_t e2 = sgd_update_masked(x2, t2, 3.5f, 0.07f, 0.03f, f,
                                      /*update_x=*/true,
                                      /*update_theta=*/true);
  EXPECT_FLOAT_EQ(e1, e2);
  for (int k = 0; k < f; ++k) {
    EXPECT_FLOAT_EQ(x1[k], x2[k]);
    EXPECT_FLOAT_EQ(t1[k], t2[k]);
  }
}

TEST(SgdUpdateMasked, DisabledSideStaysBitIdentical) {
  // The incremental retraining tier relies on this: an untouched row read
  // by an update must come out bit-identical, while the touched side takes
  // the same step sgd_update would have given it (pre-update values feed
  // both lines of eq. (4), so one-sided updates agree with the two-sided
  // step on the side they do write).
  const int f = 3;
  const real_t x0[3] = {0.3f, -0.1f, 0.7f};
  const real_t t0[3] = {0.2f, 0.9f, -0.4f};
  real_t x_ref[3], t_ref[3];
  std::copy(x0, x0 + f, x_ref);
  std::copy(t0, t0 + f, t_ref);
  sgd_update(x_ref, t_ref, 1.5f, 0.1f, 0.05f, f);

  real_t x[3], t[3];
  std::copy(x0, x0 + f, x);
  std::copy(t0, t0 + f, t);
  sgd_update_masked(x, t, 1.5f, 0.1f, 0.05f, f, /*update_x=*/true,
                    /*update_theta=*/false);
  for (int k = 0; k < f; ++k) {
    EXPECT_FLOAT_EQ(x[k], x_ref[k]);  // touched side: the full step
    EXPECT_EQ(std::memcmp(t, t0, sizeof(t0)), 0);  // untouched: untouched
  }

  std::copy(x0, x0 + f, x);
  std::copy(t0, t0 + f, t);
  sgd_update_masked(x, t, 1.5f, 0.1f, 0.05f, f, /*update_x=*/false,
                    /*update_theta=*/true);
  EXPECT_EQ(std::memcmp(x, x0, sizeof(x0)), 0);
  for (int k = 0; k < f; ++k) EXPECT_FLOAT_EQ(t[k], t_ref[k]);

  // Both sides disabled: a pure error probe, nothing written.
  std::copy(x0, x0 + f, x);
  std::copy(t0, t0 + f, t);
  const real_t e = sgd_update_masked(x, t, 1.5f, 0.1f, 0.05f, f,
                                     /*update_x=*/false,
                                     /*update_theta=*/false);
  EXPECT_EQ(std::memcmp(x, x0, sizeof(x0)), 0);
  EXPECT_EQ(std::memcmp(t, t0, sizeof(t0)), 0);
  double pred = 0.0;
  for (int k = 0; k < f; ++k) pred += static_cast<double>(x0[k]) * t0[k];
  EXPECT_FLOAT_EQ(e, 1.5f - static_cast<real_t>(pred));
}

// ------------------------------------------------------------ solvers ------

template <typename Run>
void expect_converged(const Run& run, double target) {
  const auto& pts = run.points;
  ASSERT_GE(pts.size(), 2u);
  EXPECT_LT(pts.back().train_rmse, pts.front().train_rmse);
  EXPECT_LT(pts.back().test_rmse, target);
}

TEST(Fpsgd, ConvergesOnPlantedLowRank) {
  Problem p = make_problem();
  FpsgdSgd solver(p.train_csr, sgd_options());
  EXPECT_EQ(solver.grid_dim(), 4);  // threads + 1
  const BaselineRun run = solver.train(&p.train, &p.test, "fpsgd");
  expect_converged(run.history, 0.8);
}

TEST(Nomad, ConvergesOnPlantedLowRank) {
  Problem p = make_problem();
  NomadSgd solver(p.train_csr, sgd_options());
  const BaselineRun run = solver.train(&p.train, &p.test, "nomad");
  expect_converged(run.history, 0.8);
}

TEST(Nomad, SingleThreadEqualsColumnSweep) {
  Problem p = make_problem(11);
  SgdOptions opt = sgd_options();
  opt.threads = 1;
  opt.epochs = 3;
  NomadSgd solver(p.train_csr, opt);
  const BaselineRun run = solver.train(&p.train, &p.test, "nomad1");
  EXPECT_LT(run.history.points.back().train_rmse,
            run.history.points.front().train_rmse);
}

TEST(Ccdpp, ConvergesOnPlantedLowRank) {
  Problem p = make_problem();
  CcdOptions opt;
  opt.f = 16;
  opt.outer_sweeps = 6;
  CcdPlusPlus solver(p.train_csr, opt);
  const auto hist = solver.train(&p.train, &p.test, "ccd++");
  expect_converged(hist, 0.8);
}

TEST(Ccdpp, EarlySweepsMakeFastProgress) {
  // §6.2: "CCD++ behaves well in the early stage of optimization" — the
  // first sweep should already cut train RMSE substantially.
  Problem p = make_problem(13);
  CcdOptions opt;
  opt.f = 16;
  opt.outer_sweeps = 1;
  CcdPlusPlus solver(p.train_csr, opt);
  const auto hist = solver.train(&p.train, nullptr, "ccd1");
  EXPECT_LT(hist.points.back().train_rmse,
            0.7 * hist.points.front().train_rmse);
}

TEST(AllBaselines, DeterministicGivenSeed) {
  Problem p = make_problem(17);
  SgdOptions opt = sgd_options();
  opt.threads = 1;  // determinism only guaranteed single-threaded for SGD
  opt.epochs = 2;

  FpsgdSgd a(p.train_csr, opt), b(p.train_csr, opt);
  a.run_epoch();
  b.run_epoch();
  EXPECT_EQ(a.x().data(), b.x().data());
  EXPECT_EQ(a.theta().data(), b.theta().data());

  CcdOptions copt;
  copt.f = 8;
  CcdPlusPlus c(p.train_csr, copt), d(p.train_csr, copt);
  c.run_sweep();
  d.run_sweep();
  EXPECT_EQ(c.x().data(), d.x().data());
}

}  // namespace
}  // namespace cumf::baselines
