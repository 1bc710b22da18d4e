#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <vector>

#include "linalg/cg.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/dense.hpp"
#include "linalg/hermitian.hpp"
#include "util/rng.hpp"

namespace cumf::linalg {
namespace {

std::vector<real_t> random_columns(int bin, int f, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<real_t> cols(static_cast<std::size_t>(bin) * f);
  for (auto& v : cols) v = static_cast<real_t>(rng.uniform(-1.0, 1.0));
  return cols;
}

// ---------------------------------------------------- hermitian kernels ----

class HermitianKernelTest : public ::testing::TestWithParam<int> {};

TEST_P(HermitianKernelTest, RegisterPathMatchesDoubleReference) {
  const int f = GetParam();
  for (const int bin : {1, 3, 10, 30}) {
    const auto cols = random_columns(bin, f, 100 + static_cast<unsigned>(f));
    std::vector<double> ref(static_cast<std::size_t>(f) * f, 0.0);
    for (int k = 0; k < bin; ++k) {
      const real_t* col = cols.data() + static_cast<std::size_t>(k) * f;
      for (int i = 0; i < f; ++i) {
        for (int j = 0; j < f; ++j) {
          ref[static_cast<std::size_t>(i) * f + j] +=
              static_cast<double>(col[i]) * col[j];
        }
      }
    }
    std::vector<real_t> a_regs(ref.size(), 0.0f);
    rank1_accumulate_registers(a_regs.data(), cols.data(), bin, f);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(a_regs[i], ref[i], 1e-4 * bin)
          << "f=" << f << " bin=" << bin << " idx=" << i;
    }
  }
}

TEST_P(HermitianKernelTest, ResultIsSymmetric) {
  const int f = GetParam();
  const int bin = 20;
  const auto cols = random_columns(bin, f, 555);
  std::vector<real_t> A(static_cast<std::size_t>(f) * f, 0.0f);
  rank1_accumulate_registers(A.data(), cols.data(), bin, f);
  for (int i = 0; i < f; ++i) {
    for (int j = 0; j < f; ++j) {
      EXPECT_NEAR(A[static_cast<std::size_t>(i) * f + j],
                  A[static_cast<std::size_t>(j) * f + i], 1e-4f);
    }
  }
}

TEST_P(HermitianKernelTest, DiagonalIsSumOfSquares) {
  const int f = GetParam();
  const int bin = 7;
  const auto cols = random_columns(bin, f, 777);
  std::vector<real_t> A(static_cast<std::size_t>(f) * f, 0.0f);
  rank1_accumulate_registers(A.data(), cols.data(), bin, f);
  for (int i = 0; i < f; ++i) {
    double expect = 0.0;
    for (int k = 0; k < bin; ++k) {
      const real_t v = cols[static_cast<std::size_t>(k) * f + i];
      expect += static_cast<double>(v) * v;
    }
    EXPECT_NEAR(A[static_cast<std::size_t>(i) * f + i], expect, 1e-4);
  }
}

// f values straddle the register-tile edge (4): below, at, above,
// non-multiples, and the paper's f=100.
INSTANTIATE_TEST_SUITE_P(FeatureDims, HermitianKernelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 13, 16, 32, 64,
                                           100));

TEST(Hermitian, SingleRank1Update) {
  const int f = 3;
  const real_t theta[3] = {1.0f, 2.0f, -1.0f};
  std::vector<real_t> A(9, 0.0f);
  rank1_accumulate_registers(A.data(), theta, /*bin=*/1, f);
  for (int i = 0; i < f; ++i) {
    for (int j = 0; j < f; ++j) {
      EXPECT_DOUBLE_EQ(A[static_cast<std::size_t>(i) * f + j],
                       static_cast<double>(theta[i]) * theta[j]);
    }
  }
}

TEST(Hermitian, AxpyAndDot) {
  real_t y[4] = {1, 1, 1, 1};
  const real_t x[4] = {1, 2, 3, 4};
  axpy(y, 2.0f, x, 4);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
  EXPECT_FLOAT_EQ(y[3], 9.0f);
  EXPECT_DOUBLE_EQ(dot(x, x, 4), 30.0);
}

TEST(Hermitian, AddDiagonal) {
  std::vector<real_t> A(16, 1.0f);
  add_diagonal(A.data(), 0.5f, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      EXPECT_FLOAT_EQ(A[static_cast<std::size_t>(i) * 4 + j],
                      i == j ? 1.5f : 1.0f);
    }
  }
}

// ------------------------------------------------------------ cholesky -----

class CholeskyTest : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyTest, SolvesRandomSpdSystem) {
  const int f = GetParam();
  util::Rng rng(900 + static_cast<unsigned>(f));
  // Build A = M·Mᵀ + f·I (SPD by construction) and b = A·x_true.
  std::vector<real_t> M(static_cast<std::size_t>(f) * f);
  for (auto& v : M) v = static_cast<real_t>(rng.uniform(-1.0, 1.0));
  std::vector<real_t> A(static_cast<std::size_t>(f) * f, 0.0f);
  for (int i = 0; i < f; ++i) {
    for (int j = 0; j < f; ++j) {
      double s = 0.0;
      for (int k = 0; k < f; ++k) {
        s += static_cast<double>(M[static_cast<std::size_t>(i) * f + k]) *
             M[static_cast<std::size_t>(j) * f + k];
      }
      A[static_cast<std::size_t>(i) * f + j] = static_cast<real_t>(s);
    }
  }
  add_diagonal(A.data(), static_cast<real_t>(f), f);

  std::vector<real_t> x_true(static_cast<std::size_t>(f));
  for (auto& v : x_true) v = static_cast<real_t>(rng.uniform(-2.0, 2.0));
  std::vector<real_t> b(static_cast<std::size_t>(f), 0.0f);
  for (int i = 0; i < f; ++i) {
    double s = 0.0;
    for (int j = 0; j < f; ++j) {
      s += static_cast<double>(A[static_cast<std::size_t>(i) * f + j]) * x_true[static_cast<std::size_t>(j)];
    }
    b[static_cast<std::size_t>(i)] = static_cast<real_t>(s);
  }

  const CholeskyResult res = solve_spd_inplace(A.data(), b.data(), f);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.clamped_pivots, 0);
  for (int i = 0; i < f; ++i) {
    EXPECT_NEAR(b[static_cast<std::size_t>(i)], x_true[static_cast<std::size_t>(i)], 5e-3)
        << "f=" << f << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64, 100));

TEST(Cholesky, IdentityFactorsToIdentity) {
  const int f = 6;
  std::vector<real_t> A(static_cast<std::size_t>(f) * f, 0.0f);
  add_diagonal(A.data(), 1.0f, f);
  const CholeskyResult res = cholesky_factor(A.data(), f);
  EXPECT_TRUE(res.ok);
  for (int i = 0; i < f; ++i) {
    EXPECT_NEAR(A[static_cast<std::size_t>(i) * f + i], 1.0f, 1e-6f);
    for (int j = 0; j < i; ++j) {
      EXPECT_NEAR(A[static_cast<std::size_t>(i) * f + j], 0.0f, 1e-6f);
    }
  }
}

TEST(Cholesky, SingularMatrixClampsPivots) {
  const int f = 4;
  std::vector<real_t> A(16, 0.0f);  // all-zero matrix: rank 0
  std::vector<real_t> b(4, 1.0f);
  const CholeskyResult res = solve_spd_inplace(A.data(), b.data(), f);
  EXPECT_FALSE(res.ok);
  EXPECT_EQ(res.clamped_pivots, f);
  for (const real_t v : b) EXPECT_TRUE(std::isfinite(v));
}

// ------------------------------------------------------------------ cg -----

class CgTest : public ::testing::TestWithParam<int> {};

TEST_P(CgTest, MatchesCholeskyOnSpdSystems) {
  const int f = GetParam();
  util::Rng rng(1300 + static_cast<unsigned>(f));
  // Well-conditioned SPD: M·Mᵀ + f·I (the shape ALS produces).
  std::vector<real_t> M(static_cast<std::size_t>(f) * f);
  for (auto& v : M) v = static_cast<real_t>(rng.uniform(-1.0, 1.0));
  std::vector<real_t> A(static_cast<std::size_t>(f) * f, 0.0f);
  for (int i = 0; i < f; ++i) {
    for (int j = 0; j < f; ++j) {
      double s = (i == j) ? static_cast<double>(f) : 0.0;
      for (int k = 0; k < f; ++k) {
        s += static_cast<double>(M[static_cast<std::size_t>(i) * f + k]) *
             M[static_cast<std::size_t>(j) * f + k];
      }
      A[static_cast<std::size_t>(i) * f + j] = static_cast<real_t>(s);
    }
  }
  std::vector<real_t> b(static_cast<std::size_t>(f));
  for (auto& v : b) v = static_cast<real_t>(rng.uniform(-1.0, 1.0));

  std::vector<real_t> a_chol(A), b_chol(b);
  solve_spd_inplace(a_chol.data(), b_chol.data(), f);

  std::vector<real_t> x(static_cast<std::size_t>(f), 0.0f);
  CgOptions opt;
  opt.max_iters = 4 * f;  // exact in at most f steps in exact arithmetic
  opt.tolerance = 1e-7;
  const CgResult res = cg_solve(A.data(), b.data(), x.data(), f, opt);
  EXPECT_TRUE(res.converged) << "residual " << res.residual;
  for (int i = 0; i < f; ++i) {
    EXPECT_NEAR(x[static_cast<std::size_t>(i)], b_chol[static_cast<std::size_t>(i)], 2e-3)
        << "f=" << f << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CgTest, ::testing::Values(1, 2, 4, 8, 16, 32, 64));

TEST(Cg, WarmStartAtSolutionConvergesInstantly) {
  const int f = 4;
  std::vector<real_t> A(16, 0.0f);
  add_diagonal(A.data(), 2.0f, f);
  const real_t b[4] = {2, 4, 6, 8};
  real_t x[4] = {1, 2, 3, 4};  // exactly A⁻¹b
  const CgResult res = cg_solve(A.data(), b, x, f);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, 0);
  EXPECT_FLOAT_EQ(x[2], 3.0f);
}

TEST(Cg, ZeroRhsGivesZero) {
  const int f = 3;
  std::vector<real_t> A(9, 0.0f);
  add_diagonal(A.data(), 1.0f, f);
  const real_t b[3] = {0, 0, 0};
  real_t x[3] = {5, 5, 5};
  const CgResult res = cg_solve(A.data(), b, x, f);
  EXPECT_TRUE(res.converged);
  for (const real_t v : x) EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Cg, IterationCapRespected) {
  const int f = 32;
  util::Rng rng(77);
  std::vector<real_t> A(static_cast<std::size_t>(f) * f, 0.0f);
  for (int i = 0; i < f; ++i) {
    // Wildly varying diagonal → poor conditioning → slow convergence.
    A[static_cast<std::size_t>(i) * f + i] = static_cast<real_t>(1 << (i % 12));
  }
  std::vector<real_t> b(static_cast<std::size_t>(f), 1.0f);
  std::vector<real_t> x(static_cast<std::size_t>(f), 0.0f);
  CgOptions opt;
  opt.max_iters = 3;
  opt.tolerance = 1e-12;
  const CgResult res = cg_solve(A.data(), b.data(), x.data(), f, opt);
  EXPECT_LE(res.iterations, 3);
}

// --------------------------------------------------------------- dense -----

TEST(FactorMatrix, ShapeAndInit) {
  util::Rng rng(3);
  FactorMatrix m(10, 8);
  EXPECT_EQ(m.rows(), 10);
  EXPECT_EQ(m.f(), 8);
  m.randomize(rng, 0.5f);
  for (const real_t v : m.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LT(v, 0.5f);
  }
  EXPECT_EQ(m.footprint_bytes(), 10u * 8u * sizeof(real_t));
}

TEST(FactorMatrix, RowAccess) {
  FactorMatrix m(3, 2);
  m.row(1)[0] = 7.0f;
  m.row(1)[1] = 8.0f;
  EXPECT_FLOAT_EQ(m.data()[2], 7.0f);
  EXPECT_FLOAT_EQ(m.data()[3], 8.0f);
}

TEST(FactorMatrix, SaveLoadRoundTrip) {
  const std::string path = testing::TempDir() + "/cumf_factors.bin";
  util::Rng rng(5);
  FactorMatrix m(37, 13);
  m.randomize(rng);
  save_factors(path, m);
  const FactorMatrix back = load_factors(path);
  EXPECT_EQ(back.rows(), m.rows());
  EXPECT_EQ(back.f(), m.f());
  EXPECT_EQ(back.data(), m.data());
  std::remove(path.c_str());
}

TEST(FactorMatrix, FrobeniusNorm) {
  FactorMatrix m(2, 2);
  m.row(0)[0] = 3.0f;
  m.row(1)[1] = 4.0f;
  EXPECT_NEAR(m.frobenius_norm(), 5.0, 1e-9);
}

}  // namespace
}  // namespace cumf::linalg
