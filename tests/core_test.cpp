#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/implicit_als.hpp"
#include "core/kernels.hpp"
#include "core/ooc.hpp"
#include "core/planner.hpp"
#include "core/reduction.hpp"
#include "core/solver.hpp"
#include "data/synthetic.hpp"
#include "eval/metrics.hpp"
#include "linalg/hermitian.hpp"
#include "gpusim/device_group.hpp"
#include "gpusim/device_spec.hpp"
#include "sparse/split.hpp"
#include "util/rng.hpp"

namespace cumf::core {
namespace {

using gpusim::Device;
using gpusim::PcieTopology;

sparse::CsrMatrix small_ratings(idx_t m, idx_t n, nnz_t nz,
                                std::uint64_t seed) {
  data::SyntheticOptions opt;
  opt.m = m;
  opt.n = n;
  opt.nz = nz;
  opt.seed = seed;
  return sparse::coo_to_csr(data::generate_ratings(opt));
}

std::vector<real_t> random_theta(idx_t n, int f, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<real_t> theta(static_cast<std::size_t>(n) * f);
  for (auto& v : theta) v = static_cast<real_t>(rng.uniform(-0.5, 0.5));
  return theta;
}

/// Brute-force reference of eq. (2): A_u = Σ θθᵀ + n_{x_u}λI, B_u = Σ rθ.
void reference_hermitian(const sparse::CsrMatrix& R, const real_t* theta,
                         int f, real_t lambda, std::vector<double>& A,
                         std::vector<double>& B) {
  const std::size_t fsq = static_cast<std::size_t>(f) * f;
  A.assign(static_cast<std::size_t>(R.rows) * fsq, 0.0);
  B.assign(static_cast<std::size_t>(R.rows) * f, 0.0);
  for (idx_t u = 0; u < R.rows; ++u) {
    const auto cols = R.row_cols(u);
    const auto vals = R.row_vals(u);
    double* a = A.data() + static_cast<std::size_t>(u) * fsq;
    double* b = B.data() + static_cast<std::size_t>(u) * f;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const real_t* tv = theta + static_cast<std::size_t>(cols[k]) * f;
      for (int i = 0; i < f; ++i) {
        for (int j = 0; j < f; ++j) {
          a[static_cast<std::size_t>(i) * f + j] +=
              static_cast<double>(tv[i]) * tv[j];
        }
        b[i] += static_cast<double>(vals[k]) * tv[i];
      }
    }
    for (int i = 0; i < f; ++i) {
      a[static_cast<std::size_t>(i) * f + i] +=
          static_cast<double>(lambda) * static_cast<double>(cols.size());
    }
  }
}

// ------------------------------------------------------------- kernels -----

struct KernelCase {
  KernelOptions opt;
  const char* name;
};

class HermitianBlockTest : public ::testing::TestWithParam<KernelCase> {};

TEST_P(HermitianBlockTest, MatchesBruteForce) {
  const int f = 9;  // deliberately not a tile multiple
  const real_t lambda = 0.07f;
  const auto R = small_ratings(40, 25, 500, 21);
  const auto theta = random_theta(25, f, 22);

  Device dev(0, gpusim::titan_x());
  std::vector<real_t> A(static_cast<std::size_t>(R.rows) * f * f);
  std::vector<real_t> B(static_cast<std::size_t>(R.rows) * f);
  get_hermitian_block(dev, R, 0, R.rows, theta.data(), f, lambda,
                      GetParam().opt, A.data(), B.data());

  std::vector<double> refA, refB;
  reference_hermitian(R, theta.data(), f, lambda, refA, refB);
  for (std::size_t i = 0; i < A.size(); ++i) {
    ASSERT_NEAR(A[i], refA[i], 1e-3) << GetParam().name << " A idx " << i;
  }
  for (std::size_t i = 0; i < B.size(); ++i) {
    ASSERT_NEAR(B[i], refB[i], 1e-3) << GetParam().name << " B idx " << i;
  }
}

const KernelCase kKernelCases[] = {
    {{1, false, false}, "base_alg1"},
    {{20, true, true}, "mo_full"},
    {{20, false, true}, "mo_noregisters"},
    {{20, true, false}, "mo_notexture"},
    {{10, true, true}, "mo_bin10"},
    {{30, true, true}, "mo_bin30"},
    {{3, true, true}, "mo_bin_smaller_than_row"}};

INSTANTIATE_TEST_SUITE_P(Paths, HermitianBlockTest,
                         ::testing::ValuesIn(kKernelCases),
                         [](const auto& info) { return info.param.name; });

TEST(HermitianBlock, OptionsLeaveHostResultBitIdentical) {
  // KernelOptions selects the modeled traffic only; the host runs one
  // kernel, so every option set must produce the same bits.
  const int f = 9;
  const real_t lambda = 0.07f;
  const auto R = small_ratings(40, 25, 500, 21);
  const auto theta = random_theta(25, f, 22);
  Device dev(0, gpusim::titan_x());
  auto run = [&](const KernelOptions& opt, std::vector<real_t>& A,
                 std::vector<real_t>& B) {
    A.assign(static_cast<std::size_t>(R.rows) * f * f, 0.0f);
    B.assign(static_cast<std::size_t>(R.rows) * f, 0.0f);
    get_hermitian_block(dev, R, 0, R.rows, theta.data(), f, lambda, opt,
                        A.data(), B.data());
  };
  std::vector<real_t> refA, refB;
  run(kKernelCases[0].opt, refA, refB);
  for (const auto& c : kKernelCases) {
    std::vector<real_t> A, B;
    run(c.opt, A, B);
    EXPECT_EQ(std::memcmp(A.data(), refA.data(), A.size() * sizeof(real_t)), 0)
        << c.name;
    EXPECT_EQ(std::memcmp(B.data(), refB.data(), B.size() * sizeof(real_t)), 0)
        << c.name;
  }
}

TEST(HermitianBlock, AccumulateSumsPartitions) {
  // Computing over column partitions with accumulate=true must equal the
  // whole-matrix result — this is eq. (5), the data-parallelism identity.
  const int f = 8;
  const real_t lambda = 0.1f;
  const auto R = small_ratings(30, 40, 400, 31);
  const auto theta = random_theta(40, f, 32);
  Device dev(0, gpusim::titan_x());

  std::vector<real_t> A_whole(static_cast<std::size_t>(R.rows) * f * f);
  std::vector<real_t> B_whole(static_cast<std::size_t>(R.rows) * f);
  get_hermitian_block(dev, R, 0, R.rows, theta.data(), f, lambda, {},
                      A_whole.data(), B_whole.data());

  const auto part = sparse::grid_partition(R, 2, 1);
  std::vector<real_t> A_sum(A_whole.size(), 0.0f);
  std::vector<real_t> B_sum(B_whole.size(), 0.0f);
  for (int i = 0; i < 2; ++i) {
    const auto& blk = part.block(i, 0);
    // Local theta for the column range.
    std::vector<real_t> theta_local(
        static_cast<std::size_t>(blk.col_range.size()) * f);
    std::copy(theta.begin() + static_cast<std::size_t>(blk.col_range.begin) * f,
              theta.begin() + static_cast<std::size_t>(blk.col_range.end) * f,
              theta_local.begin());
    get_hermitian_block(dev, blk.local, 0, blk.local.rows, theta_local.data(),
                        f, lambda, {}, A_sum.data(), B_sum.data(),
                        /*accumulate=*/true);
  }
  for (std::size_t i = 0; i < A_whole.size(); ++i) {
    ASSERT_NEAR(A_sum[i], A_whole[i], 1e-3) << "A idx " << i;
  }
  for (std::size_t i = 0; i < B_whole.size(); ++i) {
    ASSERT_NEAR(B_sum[i], B_whole[i], 1e-3) << "B idx " << i;
  }
}

TEST(HermitianBlock, RegisterPathReducesModeledTraffic) {
  const nnz_t nz = 100000;
  const idx_t rows = 500;
  const int f = 32;
  const KernelOptions with_regs{20, true, true};
  const KernelOptions without_regs{20, false, true};
  const auto s_with = hermitian_kernel_stats(nz, rows, f, with_regs);
  const auto s_without = hermitian_kernel_stats(nz, rows, f, without_regs);
  // Without register accumulation every partial product read-modify-writes
  // A_u: the L1/shared-class traffic inflates several-fold, and the modeled
  // kernel ends up in the paper's 1.7-2.5x-and-beyond slowdown range.
  EXPECT_GT(static_cast<double>(s_without.shared_read + s_without.shared_write),
            3.0 * static_cast<double>(s_with.shared_read + s_with.shared_write));
  Device dev(0, gpusim::titan_x());
  const double slowdown = dev.model_kernel_seconds(s_without) /
                          dev.model_kernel_seconds(s_with);
  EXPECT_GT(slowdown, 1.7);
  EXPECT_LT(slowdown, 12.0);
}

TEST(HermitianBlock, TextureGainShrinksWithSparsity) {
  // §5.3: YahooMusic's sparser catalog sees a smaller texture benefit. At a
  // fixed nz, more columns → less per-column reuse → lower gather quality.
  const int f = 24;
  const KernelOptions tex_on{20, true, true};
  const KernelOptions tex_off{20, true, false};
  Device dev(0, gpusim::titan_x());
  auto gain = [&](idx_t cols) {
    const auto on = hermitian_kernel_stats(200000, 1000, f, tex_on, cols);
    const auto off = hermitian_kernel_stats(200000, 1000, f, tex_off, cols);
    return dev.model_kernel_seconds(off) / dev.model_kernel_seconds(on);
  };
  const double dense_gain = gain(200);     // reuse 1000x
  const double sparse_gain = gain(100000); // reuse 2x
  EXPECT_GT(dense_gain, 1.0);
  EXPECT_GE(dense_gain, sparse_gain);
}

TEST(HermitianBlock, BasePathIsSlowestInModel) {
  const auto base = hermitian_kernel_stats(50000, 200, 64, {1, false, false});
  const auto mo = hermitian_kernel_stats(50000, 200, 64, {20, true, true});
  Device dev(0, gpusim::titan_x());
  EXPECT_GT(dev.model_kernel_seconds(base), dev.model_kernel_seconds(mo));
}

TEST(BatchSolve, RecoversKnownSolution) {
  const int f = 6;
  const idx_t count = 5;
  util::Rng rng(41);
  std::vector<real_t> A(static_cast<std::size_t>(count) * f * f, 0.0f);
  std::vector<real_t> B(static_cast<std::size_t>(count) * f, 0.0f);
  std::vector<real_t> x_true(static_cast<std::size_t>(count) * f);
  for (auto& v : x_true) v = static_cast<real_t>(rng.uniform(-1.0, 1.0));

  for (idx_t u = 0; u < count; ++u) {
    real_t* a = A.data() + static_cast<std::size_t>(u) * f * f;
    // SPD: M·Mᵀ + I.
    std::vector<real_t> M(static_cast<std::size_t>(f) * f);
    for (auto& v : M) v = static_cast<real_t>(rng.uniform(-1.0, 1.0));
    for (int i = 0; i < f; ++i) {
      for (int j = 0; j < f; ++j) {
        double s = (i == j) ? 1.0 : 0.0;
        for (int k = 0; k < f; ++k) {
          s += static_cast<double>(M[static_cast<std::size_t>(i) * f + k]) *
               M[static_cast<std::size_t>(j) * f + k];
        }
        a[static_cast<std::size_t>(i) * f + j] = static_cast<real_t>(s);
      }
    }
    real_t* b = B.data() + static_cast<std::size_t>(u) * f;
    const real_t* xt = x_true.data() + static_cast<std::size_t>(u) * f;
    for (int i = 0; i < f; ++i) {
      double s = 0.0;
      for (int j = 0; j < f; ++j) {
        s += static_cast<double>(a[static_cast<std::size_t>(i) * f + j]) * xt[j];
      }
      b[i] = static_cast<real_t>(s);
    }
  }

  Device dev(0, gpusim::titan_x());
  std::vector<real_t> x(static_cast<std::size_t>(count) * f, 0.0f);
  const int clamped =
      batch_solve_block(dev, A.data(), B.data(), count, f, x.data());
  EXPECT_EQ(clamped, 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_true[i], 5e-3) << "idx " << i;
  }
}

TEST(BatchSolve, EmptySystemYieldsZero) {
  const int f = 4;
  std::vector<real_t> A(16, 0.0f), B(4, 0.0f), x(4, 9.0f);
  Device dev(0, gpusim::titan_x());
  const int clamped = batch_solve_block(dev, A.data(), B.data(), 1, f, x.data());
  EXPECT_EQ(clamped, 0);
  for (const real_t v : x) EXPECT_FLOAT_EQ(v, 0.0f);
}

// ----------------------------------------------------------- reduction -----

class ReductionTest : public ::testing::TestWithParam<ReduceScheme> {};

TEST_P(ReductionTest, ComputesCorrectSums) {
  const int P = 4;
  const idx_t units = 37;
  const int unit_elems = 9;
  const nnz_t len = static_cast<nnz_t>(units) * unit_elems;

  gpusim::DeviceGroup group(P, gpusim::titan_x(),
                            PcieTopology::two_socket(P));
  std::vector<Device*> dptrs = group.pointers();

  util::Rng rng(51);
  std::vector<std::vector<real_t>> bufs(P);
  std::vector<double> expect(static_cast<std::size_t>(len), 0.0);
  for (int d = 0; d < P; ++d) {
    bufs[static_cast<std::size_t>(d)].resize(static_cast<std::size_t>(len));
    for (nnz_t e = 0; e < len; ++e) {
      const auto v = static_cast<real_t>(rng.uniform(-1.0, 1.0));
      bufs[static_cast<std::size_t>(d)][static_cast<std::size_t>(e)] = v;
      expect[static_cast<std::size_t>(e)] += v;
    }
  }
  std::vector<real_t*> ptrs;
  for (auto& b : bufs) ptrs.push_back(b.data());

  const auto topo = PcieTopology::two_socket(P);
  const ReduceResult res =
      reduce_across_devices(dptrs, topo, ptrs, units, unit_elems, GetParam());

  // Every unit must be owned exactly once (SingleDevice: all by device 0).
  std::vector<int> owner_count(static_cast<std::size_t>(units), 0);
  for (int d = 0; d < P; ++d) {
    const auto r = res.owned[static_cast<std::size_t>(d)];
    for (idx_t u = r.begin; u < r.end; ++u) {
      ++owner_count[static_cast<std::size_t>(u)];
      for (int e = 0; e < unit_elems; ++e) {
        const auto at = static_cast<std::size_t>(u) * unit_elems +
                        static_cast<std::size_t>(e);
        ASSERT_NEAR(bufs[static_cast<std::size_t>(d)][at], expect[at], 1e-4)
            << "unit " << u << " elem " << e;
      }
    }
  }
  for (const int c : owner_count) EXPECT_EQ(c, 1);
  EXPECT_GT(res.modeled_seconds, 0.0);
  EXPECT_GT(res.bytes_moved, 0u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, ReductionTest,
                         ::testing::Values(ReduceScheme::SingleDevice,
                                           ReduceScheme::OnePhase,
                                           ReduceScheme::TwoPhase),
                         [](const auto& info) {
                           std::string name = reduce_scheme_name(info.param);
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Reduction, SchemeSpeedOrderingMatchesPaper) {
  // §4.2: parallel reduction 1.7× vs reduce-at-one; two-phase another 1.5×
  // on a two-socket machine. Our model must reproduce the ordering and
  // roughly those magnitudes for transfer-dominated reductions.
  const int P = 4;
  const idx_t units = 1024;
  const int unit_elems = 1024;  // 4 MiB slices: transfer dominated

  const auto run = [&](ReduceScheme scheme, const PcieTopology& topo) {
    gpusim::DeviceGroup group(P, gpusim::titan_x(), topo);
    std::vector<Device*> dptrs = group.pointers();
    std::vector<std::vector<real_t>> bufs(
        P, std::vector<real_t>(static_cast<std::size_t>(units) * unit_elems,
                               1.0f));
    std::vector<real_t*> ptrs;
    for (auto& b : bufs) ptrs.push_back(b.data());
    return reduce_across_devices(dptrs, topo, ptrs, units, unit_elems, scheme)
        .modeled_seconds;
  };

  const auto two_socket = PcieTopology::two_socket(P);
  const double t_single = run(ReduceScheme::SingleDevice, two_socket);
  const double t_one = run(ReduceScheme::OnePhase, two_socket);
  const double t_two = run(ReduceScheme::TwoPhase, two_socket);
  EXPECT_GT(t_single / t_one, 1.3);  // paper: 1.7×
  EXPECT_GT(t_one / t_two, 1.2);     // paper: 1.5×

  // On a flat topology the two-phase trick cannot help (no slow link).
  const auto flat = PcieTopology::flat(P);
  const double t_one_flat = run(ReduceScheme::OnePhase, flat);
  const double t_two_flat = run(ReduceScheme::TwoPhase, flat);
  EXPECT_LE(t_one_flat, t_two_flat * 1.05);
}

TEST(Reduction, SingleDeviceIsNoOp) {
  Device dev(0, gpusim::titan_x());
  std::vector<Device*> devs{&dev};
  std::vector<real_t> buf(10, 2.0f);
  const auto res =
      reduce_across_devices(devs, PcieTopology::flat(1), {buf.data()}, 5, 2,
                            ReduceScheme::OnePhase);
  EXPECT_EQ(res.owned[0].begin, 0);
  EXPECT_EQ(res.owned[0].end, 5);
  EXPECT_DOUBLE_EQ(res.modeled_seconds, 0.0);
  for (const real_t v : buf) EXPECT_FLOAT_EQ(v, 2.0f);
}

// ------------------------------------------------------------- planner -----

TEST(Planner, SmallProblemFitsOneDevice) {
  PlanInput in;
  in.rows_solved = 10000;
  in.cols_fixed = 2000;
  in.nz = 500000;
  in.f = 32;
  in.physical_devices = 1;
  const Plan plan = plan_partition(in);
  EXPECT_EQ(plan.mode, ParallelMode::SingleDevice);
  EXPECT_EQ(plan.p, 1);
  EXPECT_EQ(plan.q, 1);
}

TEST(Planner, MultipleDevicesAndSmallFixedFactorGiveModelParallel) {
  PlanInput in;
  in.rows_solved = 10000;
  in.cols_fixed = 2000;
  in.nz = 500000;
  in.f = 32;
  in.physical_devices = 4;
  const Plan plan = plan_partition(in);
  EXPECT_EQ(plan.mode, ParallelMode::ModelParallel);
  EXPECT_EQ(plan.p, 1);
}

TEST(Planner, HermitianPressureGrowsQ) {
  // Netflix-shaped with f=100: A alone is m·f² = 480189·10⁴ floats ≈ 19 GB,
  // beyond one 12 GB device → q > 1 while Θ still fits (p = 1). This is the
  // §2.2 example motivating batching.
  PlanInput in;
  in.rows_solved = 480'189;
  in.cols_fixed = 17'770;
  in.nz = 99'000'000;
  in.f = 100;
  in.physical_devices = 1;
  const Plan plan = plan_partition(in);
  EXPECT_EQ(plan.mode, ParallelMode::SingleDevice);
  EXPECT_EQ(plan.p, 1);
  EXPECT_GT(plan.q, 1);
  EXPECT_LE(plan.per_device_bytes, in.capacity - in.headroom);
}

TEST(Planner, HugeFixedFactorForcesDataParallel) {
  // Factorbird-shaped update-Θ: fixed X has 229M rows; at f=32 that is
  // ~29 GB — no single 12 GB device can replicate it.
  PlanInput in;
  in.rows_solved = 195'000'000;
  in.cols_fixed = 229'000'000;
  in.nz = 2'000'000'000;
  in.f = 32;
  in.physical_devices = 4;
  const Plan plan = plan_partition(in);
  EXPECT_EQ(plan.mode, ParallelMode::DataParallel);
  EXPECT_GT(plan.p, 1);
  EXPECT_LE(plan.per_device_bytes, in.capacity - in.headroom);
}

TEST(Planner, Eq8MonotoneInPandQ) {
  PlanInput in;
  in.rows_solved = 1'000'000;
  in.cols_fixed = 1'000'000;
  in.nz = 100'000'000;
  in.f = 64;
  EXPECT_GT(eq8_bytes(in, 1, 1), eq8_bytes(in, 2, 1));
  EXPECT_GT(eq8_bytes(in, 1, 1), eq8_bytes(in, 1, 2));
  EXPECT_GT(eq8_bytes(in, 2, 2), eq8_bytes(in, 4, 4));
}

/// Property sweep: for a spread of random problem shapes, the plan must
/// satisfy eq. 8 within budget, and (p-1, q) / (p, q-1) must be infeasible
/// or out of mode — i.e. the planner does not over-partition.
class PlannerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PlannerPropertyTest, PlanFeasibleAndMinimal) {
  util::Rng rng(4000 + static_cast<unsigned>(GetParam()));
  PlanInput in;
  in.rows_solved = 1 + static_cast<std::int64_t>(rng.next_below(200'000'000));
  in.cols_fixed = 1 + static_cast<std::int64_t>(rng.next_below(200'000'000));
  in.nz = std::max<std::int64_t>(
      in.rows_solved, static_cast<std::int64_t>(rng.next_below(2'000'000'000)));
  in.f = 4 + static_cast<int>(rng.next_below(124));
  in.physical_devices = 1 + static_cast<int>(rng.next_below(4));

  Plan plan;
  try {
    plan = plan_partition(in);
  } catch (const std::runtime_error&) {
    // Some shapes genuinely exceed what partitioning can fit; that's a
    // valid outcome — but then even the max split must be infeasible.
    EXPECT_GT(eq8_bytes(in, 4096, std::min<std::int64_t>(in.rows_solved,
                                                         1 << 20)),
              in.capacity - in.headroom);
    return;
  }
  const bytes_t budget = in.capacity - in.headroom;
  EXPECT_LE(eq8_bytes(in, plan.p, plan.q), budget) << plan.describe();
  // Minimality in q: one fewer batch must not fit (q = 1 is trivially
  // minimal).
  if (plan.q > 1) {
    EXPECT_GT(eq8_bytes(in, plan.p, plan.q - 1), budget) << plan.describe();
  }
  // Mode consistency: data parallelism only when p = 1 cannot fit at all.
  if (plan.mode == ParallelMode::DataParallel) {
    EXPECT_GT(plan.p, 1);
    EXPECT_GT(eq8_bytes(in, 1, std::min<std::int64_t>(in.rows_solved, 1 << 20)),
              budget);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, PlannerPropertyTest,
                         ::testing::Range(0, 24));

TEST(Planner, RejectsBadInput) {
  PlanInput in;
  EXPECT_THROW(plan_partition(in), std::invalid_argument);
  in.rows_solved = in.cols_fixed = 10;
  in.nz = 10;
  in.f = 4;
  in.capacity = 100;
  in.headroom = 200;
  EXPECT_THROW(plan_partition(in), std::runtime_error);
}

// -------------------------------------------------------------- solver -----

struct SolverFixtureData {
  data::SimDataset ds;
  SolverConfig cfg;
};

SolverFixtureData make_problem(int f = 16, int iters_seed = 61) {
  SolverFixtureData out;
  data::SyntheticOptions opt;
  opt.m = 400;
  opt.n = 150;
  opt.nz = 24000;  // keep observations well above the (m+n)·f parameters
  opt.f_true = 8;
  opt.noise_std = 0.3;
  opt.seed = static_cast<std::uint64_t>(iters_seed);
  const auto all = data::generate_ratings(opt);
  util::Rng rng(99);
  auto split = sparse::split_ratings(all, 0.15, rng);
  out.ds.train = std::move(split.train);
  out.ds.test = std::move(split.test);
  out.ds.train_csr = sparse::coo_to_csr(out.ds.train);
  out.ds.train_rt_csr =
      sparse::csc_as_csr_of_transpose(sparse::csr_to_csc(out.ds.train_csr));
  out.cfg.als.f = f;
  out.cfg.als.lambda = 0.02f;
  out.cfg.als.iterations = 6;
  return out;
}

/// Larger problem where compute dominates launch/transfer overheads — used
/// by the modeled-speedup assertions (tiny problems are overhead bound and
/// cannot show Fig. 9's near-linear scaling, just like real GPUs).
SolverFixtureData make_speedup_problem() {
  SolverFixtureData out;
  data::SyntheticOptions opt;
  opt.m = 1200;
  opt.n = 400;
  opt.nz = 250'000;
  opt.f_true = 8;
  opt.noise_std = 0.3;
  opt.seed = 67;
  const auto all = data::generate_ratings(opt);
  util::Rng rng(98);
  auto split = sparse::split_ratings(all, 0.1, rng);
  out.ds.train = std::move(split.train);
  out.ds.test = std::move(split.test);
  out.ds.train_csr = sparse::coo_to_csr(out.ds.train);
  out.ds.train_rt_csr =
      sparse::csc_as_csr_of_transpose(sparse::csr_to_csc(out.ds.train_csr));
  // f = 40: large enough that compute (∝ f²) dominates the slice exchange
  // (∝ f), as in the paper's f = 100 runs — small f is transfer-bound and
  // cannot scale linearly no matter the implementation.
  out.cfg.als.f = 40;
  out.cfg.als.lambda = 0.02f;
  return out;
}

TEST(Solver, ConvergesOnPlantedLowRank) {
  auto prob = make_problem();
  Device dev(0, gpusim::titan_x());
  AlsSolver solver({&dev}, PcieTopology::flat(1), prob.ds.train_csr,
                   prob.ds.train_rt_csr, prob.cfg);
  const auto hist =
      solver.train(8, &prob.ds.train, &prob.ds.test, "single");
  ASSERT_EQ(hist.points.size(), 9u);
  EXPECT_LT(hist.points.back().train_rmse, hist.points.front().train_rmse);
  // Test RMSE should approach the noise floor (0.3) within a factor.
  EXPECT_LT(hist.points.back().test_rmse, 0.6);
  EXPECT_GT(solver.modeled_seconds(), 0.0);
  EXPECT_EQ(solver.iterations_run(), 8);
}

TEST(Solver, ObjectiveNonIncreasing) {
  // Each exact ALS half-step minimizes J over one factor, so J must not
  // increase across iterations (up to float tolerance).
  auto prob = make_problem();
  Device dev(0, gpusim::titan_x());
  AlsSolver solver({&dev}, PcieTopology::flat(1), prob.ds.train_csr,
                   prob.ds.train_rt_csr, prob.cfg);
  double prev = eval::objective(prob.ds.train_csr, solver.x(), solver.theta(),
                                prob.cfg.als.lambda);
  for (int it = 0; it < 5; ++it) {
    solver.run_iteration();
    const double cur = eval::objective(prob.ds.train_csr, solver.x(),
                                       solver.theta(), prob.cfg.als.lambda);
    EXPECT_LE(cur, prev * 1.0001) << "iteration " << it;
    prev = cur;
  }
}

TEST(Solver, BaseAndMoAlsAgree) {
  auto prob = make_problem();
  SolverConfig base_cfg = prob.cfg;
  base_cfg.als.kernel = KernelOptions{1, false, false};

  Device dev_a(0, gpusim::titan_x());
  AlsSolver mo({&dev_a}, PcieTopology::flat(1), prob.ds.train_csr,
               prob.ds.train_rt_csr, prob.cfg);
  Device dev_b(0, gpusim::titan_x());
  AlsSolver base({&dev_b}, PcieTopology::flat(1), prob.ds.train_csr,
                 prob.ds.train_rt_csr, base_cfg);
  for (int i = 0; i < 3; ++i) {
    mo.run_iteration();
    base.run_iteration();
  }
  const double rmse_mo = eval::rmse(prob.ds.test, mo.x(), mo.theta());
  const double rmse_base = eval::rmse(prob.ds.test, base.x(), base.theta());
  // One host kernel: the options change the modeled clock, not the factors.
  EXPECT_EQ(rmse_mo, rmse_base);
  // But MO-ALS must be faster in modeled time (Fig. 7's point).
  EXPECT_LT(mo.modeled_seconds(), base.modeled_seconds());
}

class MultiDeviceSolverTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiDeviceSolverTest, ModelParallelMatchesSingleDevice) {
  const int P = GetParam();
  auto prob = make_problem();

  Device single_dev(0, gpusim::titan_x());
  AlsSolver single({&single_dev}, PcieTopology::flat(1), prob.ds.train_csr,
                   prob.ds.train_rt_csr, prob.cfg);

  gpusim::DeviceGroup group(P, gpusim::titan_x(),
                            PcieTopology::two_socket(P));
  std::vector<Device*> dptrs = group.pointers();
  AlsSolver multi(dptrs, PcieTopology::two_socket(P), prob.ds.train_csr,
                  prob.ds.train_rt_csr, prob.cfg);
  EXPECT_EQ(multi.plan_x().mode, ParallelMode::ModelParallel);

  for (int i = 0; i < 3; ++i) {
    single.run_iteration();
    multi.run_iteration();
  }
  const double r1 = eval::rmse(prob.ds.test, single.x(), single.theta());
  const double rp = eval::rmse(prob.ds.test, multi.x(), multi.theta());
  EXPECT_NEAR(r1, rp, 1e-4);
  // Multiple devices must not be slower in modeled time even on this tiny,
  // overhead-bound problem (the near-linear Fig. 9 scaling needs real work
  // per launch — asserted in ModelParallelSpeedupOnComputeBoundProblem).
  EXPECT_GT(single.modeled_seconds() / multi.modeled_seconds(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, MultiDeviceSolverTest,
                         ::testing::Values(2, 4));

TEST(Solver, ModelParallelSpeedupOnComputeBoundProblem) {
  auto prob = make_speedup_problem();

  Device single_dev(0, gpusim::titan_x());
  AlsSolver single({&single_dev}, PcieTopology::flat(1), prob.ds.train_csr,
                   prob.ds.train_rt_csr, prob.cfg);
  // Several iterations so the warm, device-resident regime dominates the
  // cold first-load (as in any real training run).
  for (int i = 0; i < 3; ++i) single.run_iteration();

  double prev = single.modeled_seconds();
  for (const int P : {2, 4}) {
    gpusim::DeviceGroup group(P, gpusim::titan_x(),
                              PcieTopology::two_socket(P));
    AlsSolver multi(group.pointers(), PcieTopology::two_socket(P),
                    prob.ds.train_csr, prob.ds.train_rt_csr, prob.cfg);
    EXPECT_EQ(multi.plan_x().mode, ParallelMode::ModelParallel);
    for (int i = 0; i < 3; ++i) multi.run_iteration();
    // Fig. 9: close-to-linear. Allow generous slack for the fixed overheads
    // that remain at this scale, but require real scaling at each doubling.
    EXPECT_GT(single.modeled_seconds() / multi.modeled_seconds(),
              P == 2 ? 1.6 : 2.4)
        << "P=" << P;
    EXPECT_LT(multi.modeled_seconds(), prev);
    prev = multi.modeled_seconds();
  }
}

TEST(Solver, DataParallelMatchesSingleDevice) {
  auto prob = make_problem();

  Device single_dev(0, gpusim::titan_x());
  AlsSolver single({&single_dev}, PcieTopology::flat(1), prob.ds.train_csr,
                   prob.ds.train_rt_csr, prob.cfg);

  // Force SU-ALS with p=4, q=3 on both sides.
  SolverConfig dp_cfg = prob.cfg;
  Plan forced;
  forced.mode = ParallelMode::DataParallel;
  forced.p = 4;
  forced.q = 3;
  dp_cfg.plan_x = forced;
  dp_cfg.plan_t = forced;
  dp_cfg.reduce = ReduceScheme::TwoPhase;

  gpusim::DeviceGroup group(4, gpusim::titan_x(),
                            PcieTopology::two_socket(4));
  std::vector<Device*> dptrs = group.pointers();
  AlsSolver multi(dptrs, PcieTopology::two_socket(4), prob.ds.train_csr,
                  prob.ds.train_rt_csr, dp_cfg);

  for (int i = 0; i < 3; ++i) {
    single.run_iteration();
    multi.run_iteration();
  }
  EXPECT_NEAR(eval::rmse(prob.ds.test, single.x(), single.theta()),
              eval::rmse(prob.ds.test, multi.x(), multi.theta()), 1e-3);
}

TEST(Solver, ElasticWavesHandleMorePartitionsThanDevices) {
  // Logical p=4 on 2 physical devices: partitions run in sequential waves
  // (§4.4 elasticity) and must produce the same factors.
  auto prob = make_problem();
  SolverConfig cfg = prob.cfg;
  Plan forced;
  forced.mode = ParallelMode::DataParallel;
  forced.p = 4;
  forced.q = 2;
  cfg.plan_x = forced;
  cfg.plan_t = forced;

  gpusim::DeviceGroup group(2, gpusim::titan_x(), PcieTopology::flat(2));
  std::vector<Device*> dptrs = group.pointers();
  AlsSolver elastic(dptrs, PcieTopology::flat(2), prob.ds.train_csr,
                    prob.ds.train_rt_csr, cfg);

  Device single_dev(0, gpusim::titan_x());
  AlsSolver single({&single_dev}, PcieTopology::flat(1), prob.ds.train_csr,
                   prob.ds.train_rt_csr, prob.cfg);
  for (int i = 0; i < 2; ++i) {
    elastic.run_iteration();
    single.run_iteration();
  }
  EXPECT_NEAR(eval::rmse(prob.ds.test, single.x(), single.theta()),
              eval::rmse(prob.ds.test, elastic.x(), elastic.theta()), 1e-3);
}

TEST(Solver, ReduceSchemesAgreeNumerically) {
  auto prob = make_problem();
  Plan forced;
  forced.mode = ParallelMode::DataParallel;
  forced.p = 4;
  forced.q = 2;

  std::vector<double> rmses;
  for (const auto scheme : {ReduceScheme::SingleDevice, ReduceScheme::OnePhase,
                            ReduceScheme::TwoPhase}) {
    SolverConfig cfg = prob.cfg;
    cfg.plan_x = forced;
    cfg.plan_t = forced;
    cfg.reduce = scheme;
    gpusim::DeviceGroup group(4, gpusim::titan_x(),
                              PcieTopology::two_socket(4));
    std::vector<Device*> dptrs = group.pointers();
    AlsSolver solver(dptrs, PcieTopology::two_socket(4), prob.ds.train_csr,
                     prob.ds.train_rt_csr, cfg);
    solver.run_iteration();
    solver.run_iteration();
    rmses.push_back(eval::rmse(prob.ds.test, solver.x(), solver.theta()));
  }
  EXPECT_NEAR(rmses[0], rmses[1], 1e-9);  // bit-identical summation order
  EXPECT_NEAR(rmses[0], rmses[2], 1e-9);
}

TEST(Solver, CgBackendMatchesCholesky) {
  // The als_cg-style approximate solver must track the exact factorization
  // closely (warm starts make a few CG steps per system sufficient).
  auto prob = make_problem();
  SolverConfig cg_cfg = prob.cfg;
  cg_cfg.als.solve_backend = SolveBackend::ConjugateGradient;
  cg_cfg.als.cg_max_iters = 12;
  cg_cfg.als.cg_tolerance = 1e-6;

  Device dev_a(0, gpusim::titan_x());
  AlsSolver chol({&dev_a}, PcieTopology::flat(1), prob.ds.train_csr,
                 prob.ds.train_rt_csr, prob.cfg);
  Device dev_b(0, gpusim::titan_x());
  AlsSolver cg({&dev_b}, PcieTopology::flat(1), prob.ds.train_csr,
               prob.ds.train_rt_csr, cg_cfg);
  for (int i = 0; i < 4; ++i) {
    chol.run_iteration();
    cg.run_iteration();
  }
  EXPECT_NEAR(eval::rmse(prob.ds.test, chol.x(), chol.theta()),
              eval::rmse(prob.ds.test, cg.x(), cg.theta()), 2e-2);
}

TEST(Solver, CgBackendConvergesStandalone) {
  auto prob = make_problem();
  SolverConfig cfg = prob.cfg;
  cfg.als.solve_backend = SolveBackend::ConjugateGradient;
  cfg.als.cg_max_iters = 6;
  Device dev(0, gpusim::titan_x());
  AlsSolver solver({&dev}, PcieTopology::flat(1), prob.ds.train_csr,
                   prob.ds.train_rt_csr, cfg);
  const auto hist = solver.train(6, &prob.ds.train, &prob.ds.test, "cg");
  EXPECT_LT(hist.points.back().test_rmse, 0.6);
}

TEST(BatchSolveCg, WarmStartReducesIterations) {
  // Solve the same batch twice; the second pass starts at the solution and
  // should take (almost) no iterations — the ALS warm-start effect.
  const int f = 8;
  const idx_t count = 16;
  util::Rng rng(555);
  std::vector<real_t> A(static_cast<std::size_t>(count) * f * f, 0.0f);
  std::vector<real_t> B(static_cast<std::size_t>(count) * f);
  for (auto& v : B) v = static_cast<real_t>(rng.uniform(-1.0, 1.0));
  for (idx_t u = 0; u < count; ++u) {
    real_t* a = A.data() + static_cast<std::size_t>(u) * f * f;
    for (int i = 0; i < f; ++i) {
      a[static_cast<std::size_t>(i) * f + i] = static_cast<real_t>(2 + (u % 3));
    }
  }
  std::vector<real_t> x(static_cast<std::size_t>(count) * f, 0.0f);
  Device dev(0, gpusim::titan_x());
  const auto iters_cold =
      batch_solve_block_cg(dev, A.data(), B.data(), count, f, x.data(), 20, 1e-6);
  const auto iters_warm =
      batch_solve_block_cg(dev, A.data(), B.data(), count, f, x.data(), 20, 1e-6);
  EXPECT_GT(iters_cold, 0);
  EXPECT_LT(iters_warm, iters_cold / 4 + 1);
}

TEST(Solver, ProfileAccountsPhases) {
  auto prob = make_problem();
  Device dev(0, gpusim::titan_x());
  AlsSolver solver({&dev}, PcieTopology::flat(1), prob.ds.train_csr,
                   prob.ds.train_rt_csr, prob.cfg);
  solver.run_iteration();
  const PhaseProfile& prof = solver.profile();
  EXPECT_GT(prof.get_hermitian, 0.0);
  EXPECT_GT(prof.batch_solve, 0.0);
  EXPECT_GT(prof.transfer, 0.0);
  EXPECT_DOUBLE_EQ(prof.reduce, 0.0);  // single device: no reduction
}

TEST(Solver, RejectsMismatchedInputs) {
  auto prob = make_problem();
  Device dev(0, gpusim::titan_x());
  // Rt deliberately wrong: use R itself.
  EXPECT_THROW(AlsSolver({&dev}, PcieTopology::flat(1), prob.ds.train_csr,
                         prob.ds.train_csr, prob.cfg),
               std::invalid_argument);
  EXPECT_THROW(AlsSolver({}, PcieTopology::flat(1), prob.ds.train_csr,
                         prob.ds.train_rt_csr, prob.cfg),
               std::invalid_argument);
}

// ------------------------------------------------------------- implicit ----

TEST(ImplicitAls, GramMatchesBruteForce) {
  const int f = 7;
  const idx_t n = 50;
  const auto theta = random_theta(n, f, 910);
  Device dev(0, gpusim::titan_x());
  std::vector<real_t> G(static_cast<std::size_t>(f) * f);
  gram_kernel(dev, theta.data(), n, f, G.data());

  for (int i = 0; i < f; ++i) {
    for (int j = 0; j < f; ++j) {
      double expect = 0.0;
      for (idx_t v = 0; v < n; ++v) {
        expect += static_cast<double>(theta[static_cast<std::size_t>(v) * f + i]) *
                  theta[static_cast<std::size_t>(v) * f + j];
      }
      EXPECT_NEAR(G[static_cast<std::size_t>(i) * f + j], expect, 1e-3);
    }
  }
}

// Partial Grams must reduce in a fixed order, not in chunk finish order, or
// implicit-ALS factors change bit for bit from run to run.
TEST(ImplicitAls, GramIsBitReproducible) {
  const int f = 32;
  const idx_t n = 100000;
  const auto theta = random_theta(n, f, 930);
  Device dev(0, gpusim::titan_x());
  const std::size_t fsq = static_cast<std::size_t>(f) * f;
  std::vector<real_t> first(fsq);
  std::vector<real_t> G(fsq);
  gram_kernel(dev, theta.data(), n, f, first.data());
  for (int call = 0; call < 10; ++call) {
    gram_kernel(dev, theta.data(), n, f, G.data());
    ASSERT_EQ(std::memcmp(G.data(), first.data(), fsq * sizeof(real_t)), 0)
        << "call " << call;
  }
}

TEST(ImplicitAls, HermitianMatchesBruteForce) {
  const int f = 6;
  const real_t lambda = 0.1f;
  const real_t alpha = 10.0f;
  const auto R = small_ratings(20, 15, 120, 920);
  const auto theta = random_theta(15, f, 921);
  Device dev(0, gpusim::titan_x());

  std::vector<real_t> G(static_cast<std::size_t>(f) * f);
  gram_kernel(dev, theta.data(), 15, f, G.data());
  std::vector<real_t> A(static_cast<std::size_t>(R.rows) * f * f);
  std::vector<real_t> B(static_cast<std::size_t>(R.rows) * f);
  get_hermitian_implicit(dev, R, 0, R.rows, theta.data(), G.data(), f, lambda,
                         alpha, {}, A.data(), B.data());

  for (idx_t u = 0; u < R.rows; ++u) {
    const auto cols = R.row_cols(u);
    const auto vals = R.row_vals(u);
    for (int i = 0; i < f; ++i) {
      for (int j = 0; j < f; ++j) {
        double expect = G[static_cast<std::size_t>(i) * f + j];
        if (i == j) expect += lambda;
        for (std::size_t k = 0; k < cols.size(); ++k) {
          const real_t* tv = theta.data() + static_cast<std::size_t>(cols[k]) * f;
          expect += static_cast<double>(alpha) * vals[k] *
                    static_cast<double>(tv[i]) * tv[j];
        }
        EXPECT_NEAR(A[static_cast<std::size_t>(u) * f * f +
                      static_cast<std::size_t>(i) * f + j],
                    expect, 2e-2)
            << "u=" << u;
      }
      double expect_b = 0.0;
      for (std::size_t k = 0; k < cols.size(); ++k) {
        expect_b += (1.0 + static_cast<double>(alpha) * vals[k]) *
                    theta[static_cast<std::size_t>(cols[k]) * f + i];
      }
      EXPECT_NEAR(B[static_cast<std::size_t>(u) * f + i], expect_b, 1e-2);
    }
  }
}

TEST(ImplicitAls, RanksHeldOutPositivesAboveRandom) {
  // Planted preference structure: generate explicit ratings, keep the liked
  // ones as implicit counts, train implicit ALS, and check AUC.
  data::SyntheticOptions gen;
  gen.m = 400;
  gen.n = 150;
  gen.nz = 16000;
  gen.f_true = 8;
  gen.noise_std = 0.3;
  gen.seed = 930;
  const auto raw = data::generate_ratings(gen);
  sparse::CooMatrix implicit;
  implicit.rows = raw.rows;
  implicit.cols = raw.cols;
  for (std::size_t k = 0; k < raw.val.size(); ++k) {
    if (raw.val[k] > 3.5f) {
      implicit.push_back(raw.row[k], raw.col[k], raw.val[k] - 3.5f);
    }
  }
  util::Rng rng(931);
  auto split = sparse::split_ratings(implicit, 0.2, rng);
  const auto R = sparse::coo_to_csr(split.train);
  const auto Rt = sparse::csc_as_csr_of_transpose(sparse::csr_to_csc(R));

  Device dev(0, gpusim::titan_x());
  ImplicitAlsOptions opt;
  opt.f = 12;
  opt.alpha = 20.0f;
  ImplicitAlsSolver solver(dev, R, Rt, opt);
  for (int i = 0; i < 6; ++i) solver.run_iteration();
  EXPECT_EQ(solver.iterations_run(), 6);
  EXPECT_GT(solver.modeled_seconds(), 0.0);

  // AUC with true negatives only (items the user never interacted with).
  std::vector<std::unordered_set<idx_t>> interacted(
      static_cast<std::size_t>(implicit.rows));
  for (std::size_t k = 0; k < implicit.val.size(); ++k) {
    interacted[static_cast<std::size_t>(implicit.row[k])].insert(
        implicit.col[k]);
  }
  long long wins = 0, trials = 0;
  for (std::size_t k = 0; k < split.test.val.size(); ++k) {
    const idx_t u = split.test.row[k];
    const double pos = linalg::dot(solver.x().row(u),
                                   solver.theta().row(split.test.col[k]),
                                   opt.f);
    for (int t = 0; t < 4; ++t) {
      const auto neg = static_cast<idx_t>(rng.next_below(
          static_cast<std::uint64_t>(R.cols)));
      if (interacted[static_cast<std::size_t>(u)].count(neg)) continue;
      const double score =
          linalg::dot(solver.x().row(u), solver.theta().row(neg), opt.f);
      ++trials;
      if (pos > score) ++wins;
    }
  }
  EXPECT_GT(static_cast<double>(wins) / static_cast<double>(trials), 0.68);
}

TEST(ImplicitAls, RejectsMismatchedShapes) {
  const auto R = small_ratings(10, 8, 40, 940);
  Device dev(0, gpusim::titan_x());
  EXPECT_THROW(ImplicitAlsSolver(dev, R, R, {}), std::invalid_argument);
}

// ---------------------------------------------------------- checkpoint -----

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/cumf_ckpt_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(CheckpointTest, RoundTrip) {
  util::Rng rng(71);
  linalg::FactorMatrix x(20, 4), theta(15, 4);
  x.randomize(rng);
  theta.randomize(rng);
  CheckpointManager mgr(dir_);
  mgr.save_x(x, 3);
  mgr.save_theta(theta, 3);
  const auto restored = mgr.restore();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->x.data(), x.data());
  EXPECT_EQ(restored->theta.data(), theta.data());
  EXPECT_EQ(restored->resume_iteration(), 3);
}

TEST_F(CheckpointTest, FallsBackToPreviousOnCorruption) {
  util::Rng rng(73);
  linalg::FactorMatrix x1(10, 2), x2(10, 2), theta(8, 2);
  x1.randomize(rng);
  x2.randomize(rng);
  theta.randomize(rng);
  CheckpointManager mgr(dir_);
  mgr.save_x(x1, 1);
  mgr.save_x(x2, 2);  // rotates x1 into x.prev.ckpt
  mgr.save_theta(theta, 2);

  // Simulate a crash mid-write: corrupt the current x checkpoint.
  {
    std::ofstream f(dir_ + "/x.ckpt",
                    std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(30);
    f.put('\x7f');
  }
  const auto restored = mgr.restore();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->x.data(), x1.data());  // previous snapshot
  EXPECT_EQ(restored->x_iteration, 1);
  EXPECT_EQ(restored->resume_iteration(), 1);
}

TEST_F(CheckpointTest, ConcurrentSaversNeverExposeATornSnapshot) {
  // Two writers rotate + publish the same stems while a reader restores in
  // a tight loop — the retrain daemon's exact access pattern. Every
  // successful restore must be a self-consistent snapshot (each factor's
  // entries all equal its iteration stamp); the unique-temp + atomic-rename
  // publish is what makes a torn or writer-interleaved file impossible.
  constexpr int kWriters = 2;
  constexpr int kSavesPerWriter = 40;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> restored_ok{0};

  std::thread reader([&] {
    const CheckpointManager mgr(dir_);
    while (!stop.load(std::memory_order_acquire)) {
      const auto r = mgr.restore();
      if (!r) continue;  // nothing published yet (or rotation in flight)
      const auto consistent = [](const linalg::FactorMatrix& m, int iter) {
        return std::all_of(m.data().begin(), m.data().end(), [&](real_t v) {
          return v == static_cast<real_t>(iter);
        });
      };
      if (!consistent(r->x, r->x_iteration) ||
          !consistent(r->theta, r->theta_iteration)) {
        torn.fetch_add(1);
      }
      restored_ok.fetch_add(1);
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      CheckpointManager mgr(dir_);
      for (int i = 0; i < kSavesPerWriter; ++i) {
        const int stamp = w * kSavesPerWriter + i + 1;
        linalg::FactorMatrix x(64, 8), theta(48, 8);
        std::fill(x.data().begin(), x.data().end(),
                  static_cast<real_t>(stamp));
        std::fill(theta.data().begin(), theta.data().end(),
                  static_cast<real_t>(stamp));
        mgr.save_x(x, stamp);
        mgr.save_theta(theta, stamp);
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_GT(restored_ok.load(), 0);
  // After the dust settles the directory holds a complete valid snapshot.
  const auto settled = CheckpointManager(dir_).restore();
  ASSERT_TRUE(settled.has_value());
  EXPECT_GE(settled->resume_iteration(), 1);
}

TEST_F(CheckpointTest, EmptyDirRestoresNothing) {
  CheckpointManager mgr(dir_);
  EXPECT_FALSE(mgr.restore().has_value());
}

TEST_F(CheckpointTest, ResumeProducesSameTrajectory) {
  auto prob = make_problem();
  Device dev_a(0, gpusim::titan_x());
  AlsSolver full({&dev_a}, PcieTopology::flat(1), prob.ds.train_csr,
                 prob.ds.train_rt_csr, prob.cfg);
  CheckpointManager mgr(dir_);
  for (int i = 1; i <= 2; ++i) {
    full.run_iteration();
    mgr.save_x(full.x(), i);
    mgr.save_theta(full.theta(), i);
  }
  full.run_iteration();  // iteration 3 of the uninterrupted run
  const double rmse_full = eval::rmse(prob.ds.test, full.x(), full.theta());

  // "Machine failure": fresh solver restored from the checkpoint.
  Device dev_b(0, gpusim::titan_x());
  AlsSolver resumed({&dev_b}, PcieTopology::flat(1), prob.ds.train_csr,
                    prob.ds.train_rt_csr, prob.cfg);
  auto restored = mgr.restore();
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->resume_iteration(), 2);
  resumed.set_factors(std::move(restored->x), std::move(restored->theta));
  resumed.run_iteration();
  EXPECT_NEAR(eval::rmse(prob.ds.test, resumed.x(), resumed.theta()),
              rmse_full, 1e-6);
}

// ----------------------------------------------------------------- ooc -----

class OocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/cumf_ooc_" +
           std::to_string(reinterpret_cast<std::uintptr_t>(this));
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string dir_;
};

TEST_F(OocTest, StoreRoundTripsBlocks) {
  const auto R = small_ratings(60, 40, 900, 81);
  const auto part = sparse::grid_partition(R, 2, 3);
  const auto store = OocBlockStore::create(dir_, part);
  EXPECT_EQ(store.p(), 2);
  EXPECT_EQ(store.q(), 3);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      const auto blk = store.load_block(i, j);
      EXPECT_EQ(sparse::to_dense(blk), sparse::to_dense(part.block(i, j).local))
          << "block " << i << "," << j;
    }
  }
}

TEST_F(OocTest, ReopenReadsManifest) {
  const auto R = small_ratings(30, 20, 300, 83);
  const auto part = sparse::grid_partition(R, 2, 2);
  OocBlockStore::create(dir_, part);
  const OocBlockStore reopened(dir_);
  EXPECT_EQ(reopened.p(), 2);
  EXPECT_EQ(reopened.q(), 2);
  EXPECT_EQ(reopened.load_block(1, 1).nnz(), part.block(1, 1).local.nnz());
}

TEST_F(OocTest, PrefetcherDeliversScheduleInOrder) {
  const auto R = small_ratings(50, 30, 600, 87);
  const auto part = sparse::grid_partition(R, 2, 2);
  const auto store = OocBlockStore::create(dir_, part);

  std::vector<std::pair<int, int>> schedule{{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  OocPrefetcher prefetcher(store, schedule);
  for (const auto& [i, j] : schedule) {
    ASSERT_TRUE(prefetcher.has_next());
    const auto blk = prefetcher.next();
    EXPECT_EQ(blk.nnz(), part.block(i, j).local.nnz());
  }
  EXPECT_FALSE(prefetcher.has_next());
  EXPECT_THROW(prefetcher.next(), std::out_of_range);
  EXPECT_GE(prefetcher.stall_seconds(), 0.0);
}

TEST_F(OocTest, BadBlockIndexThrows) {
  const auto R = small_ratings(20, 10, 100, 91);
  const auto store = OocBlockStore::create(dir_, sparse::grid_partition(R, 1, 1));
  EXPECT_THROW(store.load_block(5, 0), std::out_of_range);
}

TEST_F(OocTest, MissingManifestThrows) {
  std::filesystem::create_directories(dir_);
  EXPECT_THROW(OocBlockStore{dir_}, std::runtime_error);
}

}  // namespace
}  // namespace cumf::core
