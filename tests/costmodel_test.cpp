#include <gtest/gtest.h>

#include "costmodel/machines.hpp"
#include "costmodel/projection.hpp"
#include "costmodel/roofline.hpp"
#include "costmodel/serving_fleet.hpp"
#include "costmodel/table3.hpp"
#include "core/kernels.hpp"
#include "data/datasets.hpp"
#include "gpusim/device.hpp"
#include "gpusim/device_group.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/topology.hpp"
#include "serve/factor_store.hpp"
#include "serve/multi_device_backend.hpp"
#include "serve/topk.hpp"
#include "serve_test_util.hpp"

namespace cumf::costmodel {
namespace {

// -------------------------------------------------------------- table3 -----

TEST(Table3, NetflixCapacityArgument) {
  // §2.2: Netflix at f=100 needs m·f² = 4.8e9 floats for the Hermitians
  // alone — more than the 3e9 floats a 12 GB device can hold.
  Table3Model model{480'189, 17'770, 99'000'000, 100};
  const auto all = model.all_items();
  EXPECT_NEAR(all.a_mem_floats, 4.80189e9, 1e7);
  EXPECT_GT(all.a_mem_floats * sizeof(real_t),
            static_cast<double>(12_GiB));
}

TEST(Table3, OneItemFormulas) {
  Table3Model model{1000, 500, 100'000, 10};
  const auto one = model.one_item();
  // Nz/m = 100 ratings per row; A: 100·10·11/2 = 5500 multiplies.
  EXPECT_NEAR(one.a_compute, 5500.0, 1e-9);
  // B: (Nz + Nz·f)/m + 2f = (100000 + 1000000)/1000 + 20 = 1120.
  EXPECT_NEAR(one.b_compute, 1120.0, 1e-9);
  EXPECT_NEAR(one.solve_compute, 1000.0, 1e-9);
  EXPECT_NEAR(one.a_mem_floats, 100.0, 1e-9);
  // n·f + f + (2Nz+m+1)/m = 5000 + 10 + 201.001 = 5211.001.
  EXPECT_NEAR(one.b_mem_floats, 5211.001, 1e-3);
}

TEST(Table3, BatchScalesLinearly) {
  Table3Model model{1000, 500, 100'000, 10};
  const auto one = model.one_item();
  const auto batch = model.batch(50);
  EXPECT_NEAR(batch.a_compute, 50 * one.a_compute, 1e-6);
  EXPECT_NEAR(batch.solve_compute, 50 * one.solve_compute, 1e-6);
  EXPECT_NEAR(batch.a_mem_floats, 50 * one.a_mem_floats, 1e-6);
}

TEST(Table3, CountersMatchModel) {
  // The simulator's analytic kernel stats must agree with Table 3's compute
  // model (flops ≈ 2× multiplies for the A term, plus the B term).
  const nnz_t nz = 100'000;
  const idx_t rows = 1000;
  const int f = 10;
  Table3Model model{rows, 500, nz, f};
  const auto row3 = model.all_items();
  const auto stats = core::hermitian_kernel_stats(nz, rows, f, {});
  const double expect_flops = 2.0 * row3.a_compute + row3.b_compute;
  EXPECT_NEAR(stats.flops / expect_flops, 1.0, 0.1);
}

// ------------------------------------------------------------ machines -----

TEST(Machines, LibmfStopsScalingAt16) {
  const double eff16 = libmf_efficiency(16);
  const double eff32 = libmf_efficiency(32);
  // Throughput = threads × efficiency: must plateau, not double.
  EXPECT_LT(32 * eff32, 16 * eff16 * 1.15);
  EXPECT_GT(16 * eff16, 8 * libmf_efficiency(8));
}

TEST(Machines, NomadKeepsScaling) {
  EXPECT_GT(30 * nomad_efficiency(30), 16 * nomad_efficiency(16));
}

TEST(Machines, SgdEpochScalesWithWork) {
  const CpuSpec cpu = xeon_30core();
  const double t1 = sgd_epoch_seconds(cpu, 30, 0.7, 1e8, 32);
  const double t2 = sgd_epoch_seconds(cpu, 30, 0.7, 2e8, 32);
  EXPECT_NEAR(t2 / t1, 2.0, 1e-6);
  EXPECT_GT(t1, 0.0);
}

TEST(Machines, ClusterEpochIncludesCommunication) {
  const ClusterSpec aws = nomad_aws32();
  const double no_comm = cluster_sgd_epoch_seconds(aws, 3.1e9, 100, 0.0);
  const double comm = cluster_sgd_epoch_seconds(
      aws, 3.1e9, 100, (50e6 + 40e3) * 100.0);
  EXPECT_GE(comm, no_comm);
}

TEST(Machines, HpcClusterFasterThanAws) {
  // Fig. 10: NOMAD on 64 HPC nodes ≈ 10× NOMAD on 32 AWS nodes.
  const double model_floats = (50'082'603.0 + 39'780.0) * 100.0;
  const double hpc = cluster_sgd_epoch_seconds(nomad_hpc64(), 3.1e9, 100,
                                               model_floats);
  const double aws = cluster_sgd_epoch_seconds(nomad_aws32(), 3.1e9, 100,
                                               model_floats);
  EXPECT_GT(aws / hpc, 3.0);
}

TEST(Machines, CostFormula) {
  // Table 1: cost = price × nodes × hours. 50 nodes at $0.53 for 240 s.
  EXPECT_NEAR(run_cost_dollars(0.53, 50, 240.0), 0.53 * 50 * 240 / 3600.0,
              1e-12);
}

// ------------------------------------------------------------ roofline -----

TEST(Roofline, BandwidthBoundBelowRidge) {
  const auto spec = gpusim::titan_x();
  const double ridge = roofline_ridge(spec);
  EXPECT_LT(roofline_gflops(spec, ridge / 2), spec.peak_sp_gflops * 0.51);
  EXPECT_NEAR(roofline_gflops(spec, ridge * 10), spec.peak_sp_gflops, 1e-6);
}

TEST(Roofline, MoKernelHasHigherIntensityThanBase) {
  // The entire point of §3: MO-ALS raises arithmetic intensity by moving
  // reuse into shared/registers, climbing the roofline.
  const double mo = hermitian_intensity_mo(99e6, 480189, 100);
  const double base = hermitian_intensity_base(99e6, 480189, 100);
  EXPECT_GT(mo / base, 5.0);
}

// ---------------------------------------------------------- projection -----

TEST(Projection, SparkAlsIterationInPaperRange) {
  // The paper measures 24 s/iteration for the SparkALS workload on 4 GK210s.
  // The projection must land in that neighbourhood (same order, ±4×).
  const auto topo = gpusim::PcieTopology::two_socket(4);
  const auto proj = project_cumf_iteration(data::sparkals(), gpusim::gk210(),
                                           4, topo, core::ReduceScheme::TwoPhase);
  EXPECT_GT(proj.iteration_seconds(), kSparkAlsCumfSecPerIter / 4.0);
  EXPECT_LT(proj.iteration_seconds(), kSparkAlsCumfSecPerIter * 4.0);
  // And it must beat SparkALS's published 240 s by a wide margin.
  EXPECT_LT(proj.iteration_seconds(), kSparkAlsSecPerIter / 2.0);
}

TEST(Projection, FacebookUsesDataParallelismForTheta) {
  // §5.5: solving Θ against the 1B-row X requires data parallelism; X cannot
  // be replicated.
  const auto topo = gpusim::PcieTopology::two_socket(4);
  const auto proj = project_cumf_iteration(data::facebook(), gpusim::gk210(),
                                           4, topo, core::ReduceScheme::TwoPhase);
  EXPECT_EQ(proj.plan_theta.mode, core::ParallelMode::DataParallel);
}

TEST(Projection, LargerFIsSlower) {
  // §5.5: f=100 on the Facebook shape takes hours vs 746 s at f=16.
  const auto topo = gpusim::PcieTopology::two_socket(4);
  const auto f16 = project_cumf_iteration(data::facebook(), gpusim::gk210(), 4,
                                          topo, core::ReduceScheme::TwoPhase);
  const auto f100 = project_cumf_iteration(data::cumf_largest(),
                                           gpusim::gk210(), 4, topo,
                                           core::ReduceScheme::TwoPhase);
  EXPECT_GT(f100.iteration_seconds() / f16.iteration_seconds(), 5.0);
}

TEST(Projection, MoreDevicesAreFaster) {
  const auto topo1 = gpusim::PcieTopology::flat(1);
  const auto topo4 = gpusim::PcieTopology::two_socket(4);
  const auto p1 = project_cumf_iteration(data::hugewiki(), gpusim::titan_x(),
                                         1, topo1, core::ReduceScheme::OnePhase);
  const auto p4 = project_cumf_iteration(data::hugewiki(), gpusim::titan_x(),
                                         4, topo4, core::ReduceScheme::TwoPhase);
  EXPECT_GT(p1.iteration_seconds() / p4.iteration_seconds(), 1.8);
}

// ------------------------------------------------------- serving fleet -----

TEST(ServingFleet, DeviceQpsFromProfile) {
  ServingProfile p;
  p.batch_seconds = 2e-3;
  p.batch_users = 32;
  EXPECT_DOUBLE_EQ(p.device_qps(), 16'000.0);
  EXPECT_DOUBLE_EQ(ServingProfile{}.device_qps(), 0.0);
}

TEST(ServingFleet, ModeledProfilePaysPerLaunchOverhead) {
  const auto spec = gpusim::titan_x();
  gpusim::KernelStats traffic;
  traffic.flops = 1e9;
  traffic.global_read = 100'000'000;
  const auto one = model_serving_profile(spec, traffic, 1, 32);
  const auto eight = model_serving_profile(spec, traffic, 8, 32);
  EXPECT_GT(one.batch_seconds, 0.0);
  EXPECT_NEAR(eight.batch_seconds - one.batch_seconds,
              7 * spec.kernel_launch_overhead_us * 1e-6, 1e-12);
}

TEST(ServingFleet, SizesFleetToCapacityAndPricesIt) {
  ServingProfile p;
  p.batch_seconds = 2e-3;  // 16k qps/device
  p.batch_users = 32;
  FleetRequirement req;
  req.target_qps = 48'000.0;  // exactly 3 devices of capacity...
  req.p99_ms = 50.0;          // generous SLO: capacity decides
  const auto plan =
      plan_serving_fleet(req, gpusim::titan_x(), 0.91, p);
  ASSERT_TRUE(plan.feasible);
  // ...but at ρ=1 the queue diverges, so the plan needs headroom: 4 devices.
  EXPECT_EQ(plan.devices, 4);
  EXPECT_DOUBLE_EQ(plan.dollars_per_hr, 4 * 0.91);
  EXPECT_DOUBLE_EQ(plan.qps_per_dollar_hr, 48'000.0 / (4 * 0.91));
  EXPECT_DOUBLE_EQ(plan.fleet_qps, 4 * 16'000.0);
  EXPECT_LE(plan.modeled_p99_ms, req.p99_ms);
}

TEST(ServingFleet, MoreLoadNeedsMoreDevices) {
  ServingProfile p;
  p.batch_seconds = 2e-3;
  p.batch_users = 32;
  FleetRequirement req;
  req.p99_ms = 50.0;
  req.target_qps = 40'000.0;
  const auto small = plan_serving_fleet(req, gpusim::gk210(), 0.61, p);
  req.target_qps = 400'000.0;
  const auto large = plan_serving_fleet(req, gpusim::gk210(), 0.61, p);
  ASSERT_TRUE(small.feasible);
  ASSERT_TRUE(large.feasible);
  EXPECT_GT(large.devices, small.devices);
  EXPECT_GT(large.dollars_per_hr, small.dollars_per_hr);
}

TEST(ServingFleet, SloBelowKernelTimeIsInfeasible) {
  ServingProfile p;
  p.batch_seconds = 10e-3;  // one batch alone takes 10 ms
  p.batch_users = 32;
  FleetRequirement req;
  req.target_qps = 1000.0;
  req.p99_ms = 5.0;  // < service time: no fleet size can meet it
  const auto plan = plan_serving_fleet(req, gpusim::titan_x(), 0.91, p);
  EXPECT_FALSE(plan.feasible);
  EXPECT_GT(plan.devices, 0);  // still reports the best-achievable plan
  EXPECT_GT(plan.modeled_p99_ms, req.p99_ms);
}

TEST(ServingFleet, TighterSloNeverCheapens) {
  ServingProfile p;
  p.batch_seconds = 1e-3;
  p.batch_users = 32;
  FleetRequirement req;
  req.target_qps = 100'000.0;
  req.p99_ms = 50.0;
  const auto loose = plan_serving_fleet(req, gpusim::gk210(), 0.61, p);
  // 4 devices model at p99 ≈ 4.07 ms; a 4.0 ms SLO forces a fifth.
  req.p99_ms = 4.0;
  const auto tight = plan_serving_fleet(req, gpusim::gk210(), 0.61, p);
  ASSERT_TRUE(loose.feasible);
  ASSERT_TRUE(tight.feasible);
  EXPECT_GT(tight.devices, loose.devices);
}

TEST(ServingFleet, ProfileFromMeasuredBackendSweepsSizesAFeasibleFleet) {
  // End-to-end: the profile the planner prices can come straight from
  // a one-device MultiDeviceScoringBackend's accounted sweeps over a real
  // (small) model — the same serve_test fixtures the serving suites train
  // against.
  const auto x = serve_test::random_factors(64, 16, 501);
  const auto theta = serve_test::random_factors(256, 16, 502);
  const serve::FactorStore store(x, theta, 2);

  const auto topo = gpusim::PcieTopology::flat(1);
  gpusim::DeviceGroup group(1, gpusim::titan_x(), topo);
  serve::MultiDeviceScoringBackend backend(group, topo);
  serve::TopKOptions opt;
  opt.user_block = 16;
  opt.backend = &backend;
  const serve::TopKEngine engine(store, opt);

  std::vector<idx_t> users(16);
  for (idx_t u = 0; u < 16; ++u) users[static_cast<std::size_t>(u)] = u;
  for (int batch = 0; batch < 4; ++batch) (void)engine.recommend(users, 8);

  ServingProfile profile;
  profile.batch_seconds = engine.batch_modeled_summary().p50_ms * 1e-3;
  profile.batch_users = 16;
  ASSERT_GT(profile.batch_seconds, 0.0);
  ASSERT_GT(profile.device_qps(), 0.0);

  FleetRequirement req;
  req.target_qps = profile.device_qps() * 2.5;  // forces a multi-device fleet
  req.p99_ms = 50.0;
  const auto plan = plan_serving_fleet(req, gpusim::titan_x(), 0.91, profile);
  ASSERT_TRUE(plan.feasible);
  EXPECT_GE(plan.devices, 3);
  EXPECT_DOUBLE_EQ(plan.dollars_per_hr, plan.devices * 0.91);
  EXPECT_LE(plan.modeled_p99_ms, req.p99_ms);
}

TEST(ServingFleet, MeasuredProfileCarriesBatchTimeAndQueueFloor) {
  serve::ServeStats stats;
  stats.batch_wall.p50_ms = 2.0;
  stats.batch_wall.total_recorded = 10;
  stats.batch_modeled.p50_ms = 0.5;
  stats.queue_delay.p99_ms = 3.0;

  const auto wall = measured_serving_profile(stats, 32);
  EXPECT_DOUBLE_EQ(wall.batch_seconds, 2e-3);
  EXPECT_EQ(wall.batch_users, 32);
  EXPECT_DOUBLE_EQ(wall.queue_floor_s, 3e-3);
  EXPECT_DOUBLE_EQ(wall.device_qps(), 16'000.0);

  // use_modeled prefers the backend's modeled axis when it was populated...
  stats.batch_modeled.total_recorded = 10;
  EXPECT_DOUBLE_EQ(measured_serving_profile(stats, 32, true).batch_seconds,
                   0.5e-3);
  // ...and falls back to wall clock for wall-only backends.
  stats.batch_modeled.total_recorded = 0;
  EXPECT_DOUBLE_EQ(measured_serving_profile(stats, 32, true).batch_seconds,
                   2e-3);
}

TEST(ServingFleet, MeasuredQueueFloorRaisesModeledP99) {
  ServingProfile p;
  p.batch_seconds = 1e-3;
  p.batch_users = 32;
  FleetRequirement req;
  req.target_qps = 100'000.0;
  req.p99_ms = 6.0;
  const auto ideal = plan_serving_fleet(req, gpusim::gk210(), 0.61, p);
  ASSERT_TRUE(ideal.feasible);

  // A live batcher measured 8 ms of queueing at p99: no fleet size can get
  // p99 under floor + service, so the 6 ms SLO becomes infeasible — exactly
  // the queueing reality the analytic fill/queue terms alone hid.
  p.queue_floor_s = 8e-3;
  const auto floored = plan_serving_fleet(req, gpusim::gk210(), 0.61, p);
  EXPECT_FALSE(floored.feasible);
  EXPECT_GE(floored.modeled_p99_ms, 9.0);

  // A generous SLO is still met; the floor rides into its p99.
  req.p99_ms = 20.0;
  const auto loose = plan_serving_fleet(req, gpusim::gk210(), 0.61, p);
  ASSERT_TRUE(loose.feasible);
  EXPECT_GE(loose.modeled_p99_ms, 9.0);
  EXPECT_GT(floored.modeled_p99_ms, ideal.modeled_p99_ms);
}

TEST(ServingFleet, GpuPricingPresets) {
  // Table 1: the $2.44/hr node holds four GK210 devices.
  EXPECT_NEAR(gk210_pricing().price_per_device_hr,
              kCumfMachinePricePerHr / 4.0, 1e-12);
  EXPECT_EQ(gk210_pricing().name, "GK210");
  EXPECT_EQ(titan_x_pricing().name, gpusim::titan_x().name);
  EXPECT_GT(titan_x_pricing().price_per_device_hr, 0.0);
}

// ------------------------------------------------- multi-device fleets -----

TEST(MultiDeviceFleet, SingleDeviceNodeIsIdentity) {
  ServingProfile p;
  p.batch_seconds = 2e-3;
  p.batch_users = 32;
  MultiDeviceNode node{gpusim::gk210(), 0.61, 1, 12.0};
  const auto composed = node_serving_profile(p, node, 10);
  EXPECT_DOUBLE_EQ(composed.batch_seconds, p.batch_seconds);
  EXPECT_EQ(composed.batch_users, p.batch_users);
}

TEST(MultiDeviceFleet, NodeProfileSplitsKernelAndPaysGather) {
  ServingProfile p;
  p.batch_seconds = 2e-3;
  p.batch_users = 32;
  MultiDeviceNode node{gpusim::gk210(), 0.61, 2, 12.0};
  const auto composed = node_serving_profile(p, node, 10);
  // Kernel halves; gather = 2 · 32 · 10 · 8 B over 12 GB/s.
  const double gather_s = 2.0 * 32.0 * 10.0 * 8.0 / 12e9;
  EXPECT_DOUBLE_EQ(composed.batch_seconds, 1e-3 + gather_s);
  // A node outruns the single device when the gather is cheaper than the
  // kernel time it saves.
  EXPECT_LT(composed.batch_seconds, p.batch_seconds);
  // A larger k ships more candidates: the gather slice grows.
  EXPECT_GT(node_serving_profile(p, node, 100).batch_seconds,
            composed.batch_seconds);
}

TEST(MultiDeviceFleet, ImbalanceScalesTheKernelSliceOnly) {
  ServingProfile p;
  p.batch_seconds = 2e-3;
  p.batch_users = 32;
  MultiDeviceNode node{gpusim::gk210(), 0.61, 2, 12.0};
  const auto even = node_serving_profile(p, node, 10, 1.0);
  const auto skewed = node_serving_profile(p, node, 10, 1.5);
  EXPECT_NEAR(skewed.batch_seconds - even.batch_seconds,
              1e-3 * 0.5, 1e-12);  // kernel share 1.0→1.5 of the even half
  // Imbalance can never make a node slower than one device doing it all.
  const auto degenerate = node_serving_profile(p, node, 10, 5.0);
  EXPECT_LE(degenerate.batch_seconds - 2.0 * 32.0 * 10.0 * 8.0 / 12e9,
            p.batch_seconds);
}

TEST(MultiDeviceFleet, PlanReportsNodesDevicesAndInterconnect) {
  ServingProfile p;
  p.batch_seconds = 2e-3;
  p.batch_users = 32;
  FleetRequirement req;
  req.target_qps = 48'000.0;
  req.p99_ms = 50.0;
  MultiDeviceNode node{gpusim::gk210(), 0.61, 2, 12.0};
  const auto plan = plan_multi_device_fleet(req, node, p, 10);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.device, "GK210x2");
  EXPECT_EQ(plan.devices_per_node, 2);
  EXPECT_EQ(plan.devices, plan.nodes * 2);
  EXPECT_DOUBLE_EQ(plan.dollars_per_hr, plan.devices * 0.61);
  EXPECT_GT(plan.interconnect_ms, 0.0);
  EXPECT_LT(plan.interconnect_ms, 1.0);  // gather is µs-scale here
}

TEST(MultiDeviceFleet, TwoCheapDevicesCanBeatOneBigOne) {
  // The ISSUE's question: a catalog-heavy profile where one big device is
  // latency-bound. Two cheap devices halve the kernel time for a tiny gather
  // surcharge, meeting an SLO the single big device misses — and when both
  // are feasible, the planner's $/hr decides.
  ServingProfile big;
  big.batch_seconds = 6e-3;  // one Titan X batch takes 6 ms
  big.batch_users = 32;
  FleetRequirement req;
  req.target_qps = 20'000.0;
  // 6.5 ms SLO: the big device's 6 ms service time plus the 2 ms fill
  // deadline can never fit, the node's 3.5 ms service leaves queueing room.
  req.p99_ms = 6.5;
  const auto one_big = plan_serving_fleet(req, gpusim::titan_x(), 0.91, big);
  EXPECT_FALSE(one_big.feasible);

  ServingProfile cheap;
  cheap.batch_seconds = 7e-3;  // a GK210 is slower per device...
  cheap.batch_users = 32;
  MultiDeviceNode node{gpusim::gk210(), 0.61, 2, 12.0};
  const auto two_cheap = plan_multi_device_fleet(req, node, cheap, 10);
  ASSERT_TRUE(two_cheap.feasible);  // ...but ~3.5 ms as a 2-device node
  EXPECT_GT(two_cheap.devices, 0);
}

}  // namespace
}  // namespace cumf::costmodel
