// Simulated-device serving: scatter-gather parity with the CPU reference,
// per-batch device accounting, capacity charging across hot swaps,
// capacity-aware placement, all-or-nothing generation admission, and
// refresh-under-query consistency (the TSan job in CI runs this suite).
// One simulated GPU is a group of one device, so the behaviours that are not
// specific to one device run for N ∈ {1, 2, 4}.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/device_group.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/topology.hpp"
#include "obs/trace.hpp"
#include "serve/factor_store.hpp"
#include "serve/live_store.hpp"
#include "serve/multi_device_backend.hpp"
#include "serve/scoring_backend.hpp"
#include "serve/topk.hpp"
#include "serve_test_util.hpp"

namespace cumf {
namespace {

using serve_test::brute_force_topk;
using serve_test::random_factors;
using serve_test::random_ratings;

// Capacity fixture: 100 users × 2000 items at f=16. Per-device X replica =
// 100·16·4 + 100·8 = 7200 B; Θ total = 2000·16·4 + 2000·8 = 144000 B; whole
// model on one device = 151200 B. A 100 KB device cannot hold it alone, two
// can (each pays the replica plus about half of Θ).
constexpr idx_t kCapUsers = 100;
constexpr idx_t kCapItems = 2000;
constexpr int kCapF = 16;
constexpr bytes_t kCapDevice = 100'000;

serve::FactorStore capacity_store(int shards, std::uint64_t seed = 1) {
  return serve::FactorStore(random_factors(kCapUsers, kCapF, seed),
                            random_factors(kCapItems, kCapF, seed + 1),
                            shards);
}

std::shared_ptr<const serve::FactorStore> shared_capacity_store(
    int shards, std::uint64_t seed = 1) {
  return std::make_shared<const serve::FactorStore>(
      capacity_store(shards, seed));
}

/// A backend over a fresh group of `devices` identical simulated devices.
struct SimGroup {
  SimGroup(int devices, const gpusim::DeviceSpec& spec)
      : topo(gpusim::PcieTopology::flat(devices)),
        group(devices, spec, topo),
        backend(group, topo) {}

  [[nodiscard]] bytes_t used_bytes() {
    bytes_t used = 0;
    for (int d = 0; d < group.size(); ++d) used += group[d].used_bytes();
    return used;
  }
  /// Sum of the per-device high-water marks.
  [[nodiscard]] bytes_t peak_bytes() const {
    bytes_t peak = 0;
    for (int d = 0; d < backend.device_count(); ++d) {
      peak += backend.peak_model_bytes(d);
    }
    return peak;
  }

  gpusim::PcieTopology topo;
  gpusim::DeviceGroup group;
  serve::MultiDeviceScoringBackend backend;
};

/// Device counts every generic behaviour is checked on; 1 is the plain
/// single-GPU case.
class SimDevices : public testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Devices, SimDevices, testing::Values(1, 2, 4));

TEST_P(SimDevices, BitIdenticalToCpuAndBruteForceAcrossConfigs) {
  const int devices = GetParam();
  const idx_t m = 30, n = 113;
  const int f = 12;
  const auto x = random_factors(m, f, 201);
  auto theta = random_factors(n, f, 202);
  // Spread the item norms so the prune configurations actually prune.
  for (idx_t v = 0; v < theta.rows(); ++v) {
    const real_t scale = real_t{1} / static_cast<real_t>(1 + v);
    for (int j = 0; j < theta.f(); ++j) theta.row(v)[j] *= scale;
  }
  const auto R = random_ratings(m, n, 300, 203);

  // Every user once, plus a repeat within the same batch.
  std::vector<idx_t> users(static_cast<std::size_t>(m));
  for (idx_t u = 0; u < m; ++u) users[static_cast<std::size_t>(u)] = u;
  users.push_back(7);

  for (const int shards : {1, 3, 4, 7}) {
    const serve::FactorStore store(x, theta, shards);
    for (const bool prune : {true, false}) {
      for (const bool exclude : {true, false}) {
        for (const int block : {1, 7}) {
          serve::TopKOptions base;
          base.user_block = block;
          base.prune = prune;
          base.exclude_rated = exclude ? &R : nullptr;
          const serve::TopKEngine cpu_engine(store, base);

          SimGroup sim(devices, gpusim::titan_x());
          serve::TopKOptions sim_opt = base;
          sim_opt.backend = &sim.backend;
          const serve::TopKEngine sim_engine(store, sim_opt);

          const auto want = cpu_engine.recommend(users, 9);
          const auto got = sim_engine.recommend(users, 9);
          for (std::size_t i = 0; i < users.size(); ++i) {
            ASSERT_EQ(got[i], want[i])
                << "devices=" << devices << " shards=" << shards
                << " prune=" << prune << " exclude=" << exclude
                << " block=" << block << " user=" << users[i];
            const auto brute = brute_force_topk(x, theta, users[i], 9,
                                                exclude ? &R : nullptr);
            ASSERT_EQ(got[i], brute) << "vs brute force, user=" << users[i];
          }
          // Both engines did identical logical work.
          EXPECT_EQ(sim_engine.items_scored(), cpu_engine.items_scored());
          EXPECT_EQ(sim_engine.items_pruned(), cpu_engine.items_pruned());
        }
      }
    }
  }
}

TEST_P(SimDevices, PopulatesDeviceCountersPerBatch) {
  const int devices = GetParam();
  const idx_t m = 24, n = 90;
  const int f = 8;
  const auto x = random_factors(m, f, 211);
  const auto theta = random_factors(n, f, 212);
  const serve::FactorStore store(x, theta, 3);

  SimGroup sim(devices, gpusim::titan_x());
  serve::TopKOptions opt;
  opt.user_block = 8;
  opt.backend = &sim.backend;
  const serve::TopKEngine engine(store, opt);

  const auto total = [&sim] {
    gpusim::DeviceCounters sum;
    double clock = 0.0;
    for (int d = 0; d < sim.group.size(); ++d) {
      const auto& c = sim.group[d].counters();
      sum.kernels_launched += c.kernels_launched;
      sum.flops += c.flops;
      sum.global_read += c.global_read;
      sum.gathered_read += c.gathered_read;
      sum.texture_read += c.texture_read;
      sum.shared_read += c.shared_read;
      sum.global_write += c.global_write;
      clock += sim.group[d].clock_seconds();
    }
    return std::make_pair(sum, clock);
  };

  EXPECT_EQ(total().first.kernels_launched, 0u);
  std::vector<idx_t> users = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  (void)engine.recommend(users, 5);

  const auto [c, clock_after_first] = total();
  // 10 users in blocks of 8 = 2 blocks × 3 shards = 6 launches, however
  // the shards are spread.
  EXPECT_EQ(c.kernels_launched, 6u);
  EXPECT_GT(c.flops, 0.0);
  EXPECT_GT(c.global_read, 0u);    // θ rows streamed
  EXPECT_GT(c.gathered_read, 0u);  // x_u gathers
  EXPECT_GT(c.texture_read, 0u);   // routed via the texture path
  EXPECT_GT(c.shared_read, 0u);    // per-dot replays of the cached block
  EXPECT_GT(c.global_write, 0u);   // heap write-back
  EXPECT_GT(clock_after_first, 0.0);

  // flops are exactly 2·f per scored dot.
  EXPECT_DOUBLE_EQ(c.flops,
                   2.0 * f * static_cast<double>(engine.items_scored()));

  // The modeled-time axis is populated per batch and resets between batches;
  // a lone device has no candidate gather to price.
  const auto modeled = engine.batch_modeled_summary();
  EXPECT_EQ(modeled.samples, 1u);
  EXPECT_GT(modeled.p50_ms, 0.0);
  EXPECT_EQ(engine.batch_interconnect_summary().samples,
            devices == 1 ? 0u : 1u);
  (void)engine.recommend(users, 5);
  EXPECT_GT(total().second, clock_after_first);
  EXPECT_EQ(engine.batch_modeled_summary().samples, 2u);
}

TEST_P(SimDevices, KernelSpansCarryDeviceScoredAndModeledTime) {
  const int devices = GetParam();
  const auto store = capacity_store(4, 55);
  SimGroup sim(devices, gpusim::titan_x());
  serve::TopKOptions opt;
  opt.backend = &sim.backend;
  const serve::TopKEngine engine(store, opt);

  auto& trace = obs::TraceCollector::global();
  trace.enable();
  trace.clear();
  (void)engine.recommend_one(3, 10);
  trace.disable();
  const std::string json = trace.export_chrome_json();

  // One schema for every simulated sweep, whatever the device count.
  const std::string kernel = "{\"name\":\"gpusim.kernel\"";
  const std::string device_arg = "\"args\":{\"device\":";
  std::set<unsigned long> seen_devices;
  int spans = 0;
  for (std::size_t at = json.find(kernel); at != std::string::npos;
       at = json.find(kernel, at + 1)) {
    const std::string event = json.substr(at, json.find('}', at) - at);
    const std::size_t args = event.find(device_arg);
    ASSERT_NE(args, std::string::npos) << event;
    EXPECT_NE(event.find(",\"scored\":"), std::string::npos) << event;
    EXPECT_NE(event.find(",\"modeled_us\":"), std::string::npos) << event;
    seen_devices.insert(std::stoul(event.substr(args + device_arg.size())));
    ++spans;
  }
  EXPECT_EQ(spans, 4);  // 4 shards × 1 user block
  EXPECT_EQ(static_cast<int>(seen_devices.size()), devices);
}

TEST(MultiDeviceBackend, OneDeviceChargesWholeModelUntilDestroyed) {
  const auto x = random_factors(50, 16, 221);
  const auto theta = random_factors(200, 16, 222);
  const serve::FactorStore store(x, theta, 2);

  const auto topo = gpusim::PcieTopology::flat(1);
  gpusim::DeviceGroup group(1, gpusim::titan_x(), topo);
  {
    serve::MultiDeviceScoringBackend backend(group, topo);
    serve::TopKOptions opt;
    opt.backend = &backend;
    const serve::TopKEngine engine(store, opt);
    EXPECT_EQ(group[0].used_bytes(), 0u);  // charged on first sight
    (void)engine.recommend_one(0, 5);
    EXPECT_EQ(group[0].used_bytes(), backend.model_bytes());
    // X + Θ factors plus the per-row norm arrays.
    EXPECT_EQ(backend.model_bytes(),
              (50u + 200u) * (16u * sizeof(real_t) + sizeof(double)));
    // A fixed store never drains: later batches keep the one charge.
    (void)engine.recommend_one(1, 5);
    EXPECT_EQ(backend.resident_models(), 1);
  }
  EXPECT_EQ(group[0].used_bytes(), 0u);

  // A model that does not fit raises the same OOM pressure as training, at
  // admission or at the first batch, and leaves nothing charged.
  gpusim::DeviceGroup tiny(1, gpusim::tiny_device(1024), topo);
  serve::MultiDeviceScoringBackend backend(tiny, topo);
  EXPECT_THROW(
      backend.admit(std::make_shared<const serve::FactorStore>(x, theta, 2)),
      gpusim::DeviceOomError);
  serve::TopKOptions opt;
  opt.backend = &backend;
  const serve::TopKEngine engine(store, opt);
  EXPECT_THROW((void)engine.recommend_one(0, 5), gpusim::DeviceOomError);
  EXPECT_EQ(tiny[0].used_bytes(), 0u);
  EXPECT_EQ(backend.resident_models(), 0);
}

TEST_P(SimDevices, HotSwapChargesBothGenerationsUntilDrained) {
  const int devices = GetParam();
  const auto x1 = random_factors(20, 8, 401);
  const auto t1 = random_factors(50, 8, 402);
  const auto x2 = random_factors(20, 8, 403);
  const auto t2 = random_factors(50, 8, 404);

  SimGroup sim(devices, gpusim::titan_x());
  EXPECT_EQ(sim.backend.resident_models(), 0);

  // No admission hook: each generation is charged lazily by the first batch
  // that pins it.
  serve::LiveFactorStore live(serve::FactorStore(x1, t1, 2));
  serve::TopKOptions opt;
  opt.backend = &sim.backend;
  opt.user_block = 8;
  const serve::TopKEngine engine(live, opt);

  const std::vector<idx_t> users = {0, 1, 2, 3, 4, 5, 6, 7};
  (void)engine.recommend(users, 5);
  const bytes_t per_model = sim.backend.model_bytes();
  EXPECT_GT(per_model, 0u);
  EXPECT_EQ(sim.used_bytes(), per_model);
  EXPECT_EQ(sim.backend.resident_models(), 1);

  // An in-flight reader pins generation 1 across the swap: serving the next
  // batch makes both models resident — the transient swap peak.
  auto pin = live.pin();
  ASSERT_TRUE(live.refresh(serve::FactorStore(x2, t2, 2)).swapped);
  const auto batch = engine.recommend_batch(users, 5);
  EXPECT_EQ(batch.generation, 2u);
  for (std::size_t i = 0; i < users.size(); ++i) {
    EXPECT_EQ(batch.lists[i], brute_force_topk(x2, t2, users[i], 5));
  }
  EXPECT_EQ(sim.backend.resident_models(), 2);
  EXPECT_EQ(sim.used_bytes(), 2 * per_model);
  EXPECT_EQ(sim.peak_bytes(), 2 * per_model);

  // Release the pin: generation 1 has drained, and the next batch boundary
  // returns its capacity. The high-water marks keep the swap peak visible.
  pin.store.reset();
  (void)engine.recommend(users, 5);
  EXPECT_EQ(sim.backend.resident_models(), 1);
  EXPECT_EQ(sim.used_bytes(), per_model);
  EXPECT_EQ(sim.peak_bytes(), 2 * per_model);
}

TEST_P(SimDevices, TightDevicesOomOnSwapOnlyWhileOldGenerationPinned) {
  const int devices = GetParam();
  const int shards = 2 * devices;  // two equal shards per device
  const auto x1 = random_factors(16, 8, 411);
  const auto t1 = random_factors(40, 8, 412);
  const auto x2 = random_factors(16, 8, 413);
  const auto t2 = random_factors(40, 8, 414);

  // Each device fits its share of one generation (X replica + two shards)
  // with headroom, never two.
  const serve::FactorStore probe(x1, t1, shards);
  const bytes_t share =
      serve::MultiDeviceScoringBackend::replica_bytes(probe) +
      2 * serve::MultiDeviceScoringBackend::shard_bytes(probe.shard(0), 8);
  SimGroup sim(devices, gpusim::tiny_device(share + share / 2));

  serve::LiveFactorStore live(serve::FactorStore(x1, t1, shards));
  serve::TopKOptions opt;
  opt.backend = &sim.backend;
  const serve::TopKEngine engine(live, opt);

  const std::vector<idx_t> users = {0, 1, 2, 3};
  (void)engine.recommend(users, 5);
  const bytes_t per_model = share * static_cast<bytes_t>(devices);
  EXPECT_EQ(sim.used_bytes(), per_model);

  // While generation 1 is pinned by a reader, charging generation 2 exceeds
  // capacity: the both-resident peak surfaces as the same eq.-8 OOM pressure
  // training feels, instead of silently under-accounting the swap.
  auto pin = live.pin();
  ASSERT_TRUE(live.refresh(serve::FactorStore(x2, t2, shards)).swapped);
  EXPECT_THROW((void)engine.recommend(users, 5), gpusim::DeviceOomError);
  EXPECT_EQ(sim.used_bytes(), per_model);  // nothing torn

  // Once the reader drains, the swap completes within capacity.
  pin.store.reset();
  const auto batch = engine.recommend_batch(users, 5);
  EXPECT_EQ(batch.generation, 2u);
  EXPECT_EQ(batch.lists[0], brute_force_topk(x2, t2, 0, 5));
  EXPECT_EQ(sim.backend.resident_models(), 1);
  EXPECT_EQ(sim.used_bytes(), per_model);
}

TEST(MultiDeviceBackend, KLargerThanPerDeviceCandidates) {
  // 4 devices × 4 shards of ~13 items each: k=25 exceeds any single device's
  // candidate pool, so the final list must interleave devices.
  const auto x = random_factors(10, 8, 31);
  const auto theta = random_factors(52, 8, 32);
  const serve::FactorStore store(x, theta, 4);
  const auto topo = gpusim::PcieTopology::flat(4);
  gpusim::DeviceGroup group(4, gpusim::titan_x(), topo);
  serve::MultiDeviceScoringBackend backend(group, topo);
  serve::TopKOptions opt;
  opt.backend = &backend;
  const serve::TopKEngine engine(store, opt);

  for (const idx_t u : {0, 5, 9}) {
    const auto got = engine.recommend_one(u, 25);
    EXPECT_EQ(got, brute_force_topk(x, theta, u, 25));
    EXPECT_EQ(got.size(), 25u);
  }
  // Asking for more than the catalog returns the whole ranked catalog.
  EXPECT_EQ(engine.recommend_one(0, 99).size(), 52u);
}

TEST(MultiDeviceBackend, CatalogTooBigForOneDeviceServesOnTwo) {
  const auto store = shared_capacity_store(4);

  // One simulated device: the whole model exceeds capacity.
  {
    const auto topo = gpusim::PcieTopology::flat(1);
    gpusim::DeviceGroup group(1, gpusim::tiny_device(kCapDevice), topo);
    serve::MultiDeviceScoringBackend backend(group, topo);
    EXPECT_THROW(backend.admit(store), gpusim::DeviceOomError);
    EXPECT_EQ(group[0].used_bytes(), 0u);  // rollback left no torn charge
  }
  // Two devices: the shards spread and serving matches brute force.
  {
    const auto topo = gpusim::PcieTopology::flat(2);
    gpusim::DeviceGroup group(2, gpusim::tiny_device(kCapDevice), topo);
    serve::MultiDeviceScoringBackend backend(group, topo);
    backend.admit(store);
    EXPECT_GT(group[0].used_bytes(), 0u);
    EXPECT_GT(group[1].used_bytes(), 0u);
    EXPECT_EQ(backend.model_bytes(),
              group[0].used_bytes() + group[1].used_bytes());
    EXPECT_EQ(backend.device_count(), 2);

    serve::TopKOptions opt;
    opt.backend = &backend;
    const serve::TopKEngine engine(*store, opt);
    const auto x2 = random_factors(kCapUsers, kCapF, 1);
    const auto t2 = random_factors(kCapItems, kCapF, 2);
    for (const idx_t u : {0, 50, 99}) {
      EXPECT_EQ(engine.recommend_one(u, 10), brute_force_topk(x2, t2, u, 10));
    }
    EXPECT_EQ(backend.resident_models(), 1);  // the engine reused the charge
  }
}

TEST(MultiDeviceBackend, PlacementFollowsFreeCapacity) {
  const auto store = shared_capacity_store(4);
  const auto topo = gpusim::PcieTopology::flat(2);
  gpusim::DeviceGroup group(2, gpusim::tiny_device(200'000), topo);
  // Ballast on device 0 (another tenant): 5 KB left cannot hold the replica
  // plus any shard, so every shard must land on device 1.
  group[0].charge(195'000);
  serve::MultiDeviceScoringBackend backend(group, topo);
  backend.admit(store);

  const auto placement = backend.shard_devices(*store);
  ASSERT_EQ(placement.size(), 4u);
  for (const int d : placement) EXPECT_EQ(d, 1);
  EXPECT_EQ(group[0].used_bytes(), 195'000u);  // ballast only, no replica
  EXPECT_EQ(backend.placement_imbalance(*store), 1.0);  // one active device
}

TEST(MultiDeviceBackend, UnevenPlacementReportsImbalance) {
  // 3 shards on 2 devices: one device carries two shards — imbalance ≈ 4/3.
  const auto store = shared_capacity_store(3);
  const auto topo = gpusim::PcieTopology::flat(2);
  gpusim::DeviceGroup group(2, gpusim::titan_x(), topo);
  serve::MultiDeviceScoringBackend backend(group, topo);
  backend.admit(store);
  const double imbalance = backend.placement_imbalance(*store);
  EXPECT_GT(imbalance, 1.2);
  EXPECT_LT(imbalance, 1.5);
}

TEST(MultiDeviceBackend, AccountsKernelsAndGatherTransfersPerDevice) {
  const auto x = random_factors(64, 16, 41);
  const auto theta = random_factors(400, 16, 42);
  const serve::FactorStore store(x, theta, 4);
  const auto topo = gpusim::PcieTopology::flat(2);
  gpusim::DeviceGroup group(2, gpusim::titan_x(), topo);
  serve::MultiDeviceScoringBackend backend(group, topo);
  serve::TopKOptions opt;
  opt.backend = &backend;
  opt.user_block = 32;
  const serve::TopKEngine engine(store, opt);

  std::vector<idx_t> users(32);
  for (idx_t u = 0; u < 32; ++u) users[static_cast<std::size_t>(u)] = u;
  (void)engine.recommend(users, 10);

  for (int d = 0; d < 2; ++d) {
    const auto& c = group[d].counters();
    EXPECT_EQ(c.kernels_launched, 2u) << "device " << d;  // 2 shards × 1 block
    EXPECT_GT(c.flops, 0.0) << "device " << d;
    // Each device shipped its 32-user × 10-candidate partials to the host.
    EXPECT_EQ(c.transfers, 1u) << "device " << d;
    EXPECT_EQ(c.d2h_bytes, 32u * 10u * 8u) << "device " << d;
    EXPECT_GT(group[d].clock_seconds(), 0.0) << "device " << d;
  }
  // The engine recorded the modeled batch with a nonzero interconnect slice.
  EXPECT_GT(engine.batch_modeled_summary().total_recorded, 0u);
  EXPECT_GT(engine.batch_interconnect_summary().total_recorded, 0u);
  EXPECT_GE(engine.batch_modeled_summary().p50_ms,
            engine.batch_interconnect_summary().p50_ms);
}

TEST(MultiDeviceBackend, EmitsMergeKernelAndTransferSpans) {
  const auto store = capacity_store(4, 51);
  const auto topo = gpusim::PcieTopology::flat(2);
  gpusim::DeviceGroup group(2, gpusim::titan_x(), topo);
  serve::MultiDeviceScoringBackend backend(group, topo);
  serve::TopKOptions opt;
  opt.backend = &backend;
  const serve::TopKEngine engine(store, opt);

  auto& trace = obs::TraceCollector::global();
  trace.enable();
  (void)engine.recommend_one(3, 10);
  trace.disable();

  const std::string path =
      (std::filesystem::path(testing::TempDir()) / "md_trace.json").string();
  ASSERT_TRUE(trace.write_chrome_json(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  EXPECT_NE(json.find("engine.merge"), std::string::npos);
  EXPECT_NE(json.find("gpusim.kernel"), std::string::npos);
  EXPECT_NE(json.find("gpusim.transfer"), std::string::npos);
  EXPECT_NE(json.find("\"device\""), std::string::npos);
}

TEST(MultiDeviceBackend, OomOnAnyDeviceVetoesTheSwapEverywhere) {
  // Two devices sized to hold exactly one generation each (replica + half of
  // Θ ≈ 79.2 KB < 100 KB < 2 × 79.2 KB): admitting a second generation while
  // the first is still serving must fail on every device and leave the old
  // generation untouched.
  serve::LiveFactorStore live(capacity_store(4, 61));
  const auto topo = gpusim::PcieTopology::flat(2);
  gpusim::DeviceGroup group(2, gpusim::tiny_device(kCapDevice), topo);
  serve::MultiDeviceScoringBackend backend(group, topo);
  live.set_admission_hook(
      [&backend](const std::shared_ptr<const serve::FactorStore>& s) {
        backend.admit(s);
      });
  serve::TopKOptions opt;
  opt.backend = &backend;
  const serve::TopKEngine engine(live, opt);

  const auto before = engine.recommend_one(42, 10);
  EXPECT_EQ(backend.resident_models(), 1);
  const bytes_t used0 = group[0].used_bytes();
  const bytes_t used1 = group[1].used_bytes();

  const auto outcome = live.refresh(capacity_store(4, 71));
  EXPECT_FALSE(outcome.swapped);
  EXPECT_NE(outcome.error.find("out of memory"), std::string::npos)
      << outcome.error;
  EXPECT_EQ(outcome.generation, 1u);
  EXPECT_EQ(live.generation(), 1u);
  EXPECT_EQ(live.refresh_failures(), 1u);
  // No torn charges: both devices hold exactly what they held before.
  EXPECT_EQ(group[0].used_bytes(), used0);
  EXPECT_EQ(group[1].used_bytes(), used1);
  EXPECT_EQ(backend.resident_models(), 1);
  // The old generation still answers, bit-identically.
  EXPECT_EQ(engine.recommend_one(42, 10), before);
}

TEST(MultiDeviceBackend, HotSwapChargesBothGenerationsThenDrains) {
  serve::LiveFactorStore live(capacity_store(4, 81));
  const auto topo = gpusim::PcieTopology::flat(2);
  gpusim::DeviceGroup group(2, gpusim::titan_x(), topo);  // plenty of room
  serve::MultiDeviceScoringBackend backend(group, topo);
  live.set_admission_hook(
      [&backend](const std::shared_ptr<const serve::FactorStore>& s) {
        backend.admit(s);
      });
  serve::TopKOptions opt;
  opt.backend = &backend;
  const serve::TopKEngine engine(live, opt);

  (void)engine.recommend_one(0, 5);
  ASSERT_EQ(backend.resident_models(), 1);
  const bytes_t one_gen =
      backend.peak_model_bytes(0) + backend.peak_model_bytes(1);

  const auto outcome = live.refresh(capacity_store(4, 91));
  EXPECT_TRUE(outcome.swapped);
  EXPECT_EQ(outcome.generation, 2u);
  // Both generations were charged at the swap instant (the old one had not
  // drained yet): the per-device peaks sum to more than one generation.
  EXPECT_GT(backend.peak_model_bytes(0) + backend.peak_model_bytes(1),
            one_gen);

  // The old generation's last reference was the store's current pointer;
  // after the swap it drains, and the next batch garbage-collects it.
  const auto x2 = random_factors(kCapUsers, kCapF, 91);
  const auto t2 = random_factors(kCapItems, kCapF, 92);
  EXPECT_EQ(engine.recommend_one(7, 10), brute_force_topk(x2, t2, 7, 10));
  EXPECT_EQ(backend.resident_models(), 1);
}

TEST(MultiDeviceBackend, RefreshUnderQueryKeepsAnswersGenerationConsistent) {
  // TSan stress: queries race hot swaps. Every answer must be bit-identical
  // to the brute-force reference of the generation the engine reports it was
  // answered under — never a mix of two generations' shards.
  constexpr idx_t kUsers = 48;
  constexpr idx_t kItems = 160;
  constexpr int kF = 8;
  constexpr int kGens = 4;
  constexpr int kThreads = 3;

  std::vector<linalg::FactorMatrix> xs;
  std::vector<linalg::FactorMatrix> thetas;
  for (int g = 0; g < kGens; ++g) {
    xs.push_back(random_factors(kUsers, kF, 100 + 2 * g));
    thetas.push_back(random_factors(kItems, kF, 101 + 2 * g));
  }
  // expected[g][u] = brute-force top-5 for generation g+1.
  std::vector<std::vector<std::vector<serve::Recommendation>>> expected(kGens);
  for (int g = 0; g < kGens; ++g) {
    for (idx_t u = 0; u < kUsers; ++u) {
      expected[static_cast<std::size_t>(g)].push_back(
          brute_force_topk(xs[static_cast<std::size_t>(g)],
                           thetas[static_cast<std::size_t>(g)], u, 5));
    }
  }

  serve::LiveFactorStore live(serve::FactorStore(xs[0], thetas[0], 3));
  const auto topo = gpusim::PcieTopology::flat(2);
  gpusim::DeviceGroup group(2, gpusim::titan_x(), topo);
  serve::MultiDeviceScoringBackend backend(group, topo);
  live.set_admission_hook(
      [&backend](const std::shared_ptr<const serve::FactorStore>& s) {
        backend.admit(s);
      });
  serve::TopKOptions opt;
  opt.backend = &backend;
  opt.user_block = 8;
  const serve::TopKEngine engine(live, opt);

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      std::vector<idx_t> users(8);
      std::uint64_t seed = static_cast<std::uint64_t>(t) + 7;
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& u : users) {
          seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
          u = static_cast<idx_t>((seed >> 33) %
                                 static_cast<std::uint64_t>(kUsers));
        }
        const auto batch = engine.recommend_batch(users, 5);
        const auto g = static_cast<std::size_t>(batch.generation - 1);
        for (std::size_t i = 0; i < users.size(); ++i) {
          if (batch.lists[i] !=
              expected[g][static_cast<std::size_t>(users[i])]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (int g = 1; g < kGens; ++g) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto outcome = live.refresh(
        serve::FactorStore(xs[static_cast<std::size_t>(g)],
                           thetas[static_cast<std::size_t>(g)], 3));
    ASSERT_TRUE(outcome.swapped);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (auto& w : workers) w.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(live.generation(), static_cast<std::uint64_t>(kGens));
  // Drained generations are garbage-collected down to the serving one.
  (void)engine.recommend_one(0, 5);
  EXPECT_EQ(backend.resident_models(), 1);
}

}  // namespace
}  // namespace cumf
