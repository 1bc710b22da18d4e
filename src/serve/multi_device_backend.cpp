#include "serve/multi_device_backend.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>

#include "gpusim/counters.hpp"
#include "obs/trace.hpp"
#include "serve/topk.hpp"

namespace cumf::serve {

namespace {

// Analytic kernel traffic for one sweep accounted as a simulated launch:
//
//   flops         2·f per scored dot
//   global_read   rows_swept · f floats — θ rows streamed contiguously
//                 (shards are slot-contiguous in descending-norm order)
//   gathered_read block_users · f floats — x_u rows fetched once into
//                 on-chip storage, discontiguous by user id, via the
//                 read-only texture path (block reuse is high, quality 1)
//   shared_read   scored · f floats — each dot replays the cached user row
//   global_write  block_users · k · 8 B — (item, score) heap write-back
gpusim::KernelStats sweep_kernel_stats(const SweepTask& task,
                                       const SweepCounters& c) {
  const auto f = static_cast<double>(task.store->f());
  const auto fbytes = f * sizeof(real_t);
  const auto block_users = static_cast<double>(task.last - task.first);
  gpusim::KernelStats stats;
  stats.flops = 2.0 * f * static_cast<double>(c.scored);
  stats.global_read =
      static_cast<bytes_t>(static_cast<double>(c.rows_swept) * fbytes);
  stats.gathered_read = static_cast<bytes_t>(block_users * fbytes);
  stats.gathered_via_texture = true;
  stats.shared_read =
      static_cast<bytes_t>(static_cast<double>(c.scored) * fbytes);
  stats.global_write =
      static_cast<bytes_t>(block_users * static_cast<double>(task.k) * 8);
  return stats;
}

}  // namespace

bytes_t MultiDeviceScoringBackend::shard_bytes(const FactorShard& shard,
                                               int f) {
  const auto items = static_cast<bytes_t>(shard.item_ids.size());
  return items * static_cast<bytes_t>(f) * sizeof(real_t) +
         items * sizeof(double);
}

bytes_t MultiDeviceScoringBackend::replica_bytes(const FactorStore& store) {
  const auto users = static_cast<bytes_t>(store.num_users());
  return users * static_cast<bytes_t>(store.f()) * sizeof(real_t) +
         users * sizeof(double);
}

MultiDeviceScoringBackend::MultiDeviceScoringBackend(
    gpusim::DeviceGroup& group, const gpusim::PcieTopology& topo)
    : devs_(group.pointers()),
      topo_(&topo),
      used_bytes_(devs_.size(), 0),
      peak_bytes_(devs_.size(), 0),
      batch_kernel_s_(devs_.size(), 0.0) {}

MultiDeviceScoringBackend::~MultiDeviceScoringBackend() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& r : resident_) release_locked(r);
  resident_.clear();
}

void MultiDeviceScoringBackend::charge_locked(
    const std::shared_ptr<const FactorStore>& snapshot) {
  const FactorStore& store = *snapshot;
  const int p = static_cast<int>(devs_.size());
  const int f = store.f();
  const bytes_t replica = replica_bytes(store);

  // Largest-first (LPT) placement onto the device with the most free memory.
  // "Free" accounts for everything already charged on the device — other
  // resident generations of ours and any outside tenant — so a lopsided
  // group receives a lopsided placement. The X replica is paid lazily: a
  // device is only charged for it when its first shard lands there.
  std::vector<int> order(static_cast<std::size_t>(store.num_shards()));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return shard_bytes(store.shard(a), f) > shard_bytes(store.shard(b), f);
  });

  Resident r;
  r.key = &store;
  r.alive = snapshot;
  r.device_of_shard.assign(static_cast<std::size_t>(store.num_shards()), -1);
  r.device_bytes.assign(devs_.size(), 0);

  // Plan against a local free-bytes view first, then charge device by device
  // so a mid-placement OOM (e.g. a racing tenant) can roll back cleanly.
  std::vector<bytes_t> planned(devs_.size(), 0);
  const auto free_after = [&](int d) -> std::int64_t {
    const auto du = static_cast<std::size_t>(d);
    return static_cast<std::int64_t>(devs_[du]->free_bytes()) -
           static_cast<std::int64_t>(planned[du]);
  };
  bool feasible = true;
  for (const int s : order) {
    const bytes_t need = shard_bytes(store.shard(s), f);
    int best = -1;
    std::int64_t best_free = -1;
    for (int d = 0; d < p; ++d) {
      const bytes_t entry =
          r.device_bytes[static_cast<std::size_t>(d)] == 0 ? replica : 0;
      const auto fits = free_after(d) - static_cast<std::int64_t>(entry);
      if (fits >= static_cast<std::int64_t>(need) && fits > best_free) {
        best = d;
        best_free = fits;
      }
    }
    if (best < 0) {
      feasible = false;
      break;
    }
    const auto bu = static_cast<std::size_t>(best);
    const bytes_t entry = r.device_bytes[bu] == 0 ? replica : 0;
    planned[bu] += entry + need;
    r.device_bytes[bu] += entry + need;
    r.device_of_shard[static_cast<std::size_t>(s)] = best;
  }

  // All-or-nothing: charge every device, rolling back the ones already
  // charged if any throws, so a refused generation leaves no torn placement.
  std::size_t charged = 0;
  try {
    if (!feasible) {
      // Surface the OOM through the same error type a single device raises;
      // report the tightest device so the message is actionable.
      int fullest = 0;
      for (int d = 1; d < p; ++d) {
        if (devs_[static_cast<std::size_t>(d)]->free_bytes() <
            devs_[static_cast<std::size_t>(fullest)]->free_bytes()) {
          fullest = d;
        }
      }
      const auto fu = static_cast<std::size_t>(fullest);
      throw gpusim::DeviceOomError(
          "multigpu:device" + std::to_string(fullest),
          replica + shard_bytes(store.shard(order.empty() ? 0 : order[0]), f),
          devs_[fu]->used_bytes(), devs_[fu]->spec().global_bytes);
    }
    for (; charged < devs_.size(); ++charged) {
      if (r.device_bytes[charged] > 0) {
        devs_[charged]->charge(r.device_bytes[charged]);
      }
    }
  } catch (...) {
    for (std::size_t d = 0; d < charged; ++d) {
      if (r.device_bytes[d] > 0) devs_[d]->release(r.device_bytes[d]);
    }
    throw;
  }

  // Imbalance: max per-device Θ bytes over the even share across devices
  // that hold shards (replica excluded — it is the price of model
  // parallelism, not of a skewed split).
  bytes_t theta_total = 0;
  std::vector<bytes_t> theta_dev(devs_.size(), 0);
  for (int s = 0; s < store.num_shards(); ++s) {
    const bytes_t b = shard_bytes(store.shard(s), f);
    theta_total += b;
    theta_dev[static_cast<std::size_t>(
        r.device_of_shard[static_cast<std::size_t>(s)])] += b;
  }
  const int active = static_cast<int>(
      std::count_if(theta_dev.begin(), theta_dev.end(),
                    [](bytes_t b) { return b > 0; }));
  const bytes_t max_dev = *std::max_element(theta_dev.begin(), theta_dev.end());
  r.imbalance = theta_total == 0
                    ? 1.0
                    : static_cast<double>(max_dev) * active /
                          static_cast<double>(theta_total);

  for (std::size_t d = 0; d < devs_.size(); ++d) {
    used_bytes_[d] += r.device_bytes[d];
    peak_bytes_[d] = std::max(peak_bytes_[d], used_bytes_[d]);
  }
  resident_.push_back(std::move(r));
}

void MultiDeviceScoringBackend::release_locked(const Resident& r) {
  for (std::size_t d = 0; d < devs_.size(); ++d) {
    if (r.device_bytes[d] > 0) {
      devs_[d]->release(r.device_bytes[d]);
      used_bytes_[d] -= r.device_bytes[d];
    }
  }
}

void MultiDeviceScoringBackend::gc_locked() {
  std::erase_if(resident_, [this](const Resident& r) {
    if (!r.alive.expired()) return false;
    release_locked(r);
    return true;
  });
}

const MultiDeviceScoringBackend::Resident* MultiDeviceScoringBackend::
    find_locked(const FactorStore* key) const {
  for (const auto& r : resident_) {
    if (r.key == key) return &r;
  }
  return nullptr;
}

int MultiDeviceScoringBackend::device_of_locked(
    const FactorStore* store, const FactorShard* shard) const {
  const Resident* r = find_locked(store);
  if (r == nullptr) {
    throw std::logic_error(
        "MultiDeviceScoringBackend: sweep on a store that was never "
        "admitted");
  }
  for (int s = 0; s < static_cast<int>(r->device_of_shard.size()); ++s) {
    if (&store->shard(s) == shard) {
      return r->device_of_shard[static_cast<std::size_t>(s)];
    }
  }
  throw std::logic_error(
      "MultiDeviceScoringBackend: sweep on an unknown shard");
}

void MultiDeviceScoringBackend::admit(
    const std::shared_ptr<const FactorStore>& store) {
  std::lock_guard<std::mutex> lock(mu_);
  gc_locked();  // drained generations free their devices first
  if (find_locked(store.get()) != nullptr) return;
  charge_locked(store);
}

void MultiDeviceScoringBackend::begin_batch(
    const std::shared_ptr<const FactorStore>& store) {
  admit(store);  // idempotent: lazy charge for generations not pre-admitted
}

std::vector<int> MultiDeviceScoringBackend::shard_devices(
    const FactorStore& store) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Resident* r = find_locked(&store);
  return r == nullptr ? std::vector<int>{} : r->device_of_shard;
}

SweepCounters MultiDeviceScoringBackend::sweep(
    const SweepTask& task, std::vector<std::vector<Recommendation>>& out) {
  auto& trace = obs::TraceCollector::global();
  const bool traced = trace.enabled();
  const double begin_us = traced ? trace.now_us() : 0.0;
  const SweepCounters c = reference_sweep(task, out);

  const gpusim::KernelStats stats = sweep_kernel_stats(task, c);
  int dev = 0;
  double modeled_s = 0.0;
  {
    // Device accounting is not thread-safe and sweeps race on the pool. Each
    // device's launches serialize on its own simulated stream, but devices
    // run concurrently — finish_batch() takes the max over per-device sums.
    std::lock_guard<std::mutex> lock(mu_);
    dev = device_of_locked(task.store, task.shard);
    const auto du = static_cast<std::size_t>(dev);
    devs_[du]->account_kernel(stats);
    modeled_s = devs_[du]->model_kernel_seconds(stats);
    batch_kernel_s_[du] += modeled_s;
    batch_users_ = std::max(batch_users_, task.last);
    batch_k_ = task.k;
  }
  if (traced) {
    trace.record_span("gpusim.kernel", begin_us, trace.now_us(),
                      {"device", static_cast<std::uint64_t>(dev)},
                      {"scored", c.scored},
                      {"modeled_us",
                       static_cast<std::uint64_t>(modeled_s * 1e6)});
  }
  return c;
}

BatchCost MultiDeviceScoringBackend::finish_batch() {
  auto& trace = obs::TraceCollector::global();
  const bool traced = trace.enabled();
  const double begin_us = traced ? trace.now_us() : 0.0;

  BatchCost cost;
  std::uint64_t gather_bytes = 0;
  int senders = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    gc_locked();  // generations drained mid-batch free their devices now

    // Scatter-gather: every device that swept this batch ships its partial
    // top-k candidates (k (item, score) pairs per user) to the host, all
    // transfers in flight together — the topology's bottleneck model prices
    // the gather.
    double kernel_max = 0.0;
    std::vector<gpusim::Transfer> xfers;
    const auto per_dev = static_cast<bytes_t>(batch_users_) *
                         static_cast<bytes_t>(batch_k_) * 8;
    for (std::size_t d = 0; d < devs_.size(); ++d) {
      if (batch_kernel_s_[d] > 0.0 && per_dev > 0) {
        xfers.push_back(
            gpusim::Transfer{static_cast<int>(d), gpusim::kHost, per_dev});
      }
      kernel_max = std::max(kernel_max, batch_kernel_s_[d]);
      batch_kernel_s_[d] = 0.0;
    }
    double gather_s = 0.0;
    if (xfers.size() > 1) {  // single device: partials are final, no gather
      gather_s = topo_->makespan_seconds(xfers);
      for (const auto& t : xfers) {
        devs_[static_cast<std::size_t>(t.src)]->account_transfer(
            t.bytes, gather_s, /*host_link=*/true, /*outgoing=*/true);
        gather_bytes += t.bytes;
      }
      senders = static_cast<int>(xfers.size());
    }
    cost.modeled_s = kernel_max + gather_s;
    cost.interconnect_s = gather_s;
    batch_users_ = 0;
    batch_k_ = 0;
  }
  if (traced && senders > 0) {
    trace.record_span("gpusim.transfer", begin_us, trace.now_us(),
                      {"devices", static_cast<std::uint64_t>(senders)},
                      {"bytes", gather_bytes},
                      {"modeled_us",
                       static_cast<std::uint64_t>(cost.interconnect_s * 1e6)});
  }
  return cost;
}

bytes_t MultiDeviceScoringBackend::model_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::accumulate(used_bytes_.begin(), used_bytes_.end(), bytes_t{0});
}

bytes_t MultiDeviceScoringBackend::peak_model_bytes(int device) const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_bytes_[static_cast<std::size_t>(device)];
}

int MultiDeviceScoringBackend::resident_models() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(resident_.size());
}

double MultiDeviceScoringBackend::placement_imbalance(
    const FactorStore& store) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Resident* r = find_locked(&store);
  return r == nullptr ? 0.0 : r->imbalance;
}

}  // namespace cumf::serve
