#pragma once

// Simulated-device scoring backend, model-parallel across a device group.
//
// One simulated device caps the servable catalog at its memory capacity —
// the same eq.-8 pressure that forces SU-ALS to partition training. This
// backend applies the paper's multi-GPU split (figure 9) to serving: item
// shards are partitioned across a gpusim::DeviceGroup (X is replicated on
// every device that holds shards, Θ is scattered), each shard × user-block
// sweep is accounted as a kernel launch on the device that owns the shard
// (traffic derived analytically from shard size × factor rank), and
// per-device partial top-k candidates are gathered over the
// gpusim::PcieTopology interconnect for the final scatter-gather merge in the
// engine. Answers stay bit-identical to the CPU reference — only the cost
// axis changes, never the ranking. A single simulated GPU is the p = 1 case:
// `DeviceGroup(1, spec, PcieTopology::flat(1))` charges the whole model on
// one device, and with only one sender there is no gather to price.
//
// Placement is capacity-aware: shards are assigned largest-first to the
// device with the most free memory (LPT), so a catalog no single device can
// hold spreads across the group, and a device already carrying ballast
// (another tenant, an undrained generation) receives less of the new model.
//
// Residency follows the generations the engine serves. A snapshot is charged
// when admit() or begin_batch() first sees it, and released once it has
// *drained* — its last shared_ptr (live-store current pointer, engine pins)
// is gone. During a hot swap old and new snapshots are therefore both
// resident: the transient both-resident capacity peak a real serving GPU
// pays, reported per device by peak_model_bytes(). An engine over a fixed
// FactorStore holds its snapshot for life, so that model stays charged until
// the engine goes away.
//
// Hot swaps land shard-by-shard across devices, which makes partial failure
// the dangerous case: generation charging is all-or-nothing. admit() places
// and charges a candidate generation on every device — the both-resident
// peak, old generation still pinned — and on *any* device's DeviceOomError
// rolls back every charge already made and rethrows, so the old generation
// keeps serving everywhere and no device is left holding a torn placement.
// Wired as a LiveFactorStore admission hook, a vetoed swap is refused before
// the generation ever becomes current; without the hook, begin_batch()
// charges lazily on first sight, and an OOM surfaces from that batch.

#include <memory>
#include <mutex>
#include <vector>

#include "gpusim/device_group.hpp"
#include "gpusim/topology.hpp"
#include "serve/scoring_backend.hpp"

namespace cumf::serve {

class MultiDeviceScoringBackend final : public ScoringBackend {
 public:
  /// Generations attach via admit() (the LiveFactorStore admission hook) or
  /// lazily via begin_batch(). The group and topology must outlive the
  /// backend; every charge still held is released at destruction.
  MultiDeviceScoringBackend(gpusim::DeviceGroup& group,
                            const gpusim::PcieTopology& topo);
  ~MultiDeviceScoringBackend() override;

  MultiDeviceScoringBackend(const MultiDeviceScoringBackend&) = delete;
  MultiDeviceScoringBackend& operator=(const MultiDeviceScoringBackend&) =
      delete;

  [[nodiscard]] int device_count() const override {
    return static_cast<int>(devs_.size());
  }
  void begin_batch(const std::shared_ptr<const FactorStore>& store) override;
  SweepCounters sweep(const SweepTask& task,
                      std::vector<std::vector<Recommendation>>& out) override;
  BatchCost finish_batch() override;
  [[nodiscard]] std::vector<int> shard_devices(
      const FactorStore& store) const override;

  /// All-or-nothing generation charging, for LiveFactorStore's admission
  /// hook: places `store`'s shards and charges every device (the
  /// both-resident peak while the old generation is still pinned). On any
  /// device's DeviceOomError every charge already made is released and the
  /// error rethrown — the swap is refused everywhere, never torn. Idempotent
  /// for an already-admitted snapshot.
  void admit(const std::shared_ptr<const FactorStore>& store);

  /// Bytes currently charged across all devices (one placement per
  /// undrained generation).
  [[nodiscard]] bytes_t model_bytes() const;
  /// Per-device high-water mark of charged bytes — the both-resident swap
  /// peak each device actually paid.
  [[nodiscard]] bytes_t peak_model_bytes(int device) const;
  /// Snapshots currently charged.
  [[nodiscard]] int resident_models() const;
  /// Shard-size imbalance of `store`'s placement: max per-device Θ bytes
  /// over the even share (1 = perfectly balanced). 0 when not admitted.
  [[nodiscard]] double placement_imbalance(const FactorStore& store) const;

  /// Capacity charge for one Θ shard (rows + per-row norms).
  [[nodiscard]] static bytes_t shard_bytes(const FactorShard& shard, int f);
  /// Capacity charge for the per-device X replica (rows + user norms);
  /// queries index X by user id, so every device holding shards carries it.
  [[nodiscard]] static bytes_t replica_bytes(const FactorStore& store);

 private:
  /// One charged snapshot: its shard→device placement and the bytes charged
  /// per device. Released by gc_locked() once `alive` expires (drain).
  struct Resident {
    const FactorStore* key = nullptr;
    std::weak_ptr<const FactorStore> alive;
    std::vector<int> device_of_shard;
    std::vector<bytes_t> device_bytes;  // parallel to devs_
    double imbalance = 1.0;
  };

  /// Places and charges `snapshot` across the group; rolls back and rethrows
  /// on any device's OOM. Appends the Resident on success.
  void charge_locked(const std::shared_ptr<const FactorStore>& snapshot);
  void release_locked(const Resident& r);
  void gc_locked();
  [[nodiscard]] const Resident* find_locked(const FactorStore* key) const;
  [[nodiscard]] int device_of_locked(const FactorStore* store,
                                     const FactorShard* shard) const;

  std::vector<gpusim::Device*> devs_;
  const gpusim::PcieTopology* topo_;
  mutable std::mutex mu_;  // residency + device accounting + batch state
  std::vector<Resident> resident_;
  std::vector<bytes_t> used_bytes_;  // our charge per device
  std::vector<bytes_t> peak_bytes_;  // high-water mark per device
  // Per-batch accumulators, reset by finish_batch().
  std::vector<double> batch_kernel_s_;  // modeled kernel seconds per device
  int batch_users_ = 0;                 // widest user index swept this batch
  int batch_k_ = 0;
};

}  // namespace cumf::serve
