#pragma once

// A simulated GPU device.
//
// Kernels are real C++ executed on util::ThreadPool::global(); the Device
// supplies three services the algorithms depend on:
//
//  1. capacity accounting — DeviceBuffer<T> charges the device's global
//     memory allocator; exceeding DeviceSpec::global_bytes throws
//     DeviceOomError (this is what forces SU-ALS partitioning, eq. 8);
//  2. traffic accounting — account_kernel(stats) accumulates counters;
//  3. simulated time — a roofline model converts each kernel's traffic into
//     modeled seconds on the device clock:
//       t = launch_overhead
//         + max(flops/peak, contiguous_bytes/mem_bw, gathered/gather_bw,
//               shared_bytes/shared_bw)
//     Transfers advance the clock by bytes/link_bandwidth (the topology model
//     decides the link). sync_devices() is the barrier of Alg. 3 line 12:
//     every clock jumps to the max.

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/counters.hpp"
#include "gpusim/device_spec.hpp"
#include "util/types.hpp"

namespace cumf::gpusim {

class DeviceOomError : public std::runtime_error {
 public:
  DeviceOomError(const std::string& device, bytes_t requested, bytes_t used,
                 bytes_t capacity);
};

class Device {
 public:
  Device(int id, DeviceSpec spec, int socket = 0);

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] int socket() const { return socket_; }
  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }

  // -- capacity ------------------------------------------------------------
  void charge(bytes_t bytes);
  void release(bytes_t bytes) noexcept;
  [[nodiscard]] bytes_t used_bytes() const { return used_.load(); }
  [[nodiscard]] bytes_t free_bytes() const {
    return spec_.global_bytes - used_.load();
  }

  // -- accounting ----------------------------------------------------------
  /// Record a kernel's traffic and advance the simulated clock.
  void account_kernel(const KernelStats& stats);
  /// Record a host<->device or device<->device copy of `bytes` taking
  /// `seconds` of modeled time (the topology computes seconds).
  void account_transfer(bytes_t bytes, double seconds, bool host_link,
                        bool outgoing);

  [[nodiscard]] const DeviceCounters& counters() const { return counters_; }
  void reset_counters() { counters_.reset(); }

  // -- simulated clock -----------------------------------------------------
  [[nodiscard]] double clock_seconds() const { return clock_seconds_; }
  void advance_clock(double seconds) { clock_seconds_ += seconds; }
  void set_clock(double seconds) { clock_seconds_ = seconds; }
  void reset_clock() { clock_seconds_ = 0.0; }

  /// Modeled duration of a kernel with the given traffic (does not mutate).
  [[nodiscard]] double model_kernel_seconds(const KernelStats& stats) const;

 private:
  int id_;
  DeviceSpec spec_;
  int socket_;
  std::atomic<bytes_t> used_{0};
  DeviceCounters counters_{};
  double clock_seconds_ = 0.0;
};

/// Barrier: align all device clocks to the maximum (Alg. 3 line 12).
void sync_devices(const std::vector<Device*>& devices);
double max_clock(const std::vector<Device*>& devices);

/// RAII device-memory allocation. Storage physically lives in host RAM; the
/// device is charged for capacity purposes.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(Device& dev, std::size_t count) : dev_(&dev), data_(count) {
    dev_->charge(bytes());
  }
  ~DeviceBuffer() { reset(); }

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  DeviceBuffer(DeviceBuffer&& o) noexcept
      : dev_(o.dev_), data_(std::move(o.data_)) {
    o.dev_ = nullptr;
    o.data_.clear();
  }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      reset();
      dev_ = o.dev_;
      data_ = std::move(o.data_);
      o.dev_ = nullptr;
      o.data_.clear();
    }
    return *this;
  }

  void reset() {
    if (dev_ && !data_.empty()) dev_->release(bytes());
    dev_ = nullptr;
    data_.clear();
    data_.shrink_to_fit();
  }

  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] bytes_t bytes() const {
    return static_cast<bytes_t>(data_.size()) * sizeof(T);
  }
  [[nodiscard]] T* data() { return data_.data(); }
  [[nodiscard]] const T* data() const { return data_.data(); }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }

 private:
  Device* dev_ = nullptr;
  std::vector<T> data_;
};

}  // namespace cumf::gpusim
