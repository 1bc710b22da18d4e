#include "gpusim/device.hpp"

#include <algorithm>
#include <sstream>

namespace cumf::gpusim {

namespace {
std::string oom_message(const std::string& device, bytes_t requested,
                        bytes_t used, bytes_t capacity) {
  std::ostringstream os;
  os << "device " << device << " out of memory: requested " << requested
     << " B with " << used << "/" << capacity << " B in use";
  return os.str();
}
}  // namespace

DeviceOomError::DeviceOomError(const std::string& device, bytes_t requested,
                               bytes_t used, bytes_t capacity)
    : std::runtime_error(oom_message(device, requested, used, capacity)) {}

Device::Device(int id, DeviceSpec spec, int socket)
    : id_(id), spec_(std::move(spec)), socket_(socket) {}

void Device::charge(bytes_t bytes) {
  const bytes_t before = used_.fetch_add(bytes);
  if (before + bytes > spec_.global_bytes) {
    used_.fetch_sub(bytes);
    throw DeviceOomError(spec_.name + "#" + std::to_string(id_), bytes, before,
                         spec_.global_bytes);
  }
}

void Device::release(bytes_t bytes) noexcept { used_.fetch_sub(bytes); }

double Device::model_kernel_seconds(const KernelStats& stats) const {
  const double compute_s = stats.flops / (spec_.peak_sp_gflops * 1e9);
  const double contiguous =
      static_cast<double>(stats.global_read + stats.global_write);
  const double mem_s = contiguous / (spec_.mem_bw_gbps * 1e9);
  const double gather_bw =
      stats.gathered_via_texture
          ? spec_.gathered_texture_bw() * stats.gather_quality
          : spec_.gathered_global_bw();
  const double gather_s =
      static_cast<double>(stats.gathered_read) / (gather_bw * 1e9);
  const double shared_s =
      static_cast<double>(stats.shared_read + stats.shared_write) /
      (spec_.shared_bw_gbps * 1e9);
  const double busy =
      std::max({compute_s, mem_s, gather_s, shared_s});
  return spec_.kernel_launch_overhead_us * 1e-6 + busy;
}

void Device::account_kernel(const KernelStats& stats) {
  counters_.flops += stats.flops;
  counters_.global_read += stats.global_read;
  counters_.global_write += stats.global_write;
  counters_.gathered_read += stats.gathered_read;
  if (stats.gathered_via_texture) counters_.texture_read += stats.gathered_read;
  counters_.shared_read += stats.shared_read;
  counters_.shared_write += stats.shared_write;
  ++counters_.kernels_launched;
  clock_seconds_ += model_kernel_seconds(stats);
}

void Device::account_transfer(bytes_t bytes, double seconds, bool host_link,
                              bool outgoing) {
  if (host_link) {
    if (outgoing) {
      counters_.d2h_bytes += bytes;
    } else {
      counters_.h2d_bytes += bytes;
    }
  } else {
    counters_.d2d_bytes += bytes;
  }
  ++counters_.transfers;
  clock_seconds_ += seconds;
}

void sync_devices(const std::vector<Device*>& devices) {
  const double target = max_clock(devices);
  for (Device* d : devices) d->set_clock(target);
}

double max_clock(const std::vector<Device*>& devices) {
  double target = 0.0;
  for (const Device* d : devices) {
    target = std::max(target, d->clock_seconds());
  }
  return target;
}

}  // namespace cumf::gpusim
