#include "gpu/sim_gpu.hpp"

#include <chrono>
#include <cstring>

#include "core/fmt.hpp"
#include "fault/fault.hpp"

namespace saclo::gpu {

namespace {

/// The device clock: runs `work` and returns its measured wall time on
/// `host`, the analytic `modeled_us` on `sim`.
template <class Work>
double clocked(BackendKind backend, double modeled_us, Work&& work) {
  if (backend != BackendKind::Host) {
    work();
    return modeled_us;
  }
  const auto t0 = std::chrono::steady_clock::now();
  work();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

VirtualGpu::VirtualGpu(DeviceSpec spec, unsigned workers, BackendKind backend)
    : spec_(std::move(spec)),
      memory_(static_cast<std::int64_t>(spec_.global_mem_bytes)),
      pool_(workers),
      backend_(backend) {
  profiler_.set_backend_name(backend_kind_name(backend_));
}

void VirtualGpu::copy_h2d(BufferHandle dst, std::span<const std::byte> src, const std::string& op,
                          bool execute, bool account, StreamId stream) {
  auto dest = memory_.bytes(dst);
  if (src.size() > dest.size()) {
    throw DeviceMemoryError(cat("copy_h2d of ", src.size(), " bytes into ", dest.size(),
                                "-byte device buffer"));
  }
  // Silent (account=false) copies are device-resident handoffs, not
  // PCIe traffic: they cross no fault boundary and accrue no time.
  if (!account) {
    if (execute) std::memcpy(dest.data(), src.data(), src.size());
    return;
  }
  const double us = transfer_us(Dir::HostToDevice, dest.first(src.size()), src,
                                static_cast<std::int64_t>(src.size()), execute);
  schedule_transfer(us, Dir::HostToDevice, op, stream, dst);
}

void VirtualGpu::copy_d2h(std::span<std::byte> dst, BufferHandle src, const std::string& op,
                          bool execute, bool account, StreamId stream) {
  auto source = memory_.bytes(src);
  if (dst.size() > source.size()) {
    throw DeviceMemoryError(cat("copy_d2h of ", dst.size(), " bytes from ", source.size(),
                                "-byte device buffer"));
  }
  if (!account) {
    if (execute) std::memcpy(dst.data(), source.data(), dst.size());
    return;
  }
  const double us = transfer_us(Dir::DeviceToHost, dst, source.first(dst.size()),
                                static_cast<std::int64_t>(dst.size()), execute);
  schedule_transfer(us, Dir::DeviceToHost, op, stream, src);
}

void VirtualGpu::account_transfer(std::int64_t bytes, Dir dir, const std::string& op,
                                  StreamId stream, BufferHandle touched) {
  schedule_transfer(transfer_us(dir, {}, {}, bytes, false), dir, op, stream, touched);
}

double VirtualGpu::transfer_us(Dir dir, std::span<std::byte> dst, std::span<const std::byte> src,
                               std::int64_t bytes, bool execute) {
  if (fault_ != nullptr) fault_->on_transfer(timeline_.makespan_us());
  const double modeled = transfer_time_us(spec_, bytes, dir);
  if (!execute || dst.empty()) return modeled;
  return clocked(backend_, modeled, [&] { std::memcpy(dst.data(), src.data(), dst.size()); });
}

void VirtualGpu::schedule_transfer(double us, Dir dir, const std::string& op, StreamId stream,
                                   BufferHandle touched) {
  const BufferHandle handles[] = {touched};
  const std::span<const BufferHandle> hazard =
      touched.valid() ? std::span<const BufferHandle>(handles) : std::span<const BufferHandle>();
  const auto iv = dir == Dir::HostToDevice ? timeline_.schedule(stream, us, {}, hazard)
                                           : timeline_.schedule(stream, us, hazard, {});
  profiler_.record_interval(op, dir == Dir::HostToDevice ? OpKind::MemcpyHtoD : OpKind::MemcpyDtoH,
                            stream, iv.start_us, iv.end_us);
}

double VirtualGpu::launch(const KernelLaunch& kernel, bool execute, StreamId stream) {
  if (fault_ != nullptr) fault_->on_kernel(timeline_.makespan_us());
  const double modeled = kernel_time_us(spec_, kernel.threads, kernel.cost);
  const double us =
      execute && kernel.range_body
          ? clocked(backend_, modeled,
                    [&] { pool_.parallel_for_ranges(kernel.threads, kernel.range_body); })
          : modeled;
  const auto iv = timeline_.schedule(stream, us, kernel.reads, kernel.writes);
  profiler_.record_interval(kernel.name, OpKind::Kernel, stream, iv.start_us, iv.end_us);
  return us;
}

double VirtualGpu::run_host(const std::string& op, double us, StreamId stream) {
  const auto iv = timeline_.schedule(stream, us);
  profiler_.record_interval(op, OpKind::Host, stream, iv.start_us, iv.end_us);
  return iv.end_us;
}

}  // namespace saclo::gpu
