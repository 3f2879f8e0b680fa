#include "gpu/memory.hpp"

#include "core/fmt.hpp"

namespace saclo::gpu {

namespace {
std::int64_t align_up(std::int64_t bytes, std::int64_t alignment) {
  return (bytes + alignment - 1) / alignment * alignment;
}
}  // namespace

BufferHandle DeviceMemoryPool::allocate(std::int64_t bytes) {
  if (bytes < 0) throw DeviceMemoryError(cat("allocate(", bytes, ") is negative"));
  const std::int64_t reserved = align_up(bytes, kAlignment);
  if (used_ + reserved > capacity_) {
    throw DeviceMemoryError(cat("device out of memory: requested ", bytes, " bytes (", reserved,
                                " aligned), ", capacity_ - used_, " of ", capacity_,
                                " available"));
  }
  BufferHandle h{next_id_++, bytes};
  const auto size = static_cast<std::size_t>(bytes);
  std::unique_ptr<std::byte[], AlignedDelete> data(
      new (std::align_val_t{kAlignment}) std::byte[size]());  // zero-filled
  buffers_.emplace(h.id, Block{std::move(data), size, reserved});
  used_ += reserved;
  if (used_ > peak_) peak_ = used_;
  return h;
}

void DeviceMemoryPool::free(BufferHandle handle) {
  auto it = buffers_.find(handle.id);
  if (it == buffers_.end()) {
    if (handle.id != 0 && handle.id < next_id_) {
      throw DeviceMemoryError(cat("double free of device buffer id ", handle.id,
                                  ": the handle was already freed (or recycled by a caching "
                                  "allocator and returned twice)"));
    }
    throw DeviceMemoryError(cat("free of invalid device buffer id ", handle.id,
                                ": never allocated by this pool"));
  }
  used_ -= it->second.reserved;
  buffers_.erase(it);
}

std::span<std::byte> DeviceMemoryPool::bytes(BufferHandle handle) {
  auto it = buffers_.find(handle.id);
  if (it == buffers_.end()) {
    throw DeviceMemoryError(cat("access to invalid device buffer id ", handle.id));
  }
  return {it->second.data.get(), it->second.size};
}

std::span<const std::byte> DeviceMemoryPool::bytes(BufferHandle handle) const {
  auto it = buffers_.find(handle.id);
  if (it == buffers_.end()) {
    throw DeviceMemoryError(cat("access to invalid device buffer id ", handle.id));
  }
  return {it->second.data.get(), it->second.size};
}

}  // namespace saclo::gpu
