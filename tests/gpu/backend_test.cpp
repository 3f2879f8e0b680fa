// Backend-conformance suite: a VirtualGpu of every available backend,
// driven through a fault::FaultInjector, must cross the same op
// boundaries exactly once per op, fail-stop before any work at a faulted
// boundary, run range chunks that cover every thread id once, and give
// bit-exact results. The backends differ only in the device clock.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <span>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "gpu/sim_gpu.hpp"

namespace saclo::gpu {
namespace {

/// The injector's (kernels_seen, transfers_seen) after one op.
using Seen = std::pair<std::int64_t, std::int64_t>;

Seen seen(const fault::FaultInjector& injector) {
  return {injector.kernels_seen(), injector.transfers_seen()};
}

/// A fault plan that faults every kernel and transfer boundary.
std::vector<fault::FaultSpec> dead_device() {
  fault::FaultSpec dead;
  dead.after_ms = 0;
  dead.recurring = true;
  return {dead};
}

/// A fixed op sequence: an upload, an executed and an accounting-only
/// kernel, an accounting-only transfer and a download. Appends the
/// boundary counts after each op to `boundaries` and returns the
/// download.
std::vector<std::int32_t> drive_sequence(VirtualGpu& gpu, const fault::FaultInjector& injector,
                                         std::vector<Seen>& boundaries) {
  std::vector<std::int32_t> data(64);
  std::iota(data.begin(), data.end(), 1);
  const BufferHandle buf = gpu.alloc(64 * 4);
  gpu.copy_h2d(buf, std::as_bytes(std::span<const std::int32_t>(data)), "h2d", true);
  boundaries.push_back(seen(injector));

  KernelLaunch scale;
  scale.name = "scale2";
  scale.threads = 64;
  auto dev = gpu.memory().view<std::int32_t>(buf);
  scale.range_body = [dev](std::int64_t begin, std::int64_t end) {
    for (std::int64_t i = begin; i < end; ++i) dev[static_cast<std::size_t>(i)] *= 2;
  };
  gpu.launch(scale, /*execute=*/true);
  boundaries.push_back(seen(injector));

  KernelLaunch accounted;
  accounted.name = "accounted";
  accounted.threads = 64;
  accounted.range_body = [](std::int64_t, std::int64_t) {
    FAIL() << "execute=false must not run the body";
  };
  gpu.launch(accounted, /*execute=*/false);
  boundaries.push_back(seen(injector));

  gpu.account_transfer(64 * 4, Dir::HostToDevice, "h2d", kDefaultStream, buf);
  boundaries.push_back(seen(injector));

  std::vector<std::int32_t> back(64);
  gpu.copy_d2h(std::as_writable_bytes(std::span<std::int32_t>(back)), buf, "d2h", true);
  boundaries.push_back(seen(injector));
  return back;
}

TEST(BackendTest, AvailableBackendsAlwaysHasSimAndHost) {
  const std::vector<BackendKind> kinds = available_backends();
  EXPECT_GE(kinds.size(), 2u);
  EXPECT_EQ(kinds[0], BackendKind::Sim);
  EXPECT_EQ(kinds[1], BackendKind::Host);
}

TEST(BackendTest, KindNamesRoundTrip) {
  for (BackendKind kind : available_backends()) {
    EXPECT_EQ(parse_backend_kind(backend_kind_name(kind)), kind);
  }
  EXPECT_THROW(parse_backend_kind("cuda"), BackendError);
  // The former stub backends' names are unknown names like any other.
  EXPECT_THROW(parse_backend_kind("opencl"), BackendError);
  EXPECT_THROW(parse_backend_kind("hc"), BackendError);
}

// The conformance core: every backend crosses the exact same boundary
// sequence for the same op sequence, one boundary per op, accounting-only
// ops included, and produces bit-exact results. This is the invariant
// that makes fault injection and the differential suites backend-agnostic.
TEST(BackendTest, AllBackendsReportIdenticalOpBoundaries) {
  const std::vector<Seen> expected = {{0, 1}, {1, 1}, {2, 1}, {2, 2}, {2, 3}};
  std::vector<std::int32_t> reference;
  for (BackendKind kind : available_backends()) {
    VirtualGpu gpu(gtx480(), 2, kind);
    fault::FaultInjector injector;
    gpu.set_fault_injector(&injector);
    std::vector<Seen> boundaries;
    const std::vector<std::int32_t> out = drive_sequence(gpu, injector, boundaries);

    EXPECT_EQ(boundaries, expected) << backend_kind_name(kind);
    EXPECT_EQ(injector.faults_fired(), 0) << backend_kind_name(kind);
    if (reference.empty()) reference = out;
    EXPECT_EQ(out, reference) << backend_kind_name(kind) << " diverged functionally";
  }
  EXPECT_EQ(reference[63], 128);
}

// Fail-stop: a faulted boundary aborts the op before any work, on every
// backend — the body does not run and no data moves.
TEST(BackendTest, InjectedFaultAbortsTheOpBeforeAnyWork) {
  for (BackendKind kind : available_backends()) {
    fault::FaultInjector injector(dead_device());
    VirtualGpu gpu(gtx480(), 1, kind);
    gpu.set_fault_injector(&injector);

    bool ran = false;
    KernelLaunch k;
    k.name = "never";
    k.threads = 4;
    k.range_body = [&ran](std::int64_t, std::int64_t) { ran = true; };
    EXPECT_THROW(gpu.launch(k, true), fault::DeviceFault) << backend_kind_name(kind);
    EXPECT_FALSE(ran) << backend_kind_name(kind) << " ran the body past a faulted boundary";

    const BufferHandle buf = gpu.alloc(32);
    auto device = gpu.memory().view<std::int32_t>(buf);
    std::fill(device.begin(), device.end(), 3);
    const std::vector<std::int32_t> src(8, 7);
    EXPECT_THROW(gpu.copy_h2d(buf, std::as_bytes(std::span<const std::int32_t>(src)), "h2d", true),
                 fault::DeviceFault)
        << backend_kind_name(kind);
    EXPECT_TRUE(std::all_of(device.begin(), device.end(), [](std::int32_t x) { return x == 3; }))
        << backend_kind_name(kind) << " uploaded past a faulted boundary";

    std::vector<std::int32_t> dst(8, 0);
    EXPECT_THROW(
        gpu.copy_d2h(std::as_writable_bytes(std::span<std::int32_t>(dst)), buf, "d2h", true),
        fault::DeviceFault)
        << backend_kind_name(kind);
    EXPECT_EQ(dst, std::vector<std::int32_t>(8, 0))
        << backend_kind_name(kind) << " downloaded past a faulted boundary";
    EXPECT_EQ(injector.faults_fired(), 3) << backend_kind_name(kind);
  }
}

// A faulted op accrues no device time and leaves no profiler row, on
// every backend: the fault fires before the op reaches the timeline.
TEST(BackendTest, FaultedOpLeavesClockAndProfilerEmpty) {
  for (BackendKind kind : available_backends()) {
    fault::FaultInjector injector(dead_device());
    VirtualGpu gpu(gtx480(), 1, kind);
    gpu.set_fault_injector(&injector);

    KernelLaunch k;
    k.name = "faulted";
    k.threads = 256;
    k.range_body = [](std::int64_t, std::int64_t) {};
    EXPECT_THROW(gpu.launch(k, true), fault::DeviceFault) << backend_kind_name(kind);
    EXPECT_THROW(gpu.account_launch(k), fault::DeviceFault) << backend_kind_name(kind);
    EXPECT_THROW(gpu.account_transfer(1024, Dir::DeviceToHost, "d2h"), fault::DeviceFault)
        << backend_kind_name(kind);

    EXPECT_EQ(gpu.clock_us(), 0.0) << backend_kind_name(kind);
    EXPECT_TRUE(gpu.profiler().rows().empty()) << backend_kind_name(kind);
    EXPECT_TRUE(gpu.profiler().intervals().empty()) << backend_kind_name(kind);
  }
}

// A silent (account=false) copy is a device-resident handoff, not PCIe
// traffic: it moves the data but crosses no fault boundary and accrues
// no time, on every backend.
TEST(BackendTest, SilentCopyCrossesNoBoundaryAndAccruesNoTime) {
  for (BackendKind kind : available_backends()) {
    fault::FaultInjector injector(dead_device());
    VirtualGpu gpu(gtx480(), 1, kind);
    gpu.set_fault_injector(&injector);

    const BufferHandle buf = gpu.alloc(32);
    const std::vector<std::int32_t> src(8, 9);
    gpu.copy_h2d(buf, std::as_bytes(std::span<const std::int32_t>(src)), "h2d", true,
                 /*account=*/false);
    std::vector<std::int32_t> dst(8, 0);
    gpu.copy_d2h(std::as_writable_bytes(std::span<std::int32_t>(dst)), buf, "d2h", true,
                 /*account=*/false);

    EXPECT_EQ(dst, src) << backend_kind_name(kind);
    EXPECT_EQ(seen(injector), Seen(0, 0)) << backend_kind_name(kind);
    EXPECT_EQ(injector.faults_fired(), 0) << backend_kind_name(kind);
    EXPECT_EQ(gpu.clock_us(), 0.0) << backend_kind_name(kind);
    EXPECT_TRUE(gpu.profiler().rows().empty()) << backend_kind_name(kind);
    EXPECT_TRUE(gpu.profiler().intervals().empty()) << backend_kind_name(kind);
  }
}

// Every backend runs the range body over chunks that cover [0, threads)
// exactly once, whether the kernel has fewer threads than the pool has
// workers, as many, or more.
TEST(BackendTest, RangeBodyChunksCoverEveryThreadExactlyOnce) {
  for (BackendKind kind : available_backends()) {
    VirtualGpu gpu(gtx480(), 3, kind);
    const std::int64_t workers = gpu.thread_pool().worker_count();
    for (const std::int64_t threads : {workers - 1, workers, 2 * workers, 1000 * workers + 1}) {
      std::vector<std::atomic<int>> hits(static_cast<std::size_t>(threads));
      std::atomic<bool> in_bounds{true};
      KernelLaunch k;
      k.name = "cover";
      k.threads = threads;
      k.range_body = [&hits, &in_bounds, threads](std::int64_t begin, std::int64_t end) {
        if (begin < 0 || begin >= end || end > threads) in_bounds = false;
        for (std::int64_t i = begin; i < end; ++i) hits[static_cast<std::size_t>(i)]++;
      };
      gpu.launch(k, true);
      EXPECT_TRUE(in_bounds.load()) << backend_kind_name(kind) << " threads=" << threads;
      for (std::int64_t i = 0; i < threads; ++i) {
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << backend_kind_name(kind) << " threads=" << threads << " id=" << i;
      }
    }
  }
}

// Durations: sim charges the analytic model for executed and
// accounting-only ops alike; host measures the wall clock for executed
// ops and falls back to the model otherwise.
TEST(BackendTest, DurationsArePositiveAndModelExactForSim) {
  KernelLaunch k;
  k.name = "noop";
  k.threads = 256;
  k.cost.flops_per_thread = 8;
  k.range_body = [](std::int64_t, std::int64_t) {};
  const DeviceSpec spec = gtx480();
  const double modeled = kernel_time_us(spec, k.threads, k.cost);

  VirtualGpu sim(spec, 1);
  EXPECT_DOUBLE_EQ(sim.launch(k, true), modeled);
  EXPECT_DOUBLE_EQ(sim.launch(k, false), modeled);
  const BufferHandle buf = sim.alloc(4096);
  const std::vector<std::byte> bytes(4096);
  sim.copy_h2d(buf, bytes, "h2d", true);
  EXPECT_DOUBLE_EQ(sim.clock_us(), 2 * modeled + transfer_time_us(spec, 4096, Dir::HostToDevice));

  VirtualGpu host(spec, 1, BackendKind::Host);
  EXPECT_GT(host.launch(k, true), 0.0);
  EXPECT_DOUBLE_EQ(host.launch(k, false), modeled)
      << "accounting-only ops have nothing to measure: model time";
}

// Fault-boundary parity: the same fault plan interrupts the same op, at
// the same count, on both backends — the injector never sees which
// backend is underneath.
TEST(BackendTest, FaultInjectionFiresAtTheSameBoundaryOnEveryBackend) {
  const auto ops_before_fault = [](BackendKind kind) {
    fault::FaultSpec spec;
    spec.device = 0;
    spec.after_kernels = 2;
    spec.kind = fault::FaultKind::Kernel;
    fault::FaultInjector injector({spec});
    VirtualGpu gpu(gtx480(), 1, kind);
    gpu.set_fault_injector(&injector);

    const BufferHandle buf = gpu.alloc(64 * 4);
    std::vector<std::int32_t> host_data(64, 5);
    gpu.copy_h2d(buf, std::as_bytes(std::span<const std::int32_t>(host_data)), "h2d", true);

    KernelLaunch k;
    k.name = "count";
    k.threads = 64;
    k.range_body = [](std::int64_t, std::int64_t) {};
    int completed = 0;
    try {
      for (int i = 0; i < 5; ++i) {
        gpu.launch(k, true);
        ++completed;
      }
    } catch (const fault::DeviceFault&) {
    }
    return completed;
  };

  const int sim_ops = ops_before_fault(BackendKind::Sim);
  EXPECT_EQ(sim_ops, 2) << "after_kernels=2: two launches succeed, the third faults";
  for (BackendKind kind : available_backends()) {
    EXPECT_EQ(ops_before_fault(kind), sim_ops) << backend_kind_name(kind);
  }
}

// VirtualGpu surface: the backend is queryable and stamps the profiler,
// so traces produced by a host-backed device say so.
TEST(BackendTest, VirtualGpuExposesItsBackend) {
  VirtualGpu sim(gtx480(), 1);
  EXPECT_EQ(sim.backend_kind(), BackendKind::Sim);
  EXPECT_STREQ(sim.backend_name(), "sim");
  EXPECT_EQ(sim.profiler().backend_name(), "sim");

  VirtualGpu host(gtx480(), 1, BackendKind::Host);
  EXPECT_EQ(host.backend_kind(), BackendKind::Host);
  EXPECT_STREQ(host.backend_name(), "host");
  EXPECT_EQ(host.profiler().backend_name(), "host");
}

// End-to-end device parity: the same staged computation on a sim and a
// host VirtualGpu produces byte-identical downloads.
TEST(BackendTest, VirtualGpuResultsAreBitExactAcrossBackends) {
  const auto run = [](BackendKind kind) {
    VirtualGpu gpu(gtx480(), 2, kind);
    const BufferHandle buf = gpu.alloc(256 * 4);
    std::vector<std::int32_t> input(256);
    std::iota(input.begin(), input.end(), -100);
    gpu.copy_h2d(buf, std::as_bytes(std::span<const std::int32_t>(input)), "h2d", true);

    auto view = gpu.memory().view<std::int32_t>(buf);
    KernelLaunch k;
    k.name = "mix";
    k.threads = 256;
    k.range_body = [view](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) {
        auto& x = view[static_cast<std::size_t>(i)];
        x = x * 3 - static_cast<std::int32_t>(i % 7);
      }
    };
    gpu.launch(k, true);

    std::vector<std::int32_t> out(256);
    gpu.copy_d2h(std::as_writable_bytes(std::span<std::int32_t>(out)), buf, "d2h", true);
    return out;
  };

  const std::vector<std::int32_t> reference = run(BackendKind::Sim);
  for (BackendKind kind : available_backends()) {
    EXPECT_EQ(run(kind), reference) << backend_kind_name(kind);
  }
}

}  // namespace
}  // namespace saclo::gpu
