#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "serve/job.hpp"
#include "support/mini_json.hpp"

namespace saclo::serve {
namespace {

JobSpec small_job(Route route = Route::SacNongeneric) {
  JobSpec spec;
  spec.route = route;
  spec.frames = 2;
  spec.exec_frames = 1;
  return spec;
}

TEST(ServeRuntimeTest, FleetResultsAreBitExactAgainstSingleDevice) {
  ServeRuntime::Options opts;
  opts.devices = 2;
  ServeRuntime runtime(opts);

  for (Route route : {Route::SacNongeneric, Route::SacGeneric, Route::Gaspard}) {
    JobSpec spec;
    spec.route = route;
    spec.frames = 3;  // every frame executes functionally (exec_frames = -1)
    const JobResult reference = reference_run(spec, opts.device);
    ASSERT_GT(reference.last_output.elements(), 0) << route_name(route);

    // Two copies of the job so both fleet devices are exercised.
    auto f1 = runtime.submit(spec);
    auto f2 = runtime.submit(spec);
    const JobResult r1 = f1.get();
    const JobResult r2 = f2.get();
    EXPECT_EQ(r1.last_output, reference.last_output) << route_name(route);
    EXPECT_EQ(r2.last_output, reference.last_output) << route_name(route);
    EXPECT_GT(r1.sim_wall_us, 0.0);
    EXPECT_GE(r1.latency_us, r1.exec_us);
  }
}

TEST(ServeRuntimeTest, SimulatedThroughputScalesAcrossDevices) {
  // The tentpole acceptance criterion: the same 16 jobs on 4 devices
  // finish in at most ~1/4 of the simulated fleet time of 1 device,
  // so frames/s of simulated time scales >= 3x. Dispatch starts only
  // once every job is placed: a job that finished mid-submission would
  // otherwise shrink its device's backlog and skew placement.
  const int kJobs = 16;
  double fps[2] = {0, 0};
  const int device_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    ServeRuntime::Options opts;
    opts.devices = device_counts[i];
    opts.queue_capacity = kJobs;
    opts.start_paused = true;
    ServeRuntime runtime(opts);
    std::vector<std::future<JobResult>> futures;
    for (int j = 0; j < kJobs; ++j) {
      JobSpec spec = small_job();
      spec.frames = 8;
      futures.push_back(runtime.submit(spec));
    }
    runtime.resume();
    for (auto& f : futures) f.get();
    runtime.drain();
    fps[i] = runtime.metrics().snapshot().throughput_fps_sim;
    ASSERT_GT(fps[i], 0.0);
  }
  EXPECT_GE(fps[1] / fps[0], 3.0) << "1 device: " << fps[0] << " fps, 4 devices: " << fps[1];
}

TEST(ServeRuntimeTest, LeastLoadedPlacementBalancesEqualJobs) {
  ServeRuntime::Options opts;
  opts.devices = 2;
  opts.start_paused = true;  // hold dispatch so queue depths are observable
  ServeRuntime runtime(opts);

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(runtime.submit(small_job()));

  const FleetMetrics::Snapshot s = runtime.metrics().snapshot();
  EXPECT_EQ(s.devices[0].queue_depth, 2);
  EXPECT_EQ(s.devices[1].queue_depth, 2);

  runtime.drain();
  for (auto& f : futures) EXPECT_GE(f.get().device, 0);
}

TEST(ServeRuntimeTest, BigJobShiftsSmallJobsToTheOtherDevice) {
  ServeRuntime::Options opts;
  opts.devices = 2;
  opts.start_paused = true;
  ServeRuntime runtime(opts);

  JobSpec big = small_job();
  big.frames = 32;  // cost-model estimate dwarfs three small jobs
  std::vector<std::future<JobResult>> futures;
  futures.push_back(runtime.submit(big));
  for (int i = 0; i < 3; ++i) futures.push_back(runtime.submit(small_job()));

  const FleetMetrics::Snapshot s = runtime.metrics().snapshot();
  EXPECT_EQ(s.devices[0].queue_depth, 1);
  EXPECT_EQ(s.devices[1].queue_depth, 3);

  runtime.drain();
  EXPECT_EQ(futures[0].get().device, 0);
  for (int i = 1; i < 4; ++i) EXPECT_EQ(futures[i].get().device, 1);
}

TEST(ServeRuntimeTest, TrySubmitShedsLoadWhenTheBacklogIsFull) {
  ServeRuntime::Options opts;
  opts.devices = 1;
  opts.queue_capacity = 2;
  opts.start_paused = true;
  ServeRuntime runtime(opts);

  auto f1 = runtime.try_submit(small_job());
  auto f2 = runtime.try_submit(small_job());
  ASSERT_TRUE(f1.has_value());
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(runtime.queued_jobs(), 2u);

  // Backlog at capacity: the non-blocking path refuses.
  EXPECT_FALSE(runtime.try_submit(small_job()).has_value());

  runtime.drain();
  EXPECT_EQ(runtime.queued_jobs(), 0u);
  EXPECT_EQ(runtime.inflight_jobs(), 0u);
  // Space freed up: submission works again.
  auto f3 = runtime.try_submit(small_job());
  ASSERT_TRUE(f3.has_value());
  EXPECT_GT(f3->get().sim_wall_us, 0.0);
}

TEST(ServeRuntimeTest, BlockingSubmitWaitsForSpace) {
  ServeRuntime::Options opts;
  opts.devices = 1;
  opts.queue_capacity = 2;
  ServeRuntime runtime(opts);

  // More jobs than capacity: submit() must block-and-resume rather than
  // fail, and every future must still deliver.
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(runtime.submit(small_job()));
  for (auto& f : futures) EXPECT_EQ(f.get().device, 0);
  EXPECT_EQ(runtime.metrics().snapshot().jobs_completed, 6);
}

TEST(ServeRuntimeTest, SubmitAfterShutdownIsRejected) {
  ServeRuntime::Options opts;
  opts.devices = 1;
  ServeRuntime runtime(opts);
  runtime.shutdown();
  EXPECT_THROW(runtime.submit(small_job()), ServeError);
  EXPECT_FALSE(runtime.try_submit(small_job()).has_value());
}

TEST(ServeRuntimeTest, InvalidSpecsAreRejectedAtSubmission) {
  ServeRuntime::Options opts;
  opts.devices = 1;
  ServeRuntime runtime(opts);
  JobSpec bad;
  bad.frames = 0;
  EXPECT_THROW(runtime.submit(bad), ServeError);
  JobSpec too_many_exec = small_job();
  too_many_exec.exec_frames = 99;
  EXPECT_THROW(runtime.submit(too_many_exec), ServeError);
}

TEST(ServeRuntimeTest, ConcurrentSubmittersAllGetTheirResults) {
  // The ThreadSanitizer target: many producer threads race submit()
  // against two dispatcher threads and the metrics reader.
  ServeRuntime::Options opts;
  opts.devices = 2;
  opts.queue_capacity = 8;  // forces backpressure under the race
  ServeRuntime runtime(opts);

  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 6;
  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<JobResult>>> futures(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&runtime, &futures, t] {
      for (int i = 0; i < kJobsPerThread; ++i) {
        futures[static_cast<std::size_t>(t)].push_back(runtime.submit(small_job()));
      }
    });
  }
  for (auto& p : producers) p.join();
  for (auto& per_thread : futures) {
    for (auto& f : per_thread) {
      const JobResult r = f.get();
      EXPECT_GE(r.device, 0);
      EXPECT_LT(r.device, 2);
      EXPECT_GT(r.sim_wall_us, 0.0);
    }
  }
  runtime.drain();
  const FleetMetrics::Snapshot s = runtime.metrics().snapshot();
  EXPECT_EQ(s.jobs_completed, kThreads * kJobsPerThread);
  EXPECT_EQ(s.jobs_failed, 0);
}

TEST(ServeRuntimeTest, AllocatorReachesZeroMissSteadyState) {
  // Acceptance criterion: after one warmup job the caching allocator
  // serves every further (identical) job without touching the raw pool.
  ServeRuntime::Options opts;
  opts.devices = 1;
  ServeRuntime runtime(opts);

  runtime.submit(small_job()).get();
  runtime.drain();
  const CachingDeviceAllocator::Stats warm = runtime.allocator_stats(0);
  ASSERT_GT(warm.misses, 0);  // warmup populated the cache

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(runtime.submit(small_job()));
  for (auto& f : futures) f.get();
  runtime.drain();

  const CachingDeviceAllocator::Stats steady = runtime.allocator_stats(0);
  EXPECT_EQ(steady.misses, warm.misses) << "steady state must not hit the raw pool";
  EXPECT_GT(steady.hits, warm.hits);
  EXPECT_EQ(steady.live_blocks, 0);
}

TEST(ServeRuntimeTest, MetricsJsonAndTraceExportAreWellFormed) {
  ServeRuntime::Options opts;
  opts.devices = 2;
  ServeRuntime runtime(opts);
  runtime.submit(small_job()).get();
  runtime.drain();

  const testsupport::Json metrics = testsupport::parse_json(runtime.metrics_json());
  EXPECT_DOUBLE_EQ(metrics.at("jobs_completed").number, 1.0);
  ASSERT_EQ(metrics.at("per_device").array.size(), 2u);
  EXPECT_TRUE(metrics.at("per_device").array[0].has("allocator"));

  // The device that ran the job has a non-empty, parseable Chrome trace.
  const int device = static_cast<int>(
      metrics.at("per_device").array[0].at("jobs").number > 0 ? 0 : 1);
  const testsupport::Json trace = testsupport::parse_json(runtime.device_trace_json(device));
  EXPECT_GT(trace.at("traceEvents").array.size(), 0u);

  EXPECT_NE(runtime.report().find("throughput"), std::string::npos);
}

TEST(ServeRuntimeTest, DeviceSimClocksAdvanceOnlyWhereJobsRan) {
  ServeRuntime::Options opts;
  opts.devices = 2;
  opts.start_paused = true;
  ServeRuntime runtime(opts);
  auto f = runtime.submit(small_job());  // lands on device 0
  runtime.drain();
  EXPECT_EQ(f.get().device, 0);
  EXPECT_GT(runtime.device_sim_clock_us(0), 0.0);
  EXPECT_EQ(runtime.device_sim_clock_us(1), 0.0);
}

}  // namespace
}  // namespace saclo::serve
