// Dynamic batching in the serving runtime: a dispatcher coalesces
// queued same-key jobs into one fused frame loop (stream barrier elided
// between members). Batching is a scheduling change only — every
// member's output must stay bit-exact against the single-job reference,
// including when a fault strikes mid-batch and one member fails over.

#include <gtest/gtest.h>

#include <future>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"
#include "support/fault_fixtures.hpp"

namespace saclo::serve {
namespace {

using testsupport::expect_zero_allocator_leaks;
using testsupport::FaultPlanBuilder;
using testsupport::faulty_fleet_options;

JobSpec gaspard_job() {
  JobSpec spec;
  spec.route = Route::Gaspard;
  spec.config = apps::DownscalerConfig::tiny();
  spec.frames = 2;  // exec_frames = -1: every frame executes functionally
  return spec;
}

JobSpec sac_job() {
  JobSpec spec;
  spec.route = Route::SacNongeneric;
  spec.config = apps::DownscalerConfig::tiny();
  spec.frames = 2;
  return spec;
}

/// Paused single-device fleet: everything queues behind the pause, so
/// resume() hands the dispatcher the whole backlog at once and the
/// batch composition is deterministic.
ServeRuntime::Options paused_batching_options(int batch_max) {
  ServeRuntime::Options opts;
  opts.devices = 1;
  opts.start_paused = true;
  opts.batch_max = batch_max;
  opts.event_log_capacity = 1024;
  return opts;
}

TEST(BatchingTest, CoalescedBatchIsBitExactAndCounted) {
  const JobSpec spec = gaspard_job();
  ServeRuntime::Options opts = paused_batching_options(4);
  const JobResult reference = reference_run(spec, opts.device);
  ASSERT_GT(reference.last_output.elements(), 0);

  ServeRuntime runtime(opts);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(runtime.submit(spec));
  runtime.resume();
  for (auto& f : futures) {
    const JobResult r = f.get();
    EXPECT_EQ(r.last_output, reference.last_output) << "batched member diverged";
    EXPECT_EQ(r.attempts, 0);
  }
  runtime.drain();

  const FleetMetrics::Snapshot s = runtime.metrics().snapshot();
  EXPECT_EQ(s.jobs_completed, 4);
  EXPECT_EQ(s.batches_formed, 1);
  EXPECT_EQ(s.jobs_batched, 4);
  EXPECT_EQ(s.batch_size_hist.max(), 4);

  // The coalescing is observable: a batch_formed event carrying the
  // batch size, and the members' device spans stamped with the batch id.
  const std::string events = runtime.events_jsonl();
  EXPECT_NE(events.find("\"event\":\"batch_formed\""), std::string::npos) << events;
  EXPECT_NE(events.find("\"arg\":4"), std::string::npos) << events;
  EXPECT_NE(runtime.device_trace_json(0).find("\"batch\":"), std::string::npos);
}

TEST(BatchingTest, OnlySameKeyJobsCoalesce) {
  ServeRuntime::Options opts = paused_batching_options(4);
  const JobResult gaspard_ref = reference_run(gaspard_job(), opts.device);
  const JobResult sac_ref = reference_run(sac_job(), opts.device);

  ServeRuntime runtime(opts);
  std::vector<std::future<JobResult>> gaspard_futures;
  std::vector<std::future<JobResult>> sac_futures;
  for (int i = 0; i < 2; ++i) {
    gaspard_futures.push_back(runtime.submit(gaspard_job()));
    sac_futures.push_back(runtime.submit(sac_job()));
  }
  runtime.resume();
  for (auto& f : gaspard_futures) EXPECT_EQ(f.get().last_output, gaspard_ref.last_output);
  for (auto& f : sac_futures) EXPECT_EQ(f.get().last_output, sac_ref.last_output);
  runtime.drain();

  // The interleaved backlog [g, s, g, s] must form per-key batches of
  // 2, never a mixed batch of 4.
  const FleetMetrics::Snapshot s = runtime.metrics().snapshot();
  EXPECT_EQ(s.jobs_completed, 4);
  EXPECT_EQ(s.batches_formed, 2);
  EXPECT_EQ(s.jobs_batched, 4);
  EXPECT_EQ(s.batch_size_hist.max(), 2);
}

TEST(BatchingTest, DifferentOptLevelsDoNotCoalesce) {
  const JobSpec unfused = gaspard_job();
  JobSpec fused = gaspard_job();
  fused.opt_level = 1;
  EXPECT_NE(batch_key(unfused), batch_key(fused));
  EXPECT_EQ(batch_key(unfused), batch_key(gaspard_job()));
}

TEST(BatchingTest, BatchMaxOneNeverBatches) {
  const JobSpec spec = gaspard_job();
  ServeRuntime::Options opts = paused_batching_options(1);
  ServeRuntime runtime(opts);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(runtime.submit(spec));
  runtime.resume();
  for (auto& f : futures) f.get();
  runtime.drain();

  const FleetMetrics::Snapshot s = runtime.metrics().snapshot();
  EXPECT_EQ(s.jobs_completed, 3);
  EXPECT_EQ(s.batches_formed, 0);
  EXPECT_EQ(s.jobs_batched, 0);
  EXPECT_EQ(runtime.events_jsonl().find("batch_formed"), std::string::npos);
}

TEST(BatchingTest, BatchWaitCoalescesLateArrivals) {
  const JobSpec spec = gaspard_job();
  ServeRuntime::Options opts;
  opts.devices = 1;
  opts.batch_max = 4;
  opts.batch_wait_ms = 500.0;  // far longer than the submission loop takes
  const JobResult reference = reference_run(spec, opts.device);

  ServeRuntime runtime(opts);
  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(runtime.submit(spec));
  for (auto& f : futures) EXPECT_EQ(f.get().last_output, reference.last_output);
  runtime.drain();

  // The dispatcher may pick a leader before the later submissions land,
  // but the wait window keeps the batch open for them: at least one
  // multi-member batch must have formed.
  const FleetMetrics::Snapshot s = runtime.metrics().snapshot();
  EXPECT_EQ(s.jobs_completed, 4);
  EXPECT_GE(s.batches_formed, 1);
  EXPECT_GE(s.jobs_batched, 2);
}

// A fault striking mid-batch: the faulted member follows the normal
// failover path to a healthy device while the members behind it keep
// the original device busy — and every output stays bit-exact.
TEST(BatchingTest, MidBatchFaultFailsOverBitExact) {
  const JobSpec spec = gaspard_job();
  ServeRuntime::Options defaults;
  const JobResult reference = reference_run(spec, defaults.device);
  ASSERT_GE(reference.ops.kernel_launches, 2);

  // Two devices, alternating placement: device 0's queue holds jobs
  // 1 and 3, which coalesce into one batch. The fault boundary lands
  // inside the batch's second member.
  const int boundary = reference.ops.kernel_launches + reference.ops.kernel_launches / 2;
  ServeRuntime::Options opts =
      faulty_fleet_options(2, FaultPlanBuilder().fail_after_kernels(0, boundary).build());
  opts.batch_max = 4;
  opts.event_log_capacity = 1024;
  ServeRuntime runtime(opts);

  std::vector<std::future<JobResult>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(runtime.submit(spec));
  runtime.resume();
  int failovers = 0;
  for (auto& f : futures) {
    const JobResult r = f.get();
    EXPECT_EQ(r.last_output, reference.last_output)
        << "mid-batch faulted member diverged from the fault-free reference";
    failovers += r.attempts;
  }
  runtime.drain();

  const FleetMetrics::Snapshot s = runtime.metrics().snapshot();
  EXPECT_EQ(s.jobs_completed, 4);
  EXPECT_EQ(s.jobs_failed, 0);
  EXPECT_EQ(s.device_faults, 1);
  EXPECT_EQ(failovers, 1);
  expect_zero_allocator_leaks(runtime);
}

TEST(BatchingTest, InvalidBatchingOptionsAreRejected) {
  {
    ServeRuntime::Options opts;
    opts.batch_max = 0;
    EXPECT_THROW(ServeRuntime runtime(opts), ServeError);
  }
  {
    ServeRuntime::Options opts;
    opts.batch_wait_ms = -1.0;
    EXPECT_THROW(ServeRuntime runtime(opts), ServeError);
  }
  JobSpec spec = gaspard_job();
  spec.opt_level = 3;
  EXPECT_THROW(spec.validate(), ServeError);
  spec.opt_level = -1;
  EXPECT_THROW(spec.validate(), ServeError);
}

TEST(BatchingTest, InvalidRetryBackoffIsRejected) {
  {
    ServeRuntime::Options opts;
    opts.retry_backoff_base_ms = -0.5;
    EXPECT_THROW(ServeRuntime runtime(opts), ServeError);
  }
  {
    ServeRuntime::Options opts;
    opts.retry_backoff_base_ms = 5.0;
    opts.retry_backoff_cap_ms = 4.0;
    EXPECT_THROW(ServeRuntime runtime(opts), ServeError) << "a base above its cap";
  }
  ServeRuntime::Options opts;
  opts.devices = 1;
  opts.retry_backoff_base_ms = 4.0;
  opts.retry_backoff_cap_ms = 4.0;
  EXPECT_NO_THROW(ServeRuntime runtime(opts)) << "base == cap is a constant backoff";
}

}  // namespace
}  // namespace saclo::serve
