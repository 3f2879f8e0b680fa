#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "gpu/backend_kind.hpp"
#include "obs/histogram.hpp"
#include "serve/admission.hpp"
#include "serve/allocator.hpp"
#include "serve/job.hpp"

namespace saclo::serve {

/// Thread-safe registry of fleet-wide serving metrics: per-device
/// utilization and queue depth, job latency percentiles, and
/// throughput. The scheduler records into it; reporters snapshot it
/// concurrently and render the text report or the JSON export that
/// sits alongside the profiler's Chrome trace.
class FleetMetrics {
 public:
  explicit FleetMetrics(int devices);

  // -- recording (called by the scheduler) ------------------------------------
  /// Job accepted and placed on `device`, billed to `tenant` (defaults
  /// to the JobSpec default so pre-SLO callers keep working).
  void on_submit(int device, const std::string& tenant = "default");
  void on_dispatch(int device);  ///< job left the queue, runs now
  /// `sim_clock_us` is the device's cumulative simulated clock after
  /// the job — the fleet makespan is the max over devices.
  void on_complete(int device, const JobResult& result, double sim_clock_us);
  void on_failed(int device);
  /// An injected DeviceFault interrupted a job on `device`;
  /// `reclaimed_blocks` is what the allocator sweep took back.
  void on_device_fault(int device, std::int64_t reclaimed_blocks = 0);
  /// A faulted job was re-enqueued from device `from` onto `to`. Counts
  /// a retry always and a failover when the devices differ, and moves
  /// the queue-depth bookkeeping to the new device.
  void on_failover(int from, int to);
  /// Device entered / left the degraded state (scheduler-driven);
  /// degraded wall time accrues between the two.
  void on_degraded(int device);
  void on_healed(int device);
  /// The dispatcher coalesced `size` same-key jobs into one fused frame
  /// loop on `device` (only called with size >= 2 — a batch of one is
  /// just a dispatch).
  void on_batch(int device, int size);
  /// Admission shed a submission from `tenant` before it entered any
  /// queue. Counts as a submission (the honest accounting identity is
  /// completed + failed + shed == submitted) and as a shed, globally
  /// and per tenant.
  void on_shed(const std::string& tenant, ShedReason reason);
  /// An in-flight job was displaced at a frame boundary on `from` and
  /// re-enqueued on `to` (possibly the same device) — moves the
  /// queue-depth bookkeeping like on_failover.
  void on_preempted(int from, int to);
  /// Idle dispatcher `to` stole a queued job from `from`'s queue.
  void on_steal(int from, int to);
  // -- elastic autoscaling ----------------------------------------------------
  /// Marks a device placement-eligible or retired; active wall time
  /// accrues between the transitions (the device-seconds the autoscale
  /// bench compares against a static fleet). Devices start active; the
  /// elastic runtime deactivates its spare slots at construction.
  void set_active(int device, bool active);
  /// scale_up() activated `device`.
  void on_scale_up(int device);
  /// scale_down() started draining `device`, re-homing `rehomed` queued
  /// jobs onto the surviving devices.
  void on_drain_started(int device, int rehomed);
  /// The draining device finished its last job and retired.
  void on_drain_complete(int device);
  /// One job moved from draining `from` to `to` (queue-depth
  /// bookkeeping like on_steal, without counting a steal). `queued` is
  /// false for the drain-gated running job, which had already left
  /// `from`'s queue-depth gauge at dispatch.
  void on_rehomed(int from, int to, bool queued = true);
  /// Real (wall-clock) microseconds since the runtime started serving;
  /// updated by the scheduler so snapshots can compute real throughput.
  void set_elapsed_real_us(double us);
  /// Attach one device's allocator stats to the next snapshot.
  void set_allocator_stats(int device, const CachingDeviceAllocator::Stats& stats);
  // -- live observability -----------------------------------------------------
  /// Identity labels for the `saclo_build_info` gauge (the build's git
  /// SHA and the compiled backend options). Set once by the runtime.
  void set_build_info(std::string sha, std::string backend_opts);
  /// Event-ring drop count, mirrored into `saclo_events_dropped_total`
  /// (the runtime refreshes it before rendering an exposition).
  void set_events_dropped(std::uint64_t dropped);
  /// Alerts currently firing, for the `saclo_alerts_active` gauge.
  void set_active_alerts(int count);

  // -- reading ---------------------------------------------------------------
  struct DeviceSnapshot {
    int device = 0;
    std::int64_t jobs = 0;
    std::int64_t jobs_failed = 0;  ///< jobs whose future carries an exception
    std::int64_t faults = 0;       ///< injected DeviceFaults observed here
    std::int64_t frames = 0;
    bool degraded = false;    ///< currently marked unhealthy by the scheduler
    double degraded_us = 0;   ///< cumulative real time spent degraded
    bool active = true;       ///< placement-eligible (elastic fleets retire slots)
    double active_us = 0;     ///< cumulative real time spent active
    int queue_depth = 0;      ///< queued, not yet dispatched
    int max_queue_depth = 0;  ///< high-water mark
    int running = 0;          ///< 0 or 1 (one dispatcher per device)
    double busy_sim_us = 0;   ///< sum of per-job simulated wall times
    double sim_clock_us = 0;  ///< device's cumulative simulated clock
    /// Share of the fleet's simulated makespan this device was busy:
    /// busy_sim / max over devices of sim_clock. 1.0 = perfectly
    /// load-balanced fleet.
    double utilization = 0;
    bool has_allocator = false;
    CachingDeviceAllocator::Stats allocator;
  };

  struct Snapshot {
    std::int64_t jobs_submitted = 0;
    std::int64_t jobs_completed = 0;
    std::int64_t jobs_failed = 0;
    std::int64_t frames_completed = 0;
    // Fleet health: the failover machinery's counters.
    std::int64_t device_faults = 0;      ///< injected faults across the fleet
    std::int64_t failovers = 0;          ///< retries that moved device
    std::int64_t retries = 0;            ///< faulted jobs re-enqueued (any device)
    std::int64_t buffers_reclaimed = 0;  ///< allocator blocks swept after faults
    int degraded_devices = 0;            ///< currently degraded
    // Dynamic batching: coalesced dispatches and how many jobs rode in
    // them (jobs dispatched alone count in neither).
    std::int64_t batches_formed = 0;
    std::int64_t jobs_batched = 0;
    // Multi-tenant SLO scheduling.
    std::int64_t jobs_shed = 0;        ///< submissions refused by admission
    std::int64_t preemptions = 0;      ///< frame-boundary displacements
    std::int64_t steals = 0;           ///< queued jobs moved to an idle dispatcher
    std::int64_t deadline_misses = 0;  ///< completions past their SLO deadline
    // Elastic autoscaling.
    std::int64_t scale_ups = 0;     ///< devices activated by scale_up()
    std::int64_t scale_downs = 0;   ///< graceful drains started
    std::int64_t jobs_rehomed = 0;  ///< queued jobs moved off draining devices
    int active_devices = 0;         ///< currently placement-eligible
    /// Sum over devices of real seconds spent active — the cost axis an
    /// autoscaled fleet saves against a static-max one.
    double device_seconds = 0;
    /// Cap-evicted allocator blocks summed across devices (see
    /// CachingDeviceAllocator::Stats::cap_evictions).
    std::int64_t alloc_cap_evictions = 0;
    // Live observability plane.
    std::string build_sha;           ///< saclo_build_info{sha=...}
    std::string build_backend_opts;  ///< saclo_build_info{backend_opts=...}
    std::uint64_t events_dropped = 0;  ///< event-ring rejections
    int active_alerts = 0;             ///< alerts currently firing
    double elapsed_real_us = 0;
    double sim_makespan_us = 0;  ///< max over devices of sim_clock_us
    /// Aggregate throughput in frames per second of simulated device
    /// time — the number the device-count sweep scales.
    double throughput_fps_sim = 0;
    /// Frames per second of real wall-clock (functional execution +
    /// scheduling overhead on this host).
    double throughput_fps_real = 0;
    // Real end-to-end job latency (submit -> completion), microseconds.
    // Percentiles come from the bounded log-bucketed histogram, so they
    // sit within one bucket width (~19%) of the exact sample
    // percentile; mean and max are exact.
    double latency_p50_us = 0;
    double latency_p95_us = 0;
    double latency_p99_us = 0;
    double latency_mean_us = 0;
    double latency_max_us = 0;
    // Simulated per-job device time.
    double sim_job_p50_us = 0;
    double sim_job_p99_us = 0;
    /// The full distributions backing the percentiles above, for the
    /// Prometheus exposition and offline analysis.
    obs::LogHistogram latency_hist;
    obs::LogHistogram sim_job_hist;
    obs::LogHistogram batch_size_hist;  ///< sizes of coalesced batches (>= 2)
    /// Real end-to-end latency split by priority class (index =
    /// static_cast<int>(Priority)) — how a policy's protection of the
    /// high class shows up in the exposition.
    std::array<obs::LogHistogram, 3> class_latency_hist;
    /// Per-tenant accounting, sorted by tenant id.
    struct TenantSnapshot {
      std::string tenant;
      std::int64_t submitted = 0;  ///< accepted + shed
      std::int64_t completed = 0;
      std::int64_t shed = 0;
      std::int64_t slo_jobs = 0;  ///< completed jobs that carried a deadline
      std::int64_t slo_met = 0;   ///< of those, completed within it
      /// slo_met / slo_jobs; 1.0 when the tenant never set a deadline.
      double slo_attainment() const {
        return slo_jobs > 0 ? static_cast<double>(slo_met) / static_cast<double>(slo_jobs) : 1.0;
      }
    };
    std::vector<TenantSnapshot> tenants;
    std::vector<DeviceSnapshot> devices;
  };
  Snapshot snapshot() const;

  /// Metrics glossary rendered as a fixed-width text report; device-clock
  /// figures are labeled as `backend`'s clock (modeled or measured).
  std::string report(gpu::BackendKind backend = gpu::BackendKind::Sim) const;
  /// Machine-readable export (BENCH_serve.json embeds one of these).
  std::string json() const;
  /// Prometheus text exposition (counters, gauges and the latency
  /// histograms) — what `saclo-serve --metrics-out` writes.
  std::string prometheus() const;

 private:
  mutable std::mutex mutex_;
  struct DeviceState {
    std::int64_t jobs = 0;
    std::int64_t jobs_failed = 0;
    std::int64_t faults = 0;
    std::int64_t frames = 0;
    bool degraded = false;
    double degraded_accum_us = 0;
    std::chrono::steady_clock::time_point degraded_since{};
    bool active = true;
    double active_accum_us = 0;
    std::chrono::steady_clock::time_point active_since{};
    int queue_depth = 0;
    int max_queue_depth = 0;
    int running = 0;
    double busy_sim_us = 0;
    double sim_clock_us = 0;
    bool has_allocator = false;
    CachingDeviceAllocator::Stats allocator;
  };
  std::vector<DeviceState> devices_;
  std::int64_t submitted_ = 0;
  std::int64_t completed_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t frames_ = 0;
  std::int64_t device_faults_ = 0;
  std::int64_t failovers_ = 0;
  std::int64_t retries_ = 0;
  std::int64_t buffers_reclaimed_ = 0;
  std::string build_sha_;
  std::string build_backend_opts_;
  std::uint64_t events_dropped_ = 0;
  int active_alerts_ = 0;
  double elapsed_real_us_ = 0;
  // Bounded distributions: fixed 128-counter footprint regardless of
  // how many jobs a long-running fleet serves (the former per-job
  // sample vectors grew without bound).
  std::int64_t batches_ = 0;
  std::int64_t jobs_batched_ = 0;
  std::int64_t shed_ = 0;
  std::int64_t preemptions_ = 0;
  std::int64_t steals_ = 0;
  std::int64_t deadline_misses_ = 0;
  std::int64_t scale_ups_ = 0;
  std::int64_t scale_downs_ = 0;
  std::int64_t jobs_rehomed_ = 0;
  obs::LogHistogram latency_hist_;     // real end-to-end latency, us
  obs::LogHistogram sim_job_hist_;     // simulated device time per job, us
  obs::LogHistogram batch_size_hist_;  // coalesced batch sizes
  std::array<obs::LogHistogram, 3> class_latency_hist_;  // by Priority
  struct TenantState {
    std::int64_t submitted = 0;
    std::int64_t completed = 0;
    std::int64_t shed = 0;
    std::int64_t slo_jobs = 0;
    std::int64_t slo_met = 0;
  };
  std::map<std::string, TenantState> tenants_;
};

/// Interpolated percentile of an unsorted sample (q in [0, 1]); 0 on an
/// empty sample. Exposed for the metrics tests.
double percentile(std::vector<double> values, double q);

/// Escapes a string for use inside a Prometheus label value per the
/// text exposition format: backslash, double quote and newline become
/// \\, \" and \n. Tenant ids arrive from the CLI, so they can contain
/// anything.
std::string prom_escape_label_value(const std::string& value);

}  // namespace saclo::serve
