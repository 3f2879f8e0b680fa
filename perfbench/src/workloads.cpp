#include "workloads.hpp"

#include <algorithm>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "apps/downscaler/frames.hpp"
#include "arrivals.hpp"
#include "fault/plan.hpp"
#include "layers.hpp"
#include "serve/admission.hpp"
#include "serve/scheduler.hpp"
#include "stats.hpp"

namespace perfbench {

namespace apps = saclo::apps;
namespace serve = saclo::serve;
using serve::Route;

namespace {

// -- workload definitions ---------------------------------------------------------

/// One open-loop job class. Deadlines are fixed here, not derived at run
/// time, so a faster or slower program meets or misses the same
/// targets: `deadline_ms` is about 3x the class's unloaded latency on a
/// warm 1-worker device (README.md).
struct JobClass {
  const char* name;
  Route route;
  int opt_level;
  std::int64_t height;
  std::int64_t width;
  double weight;       ///< share of open-loop arrivals
  double deadline_ms;  ///< mixed_open (overload_slo has per-tenant deadlines)
};

// Small and mid geometries over every route: per-job fixed costs
// dominate, full-HD kernel throughput barely matters. The generic SaC
// route only appears at 18x32 and 90x128 because its host step grows
// superlinearly with the frame (a full-HD frame does not finish).
const std::vector<JobClass> kOpenClasses = {
    {"sacng_18x32", Route::SacNongeneric, 0, 18, 32, 27, 15},
    {"sacng_180x256", Route::SacNongeneric, 0, 180, 256, 8, 250},
    {"gaspard_o0_18x32", Route::Gaspard, 0, 18, 32, 23, 15},
    {"gaspard_o0_180x256", Route::Gaspard, 0, 180, 256, 4, 120},
    {"gaspard_o2_18x32", Route::Gaspard, 2, 18, 32, 23, 15},
    {"gaspard_o2_180x256", Route::Gaspard, 2, 180, 256, 4, 100},
    {"sacg_18x32", Route::SacGeneric, 0, 18, 32, 8.5, 60},
    {"sacg_90x128", Route::SacGeneric, 0, 90, 128, 0.5, 900},
};
constexpr int kOpenFrames = 4;

apps::DownscalerConfig hd_config() { return geometry(1080, 1920); }

/// Full-HD classes of hd_closed (and of the HD frame probe of the open
/// workloads), cycled in this order. Deadlines are per executed frame.
struct HdClass {
  const char* metric;
  Route route;
  int opt_level;
  double deadline_ms_per_frame;
};
const std::vector<HdClass> kHdClasses = {
    {"hd_sacng_frame_ms", Route::SacNongeneric, 0, 1500},
    {"hd_gaspard_o0_frame_ms", Route::Gaspard, 0, 600},
    {"hd_gaspard_o2_frame_ms", Route::Gaspard, 2, 600},
};

/// Frames per hd_closed job.
constexpr int kHdFrames = 2;

/// Rounds of the full-HD frame probe that gives the open workloads their
/// hd_* metrics, and its pool width: hd_closed's, on which a frame takes
/// about half as long as on one worker, so more rounds fit. One round
/// runs at the start of each tenth of the window, while the open fleet
/// is idle: run beside the window, the probe took a core from the open
/// fleet and doubled the spread of its latency from run to run, and run
/// before and after it, its medians moved with any slow spell of the
/// host that hit either end.
constexpr int kHdProbeRounds = 10;
constexpr unsigned kHdProbeWorkers = 4;

/// Closed-loop single-frame 18x32 jobs that give hd_closed its job
/// latency percentiles: a full-HD run cannot hold the 200 jobs a p95
/// needs.
constexpr int kLatencyProbeJobs = 200;

/// The tail percentile reported: the highest one whose ten samples
/// beyond it fit a run (see README.md on why not p99).
constexpr double kTail = 0.95;

/// Worst generator lag (p95 of due -> submit call) a valid open-loop run
/// may show; beyond it the schedule, not the program, shaped latency.
constexpr double kLagBoundMs = 10.0;

/// Event-log capacity of the traced pass (and of overload_slo).
constexpr std::size_t kEventLog = 1 << 18;

struct FleetShape {
  int devices = 1;
  unsigned workers = 1;
  serve::SchedPolicy policy = serve::SchedPolicy::Fifo;
  bool preemption = false;
  bool work_stealing = false;
  int batch_max = 1;
  bool shed_on_full = false;
  double tenant_rate_limit = 0;  ///< jobs/s per tenant; 0 = no admission control
  std::size_t queue_capacity = 1 << 20;
  std::size_t event_log = 0;
  bool trace_jobs = false;
  std::string fault_plan;
};

/// Deadline factors of the tiered tenants over the class's deadline.
constexpr double kGoldDeadlineX = 4;
constexpr double kBronzeDeadlineX = 20;

struct OpenWorkload {
  FleetShape fleet;
  std::vector<RateSegment> pattern;  ///< repeated over the window
  double gold_share = 0.3;
  /// Gold high priority with kGoldDeadlineX times its class's deadline,
  /// bronze low priority with kBronzeDeadlineX times; otherwise every job
  /// has its class's deadline.
  bool tiered = false;
  double scrape_period_ms = 0;
};

// Capacity of the 2-device, 1-worker fleet under kOpenClasses: jobs per
// second a saturated fleet completes over its first 20 s at seed (per-job
// cost grows with a device's history, so capacity depends on the window;
// see README.md).
constexpr double kOpenCapacity = 38.0;

OpenWorkload mixed_open() {
  OpenWorkload w;
  w.fleet.devices = 2;
  w.fleet.workers = 1;
  // Half the capacity measured at seed: the host's own speed swings by up
  // to 40% between runs, and at 60% a slow spell already put the fleet
  // at the knee of its latency curve.
  w.pattern = {{1.0, 0.5 * kOpenCapacity}};
  return w;
}

OpenWorkload overload_slo() {
  OpenWorkload w;
  w.fleet.devices = 2;
  w.fleet.workers = 1;
  w.fleet.policy = serve::SchedPolicy::Edf;
  w.fleet.preemption = true;
  w.fleet.work_stealing = true;
  w.fleet.batch_max = 4;
  w.fleet.shed_on_full = true;
  w.fleet.queue_capacity = 48;
  w.fleet.event_log = kEventLog;
  w.fleet.trace_jobs = true;
  // Device 1 fails every 3000th kernel launch for good; its jobs fail
  // over to device 0 and come back once the cooldown elapsed.
  w.fleet.fault_plan = "dev=1,after_kernels=3000,recurring";
  // Bursts at 2.5x capacity, then a lull at 0.5x: 1.5x on average.
  // Each tenant is admitted at most 12 jobs/s (burst 4, the runtime's
  // default) and the rest is shed at submit: admission, not the backlog,
  // takes the overload, so the latency percentiles follow the fleet's
  // speed. When the 48-job backlog took it instead (no limit, bursts at
  // 2.5x/0.5x or 6x/3x), fresh devices drained the first seconds several
  // times faster than the rest, and the latency median moved by 27-60%
  // from run to run with where it fell on that slope.
  w.pattern = {{1.0, 2.5 * kOpenCapacity}, {1.0, 0.5 * kOpenCapacity}};
  w.fleet.tenant_rate_limit = 12;
  w.tiered = true;
  // Gold arrives below the limit even in a burst (4.75 jobs/s), so no
  // gold job is shed and an admitted one runs next; bronze takes the
  // shedding.
  w.gold_share = 0.05;
  w.scrape_period_ms = 100;
  return w;
}

// -- serving helpers ----------------------------------------------------------------

std::unique_ptr<serve::ServeRuntime> make_fleet(const FleetShape& f, bool traced) {
  serve::ServeRuntime::Options o;
  o.devices = f.devices;
  o.workers_per_device = f.workers;
  o.backend = saclo::gpu::BackendKind::Host;
  o.policy = f.policy;
  o.preemption = f.preemption;
  o.work_stealing = f.work_stealing;
  o.batch_max = f.batch_max;
  o.shed_on_full = f.shed_on_full;
  o.tenant_rate_limit = f.tenant_rate_limit;
  o.queue_capacity = f.queue_capacity;
  // The traced pass turns on the program's own job tagging and event
  // log, which the per-job split and the failover timing read.
  o.event_log_capacity = traced ? std::max(f.event_log, kEventLog) : f.event_log;
  o.trace_jobs = f.trace_jobs || traced;
  if (!f.fault_plan.empty()) o.fault_plan = saclo::fault::FaultPlan::parse(f.fault_plan);
  return std::make_unique<serve::ServeRuntime>(o);
}

serve::JobSpec make_spec(Route route, int opt_level, const apps::DownscalerConfig& cfg,
                         int frames) {
  serve::JobSpec spec;
  spec.route = route;
  spec.opt_level = opt_level;
  spec.config = cfg;
  spec.frames = frames;
  spec.channels = 3;
  return spec;
}

/// Runs single-frame jobs until JobResult.device shows that every
/// (device, driver key) pair ran one. Compiled drivers are thread_local
/// to each dispatcher, so until then a timed job could pay a driver
/// build. The warm-up frame is executed: the generic route's host step
/// must run once before accounting-only frames, and it fills the
/// allocator cache the way serving does.
void warm_up(serve::ServeRuntime& rt, const std::vector<serve::JobSpec>& keys) {
  std::set<std::pair<int, std::string>> missing;
  for (int d = 0; d < rt.device_count(); ++d) {
    for (const auto& spec : keys) missing.insert({d, serve::batch_key(spec)});
  }
  for (int round = 0; round < 64 && !missing.empty(); ++round) {
    std::vector<std::pair<std::string, std::future<serve::JobResult>>> futures;
    for (std::size_t k = 0; k < keys.size(); ++k) {
      const serve::JobSpec& spec = keys[k];
      const std::string key = serve::batch_key(spec);
      int need = 0;
      for (int d = 0; d < rt.device_count(); ++d) need += missing.count({d, key}) > 0 ? 1 : 0;
      // Submitted back to back, same-key jobs land on different devices
      // (least-loaded placement); a miss is retried next round.
      for (int i = 0; i < need; ++i) {
        serve::JobSpec warm = spec;
        warm.frames = 1;
        warm.exec_frames = 1;
        // A tenant per key, so a per-tenant rate limit admits every
        // device's warm-up job of a round.
        warm.tenant = "warmup-" + std::to_string(k);
        futures.emplace_back(key, rt.submit(warm));
      }
    }
    for (auto& [key, f] : futures) {
      try {
        missing.erase({f.get().device, key});
      } catch (const saclo::fault::DeviceFault&) {
        // an injected fault exhausted the retries: the pair is tried again
      } catch (const serve::ShedError&) {
        // the rate limit refused it: the pair is tried again
      }
    }
  }
  if (!missing.empty()) {
    throw std::runtime_error("warm-up did not reach every (device, driver key) pair");
  }
}

struct Fleet {
  std::unique_ptr<serve::ServeRuntime> rt;
  double setup_s = 0;
};

/// Builds the fleet `reps` times, each time until every pair is warm,
/// and keeps the last one. setup_s is the median.
Fleet set_up(const FleetShape& shape, bool traced, const std::vector<serve::JobSpec>& keys,
             int reps, Tracer& tracer) {
  Fleet fleet;
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    fleet.rt.reset();
    Tracer::Scope scope(tracer, "serve.setup", -1);
    const auto t0 = Clock::now();
    auto rt = make_fleet(shape, traced);
    warm_up(*rt, keys);
    seconds.push_back(ms_between(t0, Clock::now()) / 1000.0);
    fleet.rt = std::move(rt);
  }
  fleet.setup_s = median(seconds);
  return fleet;
}

// -- job records --------------------------------------------------------------------

enum class Status { Completed, Shed, Failed };

/// What a job belongs to: the timed window, hd_closed's latency probe
/// (paced between its HD jobs on the same fleet), or the open workloads'
/// HD frame probe on a fleet of its own.
enum class Phase { Window, LatencyProbe, HdProbe };

struct JobRecord {
  std::int64_t index = 0;  ///< the benchmark's job id (span job id)
  std::string job_class;
  apps::DownscalerConfig cfg;
  bool gold = false;
  Phase phase = Phase::Window;
  double deadline_ms = 0;
  double due_ms = 0;   ///< when it was due, from the window start
  double call_ms = 0;  ///< when submit was called, from the window start
  double submit_us = 0;
  Status status = Status::Failed;
  std::string error;
  serve::JobResult r;

  /// Due time -> result ready. The runtime stamps latency_us from inside
  /// submit, a few microseconds after call_ms.
  double latency_ms() const { return call_ms - due_ms + r.latency_us / 1000.0; }
  double done_ms() const { return call_ms + r.latency_us / 1000.0; }
  bool met() const {
    return status == Status::Completed && (deadline_ms <= 0 || latency_ms() <= deadline_ms);
  }
};

/// What one pass (untraced or traced) measured.
struct Pass {
  double setup_s = 0;
  double window_s = 0;  ///< wall time of the timed window
  /// Time the window's counted work took: hd_closed's HD jobs alone (the
  /// latency probe runs in between), the whole window otherwise.
  double work_s = 0;
  std::vector<JobRecord> jobs;  ///< every job of the pass, in submission order
  std::vector<double> lag_ms;   ///< open loop: due -> submit call
  std::vector<double> scrape_ms;
  double peak_rss_mb = 0;  ///< over the timed window (see reset_peak_rss)
  const References* refs = nullptr;
  std::uint64_t checksum = kFnvOffset;  ///< FNV-1a over every checked output
  std::int64_t mismatches = 0;
  int threads_peak = 0;
  int busy_bound = 0;  ///< threads that can be busy at once
  std::vector<saclo::obs::DeviceTrace> traces;
  std::vector<saclo::obs::Event> events;
  std::uint64_t events_dropped = 0;
  std::int64_t batched = 0, completed_by_runtime = 0, preemptions = 0, steals = 0;
  std::int64_t alloc_hits = 0, alloc_misses = 0;
  int devices = 1;
  std::map<std::string, std::vector<double>> hd_frame_ms;  ///< open workloads: the HD probe
};

/// Checks a collected job's last output against the ArrayOL reference,
/// folds it into the pass checksum and drops it, so the benchmark holds
/// no frames across the window (they would count in peak_rss_mb).
/// Failed jobs and mismatches are reported on stderr.
void check_output(Pass& pass, JobRecord& rec) {
  if (rec.status == Status::Failed) {
    std::cerr << "perfbench: job " << rec.index << " (" << rec.job_class
              << ") failed: " << rec.error << "\n";
  }
  if (rec.status != Status::Completed) return;
  const auto& out = rec.r.last_output;
  if (!(out == pass.refs->get(rec.cfg, rec.r.frames - 1))) {
    ++pass.mismatches;
    std::cerr << "perfbench: job " << rec.index << " (" << rec.job_class
              << ") output differs from the ArrayOL reference\n";
  }
  pass.checksum = fnv1a(pass.checksum, std::as_bytes(out.data()));
  rec.r.last_output = saclo::IntArray();
}

std::optional<std::future<serve::JobResult>> submit(serve::ServeRuntime& rt,
                                                    const serve::JobSpec& spec, JobRecord& rec,
                                                    Clock::time_point t0, bool blocking,
                                                    Tracer& tracer) {
  Tracer::Scope scope(tracer, "serve.submit", rec.index);
  const auto t = Clock::now();
  std::optional<std::future<serve::JobResult>> f;
  if (blocking) {
    f = rt.submit(spec);
  } else {
    f = rt.try_submit(spec);
  }
  rec.call_ms = ms_between(t0, t);
  rec.submit_us = ms_between(t, Clock::now()) * 1000.0;
  return f;
}

void collect(JobRecord& rec, std::future<serve::JobResult>& f, Tracer& tracer) {
  Tracer::Scope scope(tracer, "serve.future_get", rec.index);
  try {
    rec.r = f.get();
    rec.status = Status::Completed;
  } catch (const serve::ShedError& e) {
    rec.status = Status::Shed;
    rec.error = e.what();
  } catch (const std::exception& e) {
    rec.status = Status::Failed;
    rec.error = e.what();
  }
}

/// Closed-loop job: submit, wait, check, record.
void run_closed(serve::ServeRuntime& rt, const serve::JobSpec& spec, JobRecord rec,
                Clock::time_point t0, Pass& pass, Tracer& tracer) {
  rec.due_ms = ms_between(t0, Clock::now());
  auto f = submit(rt, spec, rec, t0, /*blocking=*/true, tracer);
  collect(rec, *f, tracer);
  check_output(pass, rec);
  pass.jobs.push_back(std::move(rec));
}

// -- one pass of a workload ---------------------------------------------------------

void snapshot_runtime(serve::ServeRuntime& rt, Pass& pass) {
  pass.devices = rt.device_count();
  pass.traces = rt.device_traces();
  pass.events = rt.events();
  pass.events_dropped = rt.event_log() != nullptr ? rt.event_log()->dropped() : 0;
  const auto snap = rt.metrics().snapshot();
  pass.batched = snap.jobs_batched;
  pass.completed_by_runtime = snap.jobs_completed;
  pass.preemptions = snap.preemptions;
  pass.steals = snap.steals;
  for (int d = 0; d < rt.device_count(); ++d) {
    const auto s = rt.allocator_stats(d);
    pass.alloc_hits += s.hits;
    pass.alloc_misses += s.misses;
  }
}

void time_scrapes(serve::ServeRuntime& rt, Pass& pass, Tracer& tracer, int n) {
  for (int i = 0; i < n; ++i) {
    pass.scrape_ms.push_back(
        timed_ms(tracer, "obs.metrics_prometheus", [&] { (void)rt.metrics_prometheus(); }));
  }
}

/// A one-device fleet of `workers` with every HD class's driver warm:
/// the open workloads' full-HD frame probe, built outside any timing.
std::unique_ptr<serve::ServeRuntime> hd_probe_fleet(unsigned workers) {
  FleetShape shape;
  shape.workers = workers;
  auto rt = make_fleet(shape, false);
  std::vector<serve::JobSpec> keys;
  for (const HdClass& c : kHdClasses) {
    keys.push_back(make_spec(c.route, c.opt_level, hd_config(), 1));
  }
  warm_up(*rt, keys);
  return rt;
}

/// One cycle of single-frame full-HD jobs over the HD classes, so a slow
/// spell of the host hits every class alike.
void hd_probe_round(serve::ServeRuntime& rt, Pass& pass, Tracer& tracer) {
  const auto t0 = Clock::now();
  for (const HdClass& c : kHdClasses) {
    JobRecord rec;
    rec.index = static_cast<std::int64_t>(pass.jobs.size());
    rec.job_class = c.metric;
    rec.cfg = hd_config();
    rec.phase = Phase::HdProbe;
    run_closed(rt, make_spec(c.route, c.opt_level, rec.cfg, 1), rec, t0, pass, tracer);
    const JobRecord& done = pass.jobs.back();
    if (done.status == Status::Completed) {
      pass.hd_frame_ms[done.job_class].push_back(done.r.exec_us / 1000.0);
    }
  }
}

void run_hd_closed(const RunArgs& args, bool traced, Pass& pass, Tracer& tracer) {
  const apps::DownscalerConfig hd = hd_config();
  const apps::DownscalerConfig tiny = geometry(18, 32);
  FleetShape shape;
  shape.devices = 1;
  shape.workers = 4;  // one dispatcher + three pool threads
  pass.busy_bound = 4;  // the client waits while its job runs
  std::vector<serve::JobSpec> keys;
  for (const HdClass& c : kHdClasses) keys.push_back(make_spec(c.route, c.opt_level, hd, 1));
  keys.push_back(make_spec(Route::SacNongeneric, 0, tiny, 1));
  Fleet fleet = set_up(shape, traced, keys, 3, tracer);
  pass.setup_s = fleet.setup_s;
  serve::ServeRuntime& rt = *fleet.rt;

  // Probe jobs are paced over the window, one due every
  // seconds / kLatencyProbeJobs and run between HD jobs, so their samples
  // span the window like the HD ones; any left over run after it.
  const serve::JobSpec small = make_spec(Route::SacNongeneric, 0, tiny, 1);
  int probes = 0;
  const auto run_probes = [&](double until_ms, Clock::time_point t0) {
    while (probes < kLatencyProbeJobs &&
           probes * args.seconds * 1000.0 / kLatencyProbeJobs <= until_ms) {
      JobRecord rec;
      rec.index = static_cast<std::int64_t>(pass.jobs.size());
      rec.job_class = "latency_probe_sacng_18x32";
      rec.cfg = tiny;
      rec.phase = Phase::LatencyProbe;
      run_closed(rt, small, rec, t0, pass, tracer);
      ++probes;
    }
  };

  // The seed orders the routes: blocks of one job per HD class, each
  // block a seeded permutation, so every run does the same mix of work.
  Rng rng(args.seed);
  std::vector<std::size_t> order;
  reset_peak_rss();
  const auto t0 = Clock::now();
  double hd_ms = 0;  // HD jobs' share of the window
  for (std::size_t i = 0; ms_between(t0, Clock::now()) < args.seconds * 1000.0; ++i) {
    if (i % kHdClasses.size() == 0) {
      order.resize(kHdClasses.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      for (std::size_t k = order.size(); k > 1; --k) {
        std::swap(order[k - 1], order[static_cast<std::size_t>(rng.next() % k)]);
      }
    }
    const HdClass& c = kHdClasses[order[i % kHdClasses.size()]];
    JobRecord rec;
    rec.index = static_cast<std::int64_t>(pass.jobs.size());
    rec.job_class = c.metric;
    rec.cfg = hd;
    rec.gold = true;
    rec.deadline_ms = c.deadline_ms_per_frame * kHdFrames;
    serve::JobSpec spec = make_spec(c.route, c.opt_level, hd, kHdFrames);
    spec.tenant = "gold";
    spec.deadline_ms = rec.deadline_ms;
    pass.threads_peak = std::max(pass.threads_peak, live_threads());
    const auto h0 = Clock::now();
    run_closed(rt, spec, rec, t0, pass, tracer);
    hd_ms += ms_between(h0, Clock::now());
    run_probes(ms_between(t0, Clock::now()), t0);
  }
  run_probes(args.seconds * 1000.0, t0);
  pass.peak_rss_mb = peak_rss_mb();
  pass.window_s = ms_between(t0, Clock::now()) / 1000.0;
  pass.work_s = hd_ms / 1000.0;

  time_scrapes(rt, pass, tracer, 5);
  snapshot_runtime(rt, pass);
}

void run_open(const RunArgs& args, const OpenWorkload& w, bool traced, Pass& pass,
              Tracer& tracer) {
  // The fleet's workers and the generator in the window, the probe's
  // workers around it (its client waits while its job runs).
  pass.busy_bound = std::max(w.fleet.devices * static_cast<int>(w.fleet.workers) + 1,
                             static_cast<int>(kHdProbeWorkers));
  std::vector<serve::JobSpec> keys;
  std::vector<double> weights;
  for (const JobClass& c : kOpenClasses) {
    keys.push_back(make_spec(c.route, c.opt_level, geometry(c.height, c.width), kOpenFrames));
    weights.push_back(c.weight);
  }
  Fleet fleet = set_up(w.fleet, traced, keys, 5, tracer);
  pass.setup_s = fleet.setup_s;
  serve::ServeRuntime& rt = *fleet.rt;
  auto probe = hd_probe_fleet(kHdProbeWorkers);

  const std::vector<Arrival> arrivals =
      generate_arrivals(args.seed, args.seconds, w.pattern, weights, w.gold_share);
  const std::size_t first = pass.jobs.size();
  pass.jobs.reserve(first + arrivals.size() + kHdClasses.size() * kHdProbeRounds);
  std::vector<std::optional<std::future<serve::JobResult>>> futures;
  futures.reserve(arrivals.size());
  std::vector<std::size_t> at;  // where arrival i's record is in pass.jobs
  at.reserve(arrivals.size());

  reset_peak_rss();
  // Start a little ahead so the first arrival is not already late.
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  const auto after = [&](double ms) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
  };
  auto next_scrape = t0;
  double paused_ms = 0;  // the schedule is shifted by the probe's pauses
  int probe_rounds = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const Arrival& a = arrivals[i];
    const JobClass& c = kOpenClasses[static_cast<std::size_t>(a.job_class)];
    while (probe_rounds < kHdProbeRounds &&
           a.due_s >= args.seconds * probe_rounds / kHdProbeRounds) {
      // Pause the schedule here: let every submitted job finish, run a
      // probe round on the idle host, and resume where the schedule was.
      const double boundary_ms = 1000.0 * args.seconds * probe_rounds / kHdProbeRounds;
      std::this_thread::sleep_until(after(boundary_ms + paused_ms));
      for (auto& f : futures) {
        if (f) f->wait();
      }
      hd_probe_round(*probe, pass, tracer);
      const double pause_ms = ms_between(t0, Clock::now()) - boundary_ms - paused_ms;
      paused_ms += pause_ms;
      next_scrape += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::milli>(pause_ms));
      ++probe_rounds;
    }
    const auto due = after(a.due_s * 1000.0 + paused_ms);
    if (w.scrape_period_ms > 0) {
      while (next_scrape <= due) {
        std::this_thread::sleep_until(next_scrape);
        pass.scrape_ms.push_back(
            timed_ms(tracer, "obs.metrics_prometheus", [&] { (void)rt.metrics_prometheus(); }));
        next_scrape += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(w.scrape_period_ms));
      }
    }
    std::this_thread::sleep_until(due);
    JobRecord rec;
    rec.index = static_cast<std::int64_t>(pass.jobs.size());
    rec.job_class = c.name;
    rec.cfg = geometry(c.height, c.width);
    rec.gold = a.gold;
    rec.due_ms = a.due_s * 1000.0 + paused_ms;
    rec.deadline_ms =
        c.deadline_ms * (!w.tiered ? 1.0 : a.gold ? kGoldDeadlineX : kBronzeDeadlineX);
    serve::JobSpec spec = make_spec(c.route, c.opt_level, rec.cfg, kOpenFrames);
    spec.tenant = a.gold ? "gold" : "bronze";
    spec.deadline_ms = rec.deadline_ms;
    if (w.tiered) spec.priority = a.gold ? serve::Priority::High : serve::Priority::Low;
    futures.push_back(submit(rt, spec, rec, t0, /*blocking=*/false, tracer));
    pass.lag_ms.push_back(rec.call_ms - rec.due_ms);
    if (i % 64 == 0) pass.threads_peak = std::max(pass.threads_peak, live_threads());
    at.push_back(pass.jobs.size());
    pass.jobs.push_back(std::move(rec));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    JobRecord& rec = pass.jobs[at[i]];
    if (!futures[i]) {
      rec.status = Status::Shed;  // try_submit refused: the backlog was full
      rec.error = "try_submit refused";
      continue;
    }
    collect(rec, *futures[i], tracer);
    check_output(pass, rec);
  }
  pass.peak_rss_mb = peak_rss_mb();
  // The window runs from the start of the schedule to the last result,
  // less the probe's pauses.
  double end_ms = 0;
  for (const JobRecord& rec : pass.jobs) {
    if (rec.phase == Phase::Window && rec.status == Status::Completed) {
      end_ms = std::max(end_ms, rec.done_ms());
    }
  }
  pass.window_s = (end_ms > paused_ms ? end_ms - paused_ms : args.seconds * 1000.0) / 1000.0;
  pass.work_s = pass.window_s;
  if (w.scrape_period_ms <= 0) time_scrapes(rt, pass, tracer, 5);
  snapshot_runtime(rt, pass);
}

// -- correctness --------------------------------------------------------------------

void prepare_refs(const std::string& workload, References& refs) {
  if (workload == "hd_closed") {
    refs.prepare(hd_config(), 0);
    refs.prepare(hd_config(), kHdFrames - 1);
    refs.prepare(geometry(18, 32), 0);
    return;
  }
  for (const JobClass& c : kOpenClasses) refs.prepare(geometry(c.height, c.width), kOpenFrames - 1);
  refs.prepare(hd_config(), 0);
}

// -- metrics ------------------------------------------------------------------------

struct Counts {
  std::int64_t attempted = 0, completed = 0, shed = 0, failed = 0;
};

Counts count(const Pass& pass, Phase phase) {
  Counts c;
  for (const JobRecord& rec : pass.jobs) {
    if (rec.phase != phase) continue;
    ++c.attempted;
    switch (rec.status) {
      case Status::Completed: ++c.completed; break;
      case Status::Shed: ++c.shed; break;
      case Status::Failed: ++c.failed; break;
    }
  }
  return c;
}

void end_to_end(const std::string& workload, const Pass& pass, Report& e2e) {
  const bool hd = workload == "hd_closed";
  std::int64_t frames = 0, met = 0, gold = 0, gold_met = 0;
  std::map<std::string, std::vector<double>> frame_ms;
  for (const JobRecord& rec : pass.jobs) {
    if (rec.phase != Phase::Window) continue;
    if (rec.status == Status::Completed) {
      frames += rec.r.frames;
      frame_ms[rec.job_class].push_back(rec.r.exec_us / 1000.0 / rec.r.frames);
    }
    met += rec.met() ? 1 : 0;
    if (rec.gold) {
      ++gold;
      gold_met += rec.met() ? 1 : 0;
    }
  }
  // hd_closed's latency comes from its closed-loop probe, the open
  // workloads' from their own arrivals.
  std::vector<double> latency;
  for (const JobRecord& rec : pass.jobs) {
    const Phase from = hd ? Phase::LatencyProbe : Phase::Window;
    if (rec.status == Status::Completed && rec.phase == from) latency.push_back(rec.latency_ms());
  }
  const Counts c = count(pass, Phase::Window);

  e2e.add("setup_s", pass.setup_s, "s", "measured");
  e2e.add("frames_per_s", static_cast<double>(frames) / pass.work_s, "frames/s", "measured");
  for (const HdClass& k : kHdClasses) {
    const double v = median(hd ? frame_ms.at(k.metric) : pass.hd_frame_ms.at(k.metric));
    e2e.add(k.metric, v, "ms", "measured");
  }
  e2e.add("job_latency_p50_ms", median(latency), "ms", "measured");
  e2e.add("job_latency_p95_ms", tail_percentile(latency, kTail), "ms", "measured");
  e2e.add("goodput_jobs_per_s", static_cast<double>(met) / pass.work_s, "jobs/s", "measured");
  e2e.add("gold_slo_attainment", gold > 0 ? static_cast<double>(gold_met) / gold : 0, "share",
          "count");
  e2e.add("completed_share", static_cast<double>(c.completed) / c.attempted, "share", "count");
  e2e.add("peak_rss_mb", pass.peak_rss_mb, "MiB", "measured");
}

/// Per-job split of the traced pass: the parts of a job's latency (due
/// -> result) and of its exec_us, joined with the device intervals the
/// program tagged with the job's trace id. Appends one record per job
/// to `jobs_json`; returns the median dispatch overhead (us/job).
double job_split(const Pass& pass,
                 const std::map<std::pair<std::int64_t, std::int64_t>, double>& synth_ms,
                 std::ostringstream& jobs_json, std::int64_t& negative_remainders) {
  std::map<std::uint64_t, std::pair<double, double>> by_trace;  // kernel us, copy us
  for (const auto& t : pass.traces) {
    for (const auto& iv : t.intervals) {
      if (iv.trace_id == 0) continue;
      auto& slot = by_trace[iv.trace_id];
      if (iv.kind == saclo::gpu::OpKind::Kernel) slot.first += iv.duration_us();
      if (iv.kind == saclo::gpu::OpKind::MemcpyHtoD || iv.kind == saclo::gpu::OpKind::MemcpyDtoH) {
        slot.second += iv.duration_us();
      }
    }
  }
  std::vector<double> overhead;
  bool first = true;
  jobs_json.precision(12);
  for (const JobRecord& rec : pass.jobs) {
    // HD-probe jobs ran on a fleet of their own, whose traces are not kept.
    if (rec.status != Status::Completed || rec.phase == Phase::HdProbe) continue;
    const auto it = by_trace.find(rec.r.id);
    if (it == by_trace.end()) continue;
    const double kernels = it->second.first / 1000.0;
    const double copies = it->second.second / 1000.0;
    const double synth = synth_ms.at({rec.cfg.height, rec.cfg.width}) * rec.r.frames;
    const double exec = rec.r.exec_us / 1000.0;
    const double lag = rec.call_ms - rec.due_ms;
    const double queue = rec.r.queue_wait_us / 1000.0;
    const double dispatch = (rec.r.latency_us - rec.r.queue_wait_us - rec.r.exec_us) / 1000.0;
    const double unattributed = exec - kernels - copies - synth;
    if (unattributed < 0) ++negative_remainders;
    if (rec.r.attempts == 0 && rec.r.preemptions == 0) {
      overhead.push_back(unattributed * 1000.0);
    }
    jobs_json << (first ? "" : ",\n") << "{\"job\":" << rec.index << ",\"trace_id\":" << rec.r.id
              << ",\"class\":\"" << rec.job_class << "\",\"device\":" << rec.r.device
              << ",\"latency_ms\":" << rec.latency_ms() << ",\"exec_ms\":" << exec
              << ",\"parts_ms\":{\"generator_lag\":" << lag << ",\"queue_wait\":" << queue
              << ",\"dispatch\":" << dispatch << ",\"kernels\":" << kernels
              << ",\"copies\":" << copies << ",\"synthesis\":" << synth
              << ",\"unattributed\":" << unattributed << "}}";
    first = false;
  }
  return overhead.empty() ? 0 : median(overhead);
}

/// Median exec_us of the last quarter of one class's undisturbed jobs
/// (in submission order) over that of the first quarter: how much a job
/// slows down as its device's history grows.
double late_over_early(const Pass& pass, const std::string& job_class) {
  std::vector<double> exec;
  for (const JobRecord& rec : pass.jobs) {
    if (rec.job_class == job_class && rec.status == Status::Completed && rec.r.attempts == 0 &&
        rec.r.preemptions == 0) {
      exec.push_back(rec.r.exec_us);
    }
  }
  const std::size_t q = exec.size() / 4;
  if (q == 0) return 0;
  return median({exec.end() - static_cast<std::ptrdiff_t>(q), exec.end()}) /
         median({exec.begin(), exec.begin() + static_cast<std::ptrdiff_t>(q)});
}

void serving_layers(const Pass& pass, double dispatch_overhead_us, Report& L) {
  std::vector<double> submit_us, queue_ms, exec_ms;
  double exec_sum_ms = 0;
  std::int64_t failovers = 0, attempted = 0, shed = 0;
  for (const JobRecord& rec : pass.jobs) {
    if (rec.phase == Phase::HdProbe) continue;
    ++attempted;
    submit_us.push_back(rec.submit_us);
    if (rec.status == Status::Shed) ++shed;
    if (rec.status != Status::Completed) continue;
    queue_ms.push_back(rec.r.queue_wait_us / 1000.0);
    exec_ms.push_back(rec.r.exec_us / 1000.0);
    exec_sum_ms += rec.r.exec_us / 1000.0;
    failovers += rec.r.attempts;
  }
  L.add("serve.submit_us_p95", tail_percentile(submit_us, kTail), "us", "measured");
  L.add("serve.queue_wait_p50_ms", median(queue_ms), "ms", "measured");
  L.add("serve.queue_wait_p95_ms", tail_percentile(queue_ms, kTail), "ms", "measured");
  L.add("serve.exec_p50_ms", median(exec_ms), "ms", "measured");
  L.add("serve.dispatch_overhead_us", dispatch_overhead_us, "us", "measured");
  const double allocs = static_cast<double>(pass.alloc_hits + pass.alloc_misses);
  L.add("serve.alloc_hit_rate", allocs > 0 ? pass.alloc_hits / allocs : 0, "share", "count");
  L.add("serve.device_busy_share", exec_sum_ms / (pass.devices * pass.window_s * 1000.0), "share",
        "measured");
  L.add("serve.jobs_batched_share",
        pass.completed_by_runtime > 0
            ? static_cast<double>(pass.batched) / static_cast<double>(pass.completed_by_runtime)
            : 0,
        "share", "count");
  L.add("serve.preemptions", static_cast<double>(pass.preemptions), "count", "count");
  L.add("serve.steals", static_cast<double>(pass.steals), "count", "count");
  L.add("serve.shed_share", static_cast<double>(shed) / static_cast<double>(attempted), "share",
        "count");
  L.add("fault.failovers", static_cast<double>(failovers), "count", "count");

  // Fault -> the job's next dispatch, from the program's event log.
  std::map<std::uint64_t, double> fault_at;
  std::vector<double> retry_ms;
  for (const auto& e : pass.events) {
    if (e.type == saclo::obs::EventType::DeviceFault) fault_at[e.job] = e.t_real_us;
    if (e.type == saclo::obs::EventType::JobDispatched) {
      auto it = fault_at.find(e.job);
      if (it != fault_at.end()) {
        retry_ms.push_back((e.t_real_us - it->second) / 1000.0);
        fault_at.erase(it);
      }
    }
  }
  L.add("fault.retry_delay_p50_ms", retry_ms.empty() ? 0 : median(retry_ms), "ms", "measured");
  L.add("obs.scrape_ms", median(pass.scrape_ms), "ms", "measured");
  L.add("obs.events_per_job",
        static_cast<double>(pass.events.size()) / static_cast<double>(attempted), "count", "count");
  L.add("obs.events_dropped", static_cast<double>(pass.events_dropped), "count", "count");
  L.add("gen.lag_p95_ms", pass.lag_ms.empty() ? 0 : tail_percentile(pass.lag_ms, kTail), "ms",
        "measured");
  L.add("bench.threads_peak", pass.threads_peak, "count", "count");
}

void write_spans(const std::string& path, const RunArgs& args, const Tracer& tracer,
                 const std::string& jobs_json) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out.precision(12);
  out << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed << ",\"spans\":[\n";
  const auto spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "") << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
        << ",\"parent\":" << s.parent << ",\"job\":" << s.job << "}";
  }
  out << "\n],\"jobs\":[\n" << jobs_json << "\n]}\n";
}

Pass run_pass(const RunArgs& args, const References& refs, bool traced, Tracer& tracer) {
  Pass pass;
  pass.refs = &refs;
  if (args.workload == "hd_closed") {
    run_hd_closed(args, traced, pass, tracer);
  } else {
    run_open(args, args.workload == "mixed_open" ? mixed_open() : overload_slo(), traced, pass,
             tracer);
  }
  return pass;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"hd_closed", "mixed_open", "overload_slo"};
  return names;
}

RunResult run_workload(const RunArgs& args) {
  if (std::find(workload_names().begin(), workload_names().end(), args.workload) ==
      workload_names().end()) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  RunResult result;
  References refs;
  prepare_refs(args.workload, refs);

  Tracer off(false);
  Pass pass = run_pass(args, refs, false, off);
  end_to_end(args.workload, pass, result.end_to_end);

  const auto check = [&](const Pass& p) {
    for (Phase phase : {Phase::Window, Phase::LatencyProbe, Phase::HdProbe}) {
      const Counts c = count(p, phase);
      // Every attempted job is accounted for exactly once.
      if (c.completed + c.failed + c.shed != c.attempted) result.correct = false;
      result.attempted += c.attempted;
      result.failed += c.failed;
    }
    result.checksum = p.checksum;
    if (p.mismatches != 0) result.correct = false;
    if (!p.lag_ms.empty() && tail_percentile(p.lag_ms, kTail) > kLagBoundMs) {
      throw std::runtime_error("run invalid: the generator ran late (p95 lag above bound)");
    }
  };
  check(pass);
  result.threads_peak = pass.threads_peak;
  result.busy_threads = pass.busy_bound;

  if (args.trace) {
    Tracer tracer(true);
    Pass traced = run_pass(args, refs, true, tracer);
    check(traced);
    Report traced_e2e;
    end_to_end(args.workload, traced, traced_e2e);
    Report& L = result.layers;
    std::map<std::pair<std::int64_t, std::int64_t>, double> synth;
    for (const JobRecord& rec : traced.jobs) {
      const auto key = std::make_pair(rec.cfg.height, rec.cfg.width);
      if (synth.count(key) != 0) continue;
      std::vector<double> ms;
      for (int f = 0; f < 3; ++f) {
        ms.push_back(timed_ms(tracer, "apps.synthetic_frame",
                              [&] { (void)apps::synthetic_frame(rec.cfg.frame_shape(), f); }));
      }
      synth[key] = median(ms);
    }
    std::ostringstream jobs_json;
    std::int64_t negative = 0;
    const double overhead = job_split(traced, synth, jobs_json, negative);
    serving_layers(traced, overhead, L);
    L.add("serve.exec_late_over_early",
          late_over_early(traced, args.workload == "hd_closed" ? "latency_probe_sacng_18x32"
                                                               : kOpenClasses[0].name),
          "ratio", "measured");
    L.add("trace.jobs_negative_remainder", static_cast<double>(negative), "count", "count");
    L.add("trace.overhead_frames_per_s",
          traced_e2e.value("frames_per_s") - result.end_to_end.value("frames_per_s"), "frames/s",
          "measured");
    L.add("trace.overhead_job_latency_p50_ms",
          traced_e2e.value("job_latency_p50_ms") - result.end_to_end.value("job_latency_p50_ms"),
          "ms", "measured");
    const bool hd = args.workload == "hd_closed";
    measure_layers(hd ? hd_config() : geometry(180, 256), hd ? 4 : 1, tracer, refs,
                   result);
    write_spans(args.spans_path, args, tracer, jobs_json.str());
  }
  return result;
}

}  // namespace perfbench
