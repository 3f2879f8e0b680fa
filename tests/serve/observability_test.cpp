// End-to-end checks of the fleet observability pipeline: one faulted
// serving run must yield a coherent merged Chrome trace (the failed-over
// job's spans on both devices, linked by a flow pair), a structured
// JSONL event log whose per-job sequences match the JobResults, and a
// Prometheus exposition whose histogram agrees with the JSON report.

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/fmt.hpp"
#include "obs/histogram.hpp"
#include "serve/job.hpp"
#include "serve/scheduler.hpp"
#include "support/fault_fixtures.hpp"
#include "support/mini_json.hpp"

namespace saclo::serve {
namespace {

using saclo::testsupport::FaultPlanBuilder;
using saclo::testsupport::Json;
using saclo::testsupport::parse_json;

std::vector<Json> parse_jsonl(const std::string& text) {
  std::vector<Json> out;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (!line.empty()) out.push_back(parse_json(line));
  }
  return out;
}

JobSpec small_job() {
  JobSpec spec;
  spec.frames = 2;
  spec.exec_frames = 1;
  return spec;
}

/// One deterministic failover: device 0 dies at its first kernel
/// (one-shot), so exactly one job faults there and completes elsewhere.
struct FailoverRun {
  ServeRuntime runtime;
  std::vector<JobResult> results;
  JobResult failed_over;  ///< the job with attempts == 1

  static ServeRuntime::Options options() {
    ServeRuntime::Options opts = testsupport::faulty_fleet_options(
        2, FaultPlanBuilder().fail_after_kernels(/*device=*/0, /*kernels=*/0).build());
    opts.event_log_capacity = 4096;
    return opts;
  }

  explicit FailoverRun(int jobs = 4) : runtime(options()) {
    std::vector<std::future<JobResult>> futures;
    for (int i = 0; i < jobs; ++i) futures.push_back(runtime.submit(small_job()));
    runtime.drain();
    for (auto& f : futures) results.push_back(f.get());
    for (const JobResult& r : results) {
      if (r.attempts > 0) failed_over = r;
    }
    EXPECT_EQ(failed_over.attempts, 1) << "expected exactly one failover in the staged run";
  }
};

TEST(ObservabilityTest, DisabledByDefaultWithEmptyExports) {
  ServeRuntime::Options opts;
  opts.devices = 1;
  ServeRuntime runtime(opts);
  runtime.submit(small_job()).get();
  runtime.drain();
  EXPECT_EQ(runtime.event_log(), nullptr);
  EXPECT_EQ(runtime.events_jsonl(), "");
  // The merged trace still works — spans only, no runtime events.
  const Json trace = parse_json(runtime.merged_trace_json());
  EXPECT_FALSE(trace.at("traceEvents").array.empty());
}

TEST(ObservabilityTest, MergedTraceLinksFailoverAcrossDevices) {
  FailoverRun run;
  const Json trace = parse_json(run.runtime.merged_trace_json());
  const Json& events = trace.at("traceEvents");
  const double job = static_cast<double>(run.failed_over.id);

  // The failed-over job left spans on both devices: its faulted attempt
  // 0 on device 0 and the completing attempt 1 on the other device.
  std::map<int, int> spans_by_device;
  for (const Json& e : events.array) {
    if (e.at("ph").string == "X" && e.has("args") && e.at("args").at("job").number == job) {
      ++spans_by_device[static_cast<int>(e.at("pid").number)];
    }
  }
  ASSERT_EQ(spans_by_device.size(), 2u);
  EXPECT_GT(spans_by_device[0], 0);
  EXPECT_GT(spans_by_device[run.failed_over.device], 0);

  // One flow pair with id = job * 256 + attempt ties the hop together.
  const double flow_id = job * 256 + 1;
  int flow_starts = 0;
  int flow_finishes = 0;
  for (const Json& e : events.array) {
    if (e.at("ph").string == "s" && e.at("id").number == flow_id) {
      ++flow_starts;
      EXPECT_DOUBLE_EQ(e.at("pid").number, 0.0);  // leaves the faulted device
    }
    if (e.at("ph").string == "f" && e.at("id").number == flow_id) {
      ++flow_finishes;
      EXPECT_DOUBLE_EQ(e.at("pid").number, run.failed_over.device);
    }
  }
  EXPECT_EQ(flow_starts, 1);
  EXPECT_EQ(flow_finishes, 1);

  // The fault itself shows as an instant event on device 0.
  bool fault_instant = false;
  for (const Json& e : events.array) {
    if (e.at("ph").string == "i" && e.at("name").string == "device_fault") {
      EXPECT_DOUBLE_EQ(e.at("pid").number, 0.0);
      fault_instant = true;
    }
  }
  EXPECT_TRUE(fault_instant);
}

TEST(ObservabilityTest, EventSequencesMatchTheJobResults) {
  FailoverRun run;
  const std::vector<Json> lines = parse_jsonl(run.runtime.events_jsonl());
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back().at("event").string, "log_summary");
  EXPECT_DOUBLE_EQ(lines.back().at("dropped").number, 0.0);

  // Per-job event sequences, in ring (= emission) order.
  std::map<std::uint64_t, std::vector<std::string>> sequences;
  for (const Json& line : lines) {
    const std::string& type = line.at("event").string;
    if (type == "log_summary") continue;
    const std::uint64_t job = static_cast<std::uint64_t>(line.at("job").number);
    if (job != 0) sequences[job].push_back(type);
  }

  for (const JobResult& r : run.results) {
    ASSERT_TRUE(sequences.count(r.id)) << "job " << r.id << " left no events";
    const std::vector<std::string>& seq = sequences[r.id];
    // Lifecycle brackets.
    ASSERT_GE(seq.size(), 4u);
    EXPECT_EQ(seq[0], "job_admitted");
    EXPECT_EQ(seq[1], "job_placed");
    EXPECT_EQ(seq[2], "job_dispatched");
    EXPECT_EQ(seq.back(), "job_completed");
    // The log's fault/failover/dispatch counts must agree with the
    // result's attempt count: attempts faults, attempts failovers,
    // attempts + 1 dispatches.
    std::map<std::string, int> counts;
    for (const std::string& s : seq) ++counts[s];
    EXPECT_EQ(counts["device_fault"], r.attempts) << "job " << r.id;
    EXPECT_EQ(counts["failover"], r.attempts) << "job " << r.id;
    EXPECT_EQ(counts["job_dispatched"], r.attempts + 1) << "job " << r.id;
    // The completing attempt emitted one frame_done per frame.
    EXPECT_GE(counts["frame_done"], r.frames) << "job " << r.id;
  }
}

TEST(ObservabilityTest, PrometheusHistogramAgreesWithJsonReport) {
  FailoverRun run;
  const std::string prom = run.runtime.metrics_prometheus();
  const Json json = parse_json(run.runtime.metrics_json());

  // Counters line up across the two exports.
  const auto prom_value = [&prom](const std::string& name) {
    const std::size_t pos = prom.find("\n" + name + " ");
    EXPECT_NE(pos, std::string::npos) << name << " missing from exposition";
    return std::stod(prom.substr(pos + name.size() + 2));
  };
  EXPECT_DOUBLE_EQ(prom_value("saclo_jobs_completed_total"),
                   json.at("jobs_completed").number);
  EXPECT_DOUBLE_EQ(prom_value("saclo_device_faults_total"),
                   json.at("health").at("device_faults").number);
  EXPECT_DOUBLE_EQ(prom_value("saclo_job_latency_us_count"),
                   json.at("jobs_completed").number);

  // The p95 the JSON report quotes must fall inside the histogram
  // bucket the exposition puts the 95th percentile in — both views
  // derive from one LogHistogram, so disagreement means a broken
  // exporter. Both exports round (JSON p95 to 0.1, `le` to 0.001), so
  // the check runs on the exact values behind the text: the snapshot's
  // p95, which the JSON must quote, and each emitted bucket's exact
  // bound, which its `le` must print.
  std::vector<std::pair<double, std::int64_t>> buckets;  // (le, cumulative)
  std::size_t pos = 0;
  while ((pos = prom.find("saclo_job_latency_us_bucket{le=\"", pos)) != std::string::npos) {
    const std::size_t le_at = pos + std::string("saclo_job_latency_us_bucket{le=\"").size();
    const std::string le_text = prom.substr(le_at, prom.find('"', le_at) - le_at);
    const double le = le_text == "+Inf" ? std::numeric_limits<double>::infinity()
                                        : obs::LogHistogram::upper_bound(buckets.size());
    if (le_text != "+Inf") EXPECT_EQ(le_text, fixed(le, 3));
    const std::size_t count_at = prom.find("} ", pos) + 2;
    buckets.emplace_back(le, std::stoll(prom.substr(count_at)));
    ++pos;
  }
  ASSERT_GE(buckets.size(), 2u);
  const std::int64_t total = buckets.back().second;
  ASSERT_EQ(total, static_cast<std::int64_t>(run.results.size()));

  // LogHistogram::percentile places rank q*(count-1) in the first
  // bucket whose cumulative count exceeds it, and interpolates inside
  // that bucket — so the JSON p95 must land within that bucket's range.
  const double p95 = run.runtime.metrics().snapshot().latency_p95_us;
  EXPECT_DOUBLE_EQ(json.at("latency_real_us").at("p95").number, std::stod(fixed(p95, 1)));
  const double rank = 0.95 * static_cast<double>(total - 1);
  double lower = 0.0;
  for (const auto& [le, cum] : buckets) {
    if (static_cast<double>(cum) > rank) {
      EXPECT_GE(p95, lower);
      EXPECT_LE(p95, le);
      return;
    }
    lower = le;
  }
  FAIL() << "p95 bucket not found in the exposition";
}

}  // namespace
}  // namespace saclo::serve
