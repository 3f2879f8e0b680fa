#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "apps/downscaler/config.hpp"
#include "core/ndarray.hpp"
#include "spans.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One reported number. `kind` says where it comes from: "measured"
/// (wall clock on this host), "count" (an exact count or a ratio of
/// counts) or "model" (the program's analytic cost model).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string kind;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit, std::string kind);
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// The value of `name`; throws when it was never added.
  double value(const std::string& name) const;

 private:
  std::vector<Metric> metrics_;
};

/// Everything one workload run hands back to main().
struct RunResult {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;  ///< jobs whose future carried an error other than a shed
  std::uint64_t checksum = 0;
  int threads_peak = 0;  ///< live threads of the process, sampled in the window
  int busy_threads = 0;  ///< threads that can be busy at once (pool workers + client)
  Report end_to_end;
  Report layers;  ///< filled by the traced run only
};

/// How a run is asked for on the command line.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  ///< where the traced run writes its spans
};

saclo::apps::DownscalerConfig geometry(std::int64_t height, std::int64_t width);

/// The independent correctness reference: the ArrayOL reference
/// interpreter (aol::evaluate) on the single-channel downscaler model,
/// fed the first channel of frame `last_frame`. No compilation route is
/// involved, so a route cannot be checked against itself. Each
/// (geometry, frame) is evaluated once, before any timing starts.
class References {
 public:
  void prepare(const saclo::apps::DownscalerConfig& cfg, int last_frame);
  /// Throws std::out_of_range when prepare() was not called for it.
  const saclo::IntArray& get(const saclo::apps::DownscalerConfig& cfg, int last_frame) const;

 private:
  std::map<std::tuple<std::int64_t, std::int64_t, int>, saclo::IntArray> refs_;
};

/// Peak resident set of this process (getrusage), MiB: since the start,
/// or since the last reset_peak_rss().
double peak_rss_mb();
/// Returns freed heap to the system and restarts the kernel's peak-RSS
/// counter, so the next peak_rss_mb() covers only what follows (the
/// fleets set-up built and dropped would otherwise decide the peak).
/// Where the counter cannot be reset the peak keeps counting from the
/// start.
void reset_peak_rss();
/// Threads of this process right now (/proc/self/status).
int live_threads();

}  // namespace perfbench
