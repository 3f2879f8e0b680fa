#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A span around one benchmark -> layer call: name, start and end (us
/// since the tracer's origin), the enclosing span on the same thread
/// (-1 = none) and the job it belongs to (-1 = none). Spans of one job
/// share its id.
struct Span {
  std::string name;
  double start_us = 0;
  double end_us = 0;
  int parent = -1;
  std::int64_t job = -1;
};

/// In-memory span recorder, written out once when the run ends. A
/// disabled tracer records nothing, so the untraced run pays one branch
/// per call.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  double us_since_origin(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  /// Opens a span on this thread; it closes when the scope ends.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, std::int64_t job);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when disabled
    int index_ = -1;
    int saved_parent_ = -1;
  };

  std::vector<Span> spans() const;

 private:
  int add(std::string name, double start_us, double end_us, int parent, std::int64_t job);

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Runs `fn`, returns its wall time in milliseconds, and records it as a
/// span named `name` when the tracer is enabled.
template <typename Fn>
double timed_ms(Tracer& tracer, const char* name, Fn&& fn) {
  Tracer::Scope scope(tracer, name, -1);
  const auto t0 = Tracer::Clock::now();
  std::forward<Fn>(fn)();
  return std::chrono::duration<double, std::milli>(Tracer::Clock::now() - t0).count();
}

}  // namespace perfbench
