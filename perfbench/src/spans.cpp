#include "spans.hpp"

namespace perfbench {

namespace {
// Innermost open span of this thread: the parent of the next one.
thread_local int t_current = -1;
}  // namespace

Tracer::Scope::Scope(Tracer& tracer, std::string name, std::int64_t job) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  saved_parent_ = t_current;
  const double now = tracer.us_since_origin(Clock::now());
  index_ = tracer.add(std::move(name), now, now, saved_parent_, job);
  t_current = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const double now = tracer_->us_since_origin(Clock::now());
  {
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    tracer_->spans_[static_cast<std::size_t>(index_)].end_us = now;
  }
  t_current = saved_parent_;
}

int Tracer::add(std::string name, double start_us, double end_us, int parent, std::int64_t job) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), start_us, end_us, parent, job});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

}  // namespace perfbench
