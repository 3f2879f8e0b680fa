#include "gpu/stream.hpp"

#include <algorithm>

#include "core/fmt.hpp"

namespace saclo::gpu {

StreamId Timeline::create_stream() {
  tails_.push_back(0.0);
  return static_cast<StreamId>(tails_.size() - 1);
}

void Timeline::check_stream(StreamId stream) const {
  if (stream < 0 || static_cast<std::size_t>(stream) >= tails_.size()) {
    throw StreamError(cat("unknown stream ", stream));
  }
}

Timeline::Interval Timeline::schedule(StreamId stream, double duration_us,
                                      std::span<const BufferHandle> reads,
                                      std::span<const BufferHandle> writes) {
  check_stream(stream);
  double start = tails_[static_cast<std::size_t>(stream)];
  // Read-after-write: reads wait for the last writer of the buffer.
  for (const BufferHandle& h : reads) {
    if (!h.valid()) continue;
    auto it = hazards_.find(h.id);
    if (it != hazards_.end()) start = std::max(start, it->second.last_write_end_us);
  }
  // Write-after-write and write-after-read.
  for (const BufferHandle& h : writes) {
    if (!h.valid()) continue;
    auto it = hazards_.find(h.id);
    if (it != hazards_.end()) {
      start = std::max(start, it->second.last_write_end_us);
      start = std::max(start, it->second.last_read_end_us);
    }
  }
  const double end = start + duration_us;
  tails_[static_cast<std::size_t>(stream)] = end;
  for (const BufferHandle& h : reads) {
    if (h.valid()) hazards_[h.id].last_read_end_us = std::max(hazards_[h.id].last_read_end_us, end);
  }
  for (const BufferHandle& h : writes) {
    if (h.valid()) {
      hazards_[h.id].last_write_end_us = std::max(hazards_[h.id].last_write_end_us, end);
    }
  }
  if (end > makespan_us()) makespan_.store(end, std::memory_order_relaxed);
  return Interval{start, end};
}

EventId Timeline::record_event(StreamId stream) {
  check_stream(stream);
  events_.push_back(tails_[static_cast<std::size_t>(stream)]);
  return events_.size() - 1;
}

void Timeline::wait_event(StreamId stream, EventId event) {
  wait_until(stream, event_us(event));
}

void Timeline::wait_until(StreamId stream, double time_us) {
  check_stream(stream);
  double& tail = tails_[static_cast<std::size_t>(stream)];
  tail = std::max(tail, time_us);
}

double Timeline::event_us(EventId event) const {
  if (event >= events_.size()) throw StreamError(cat("unknown event ", event));
  return events_[event];
}

double Timeline::tail_us(StreamId stream) const {
  check_stream(stream);
  return tails_[static_cast<std::size_t>(stream)];
}

void Timeline::synchronize() {
  for (double& t : tails_) t = std::max(t, makespan_us());
}

}  // namespace saclo::gpu
