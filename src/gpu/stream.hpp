#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/error.hpp"
#include "gpu/memory.hpp"

namespace saclo::gpu {

/// Raised on use of an unknown stream or event id.
class StreamError : public Error {
 public:
  using Error::Error;
};

/// Identifies one simulated execution stream (a CUDA stream / OpenCL
/// command queue). Stream 0 always exists: the default stream every
/// legacy call lands on.
using StreamId = int;
inline constexpr StreamId kDefaultStream = 0;

/// Identifies a recorded event (a point on a stream's timeline that
/// other streams can wait on — cudaEventRecord/cudaStreamWaitEvent).
using EventId = std::size_t;

/// The bundle of streams an asynchronous pipeline issues into: one per
/// PCIe direction, one for kernels, one standing in for the host
/// thread. Default-initialised all members alias the default stream,
/// which degenerates to fully serial issue.
struct StreamSet {
  StreamId h2d = kDefaultStream;      ///< host-to-device copies
  StreamId compute = kDefaultStream;  ///< kernel launches (+ in-line tiler traffic)
  StreamId d2h = kDefaultStream;      ///< device-to-host copies
  StreamId host = kDefaultStream;     ///< host-side work (tilers, glue)
};

/// The simulated multi-stream clock.
///
/// Each stream is an in-order queue with its own tail time; an
/// operation scheduled on a stream starts at the stream's tail, pushed
/// later by data hazards on the device buffers it touches
/// (read-after-write, write-after-read, write-after-write) and by
/// recorded event waits. Operations on distinct streams overlap unless
/// one of those constraints orders them. The makespan over all streams
/// is the simulated wall clock.
class Timeline {
 public:
  struct Interval {
    double start_us = 0.0;
    double end_us = 0.0;
  };

  /// Creates a new stream with an empty timeline; returns its id.
  StreamId create_stream();
  /// Number of existing streams (including the default stream 0).
  int stream_count() const { return static_cast<int>(tails_.size()); }

  /// Schedules an operation of `duration_us` on `stream`: start =
  /// max(stream tail, hazard times of `reads`/`writes`), then advances
  /// the tail and the hazard state of the touched buffers.
  Interval schedule(StreamId stream, double duration_us,
                    std::span<const BufferHandle> reads = {},
                    std::span<const BufferHandle> writes = {});

  /// Captures the current tail of `stream` as an event.
  EventId record_event(StreamId stream);
  /// Orders `stream` after the recorded event (cudaStreamWaitEvent).
  void wait_event(StreamId stream, EventId event);
  /// Pushes the tail of `stream` to at least `time_us`.
  void wait_until(StreamId stream, double time_us);
  /// The time an event was recorded at.
  double event_us(EventId event) const;

  /// Current tail of one stream / of every stream (device synchronize).
  double tail_us(StreamId stream) const;
  void synchronize();

  /// Latest end time over every scheduled operation (the wall clock).
  /// Safe to read from any thread while the owner schedules (the serve
  /// runtime stamps events with peer devices' clocks).
  double makespan_us() const { return makespan_.load(std::memory_order_relaxed); }

 private:
  void check_stream(StreamId stream) const;

  struct Hazard {
    double last_write_end_us = 0.0;
    double last_read_end_us = 0.0;
  };

  std::vector<double> tails_{0.0};  // index = StreamId; slot 0 = default stream
  std::vector<double> events_;
  std::map<std::uint64_t, Hazard> hazards_;  // BufferHandle::id -> hazard state
  std::atomic<double> makespan_{0.0};  // one writer: the scheduling thread
};

}  // namespace saclo::gpu
