#include "obs/export.hpp"

#include <optional>
#include <set>

#include "core/fmt.hpp"

namespace saclo::obs {

namespace {

bool is_instant(EventType type) {
  switch (type) {
    case EventType::DeviceFault:
    case EventType::Failover:
    case EventType::RetryExhausted:
    case EventType::DeviceDegraded:
    case EventType::DeviceHealed:
    case EventType::BatchFormed:
    case EventType::JobPreempted:
    case EventType::JobStolen:
    case EventType::DeadlineMiss:
    case EventType::ScaleUp:
    case EventType::ScaleDown:
    case EventType::DrainStarted:
    case EventType::DrainComplete:
      return true;
    default:
      return false;
  }
}

/// Scale events also drive the fleet-level "active devices" counter
/// track: ScaleUp/ScaleDown carry the post-action active count in arg.
bool carries_active_count(EventType type) {
  return type == EventType::ScaleUp || type == EventType::ScaleDown;
}

/// Where a flow arrow attaches: a timestamp on a (pid, tid) track.
struct Anchor {
  double ts = 0.0;
  int tid = kRuntimeEventsTid;
};

const DeviceTrace* find_device(const std::vector<DeviceTrace>& devices, int index) {
  for (const DeviceTrace& d : devices) {
    if (d.device == index) return &d;
  }
  return nullptr;
}

/// End of the last interval a (job, attempt) recorded on a device.
std::optional<Anchor> last_span_end(const DeviceTrace& dev, std::uint64_t job,
                                    std::uint32_t attempt) {
  std::optional<Anchor> best;
  for (const auto& iv : dev.intervals) {
    if (iv.trace_id != job || iv.attempt != attempt) continue;
    if (!best || iv.end_us > best->ts) best = Anchor{iv.end_us, iv.stream};
  }
  return best;
}

/// Start of the first interval a (job, attempt) recorded on a device.
std::optional<Anchor> first_span_start(const DeviceTrace& dev, std::uint64_t job,
                                       std::uint32_t attempt) {
  std::optional<Anchor> best;
  for (const auto& iv : dev.intervals) {
    if (iv.trace_id != job || iv.attempt != attempt) continue;
    if (!best || iv.start_us < best->ts) best = Anchor{iv.start_us, iv.stream};
  }
  return best;
}

}  // namespace

std::string merged_chrome_trace(const std::vector<DeviceTrace>& devices,
                                const std::vector<Event>& events) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& ev) {
    if (!first) out += ",";
    first = false;
    out += ev;
  };

  // Which devices host runtime instant events (they get the extra
  // "runtime" track).
  std::set<int> instant_pids;
  for (const Event& e : events) {
    if (is_instant(e.type) && e.device >= 0) instant_pids.insert(e.device);
  }

  for (const DeviceTrace& dev : devices) {
    std::string proc = cat("gpu", dev.device);
    if (!dev.backend.empty()) proc += cat(" (", dev.backend, ")");
    emit(cat("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":", dev.device,
             ",\"args\":{\"name\":\"", json_escape(proc), "\"}}"));
    std::set<gpu::StreamId> streams;
    for (const auto& iv : dev.intervals) streams.insert(iv.stream);
    for (gpu::StreamId s : streams) {
      emit(cat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":", dev.device, ",\"tid\":", s,
               ",\"args\":{\"name\":\"stream ", s, "\"}}"));
    }
    if (instant_pids.count(dev.device) != 0) {
      emit(cat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":", dev.device,
               ",\"tid\":", kRuntimeEventsTid, ",\"args\":{\"name\":\"runtime\"}}"));
    }
  }

  for (const DeviceTrace& dev : devices) {
    for (const auto& iv : dev.intervals) {
      std::string ev = cat("{\"name\":\"", json_escape(iv.name), "\",\"cat\":\"",
                           gpu::op_category(iv.kind), "\",\"ph\":\"X\",\"pid\":", dev.device,
                           ",\"tid\":", iv.stream, ",\"ts\":", fixed(iv.start_us, 3),
                           ",\"dur\":", fixed(iv.duration_us(), 3));
      if (iv.trace_id != 0) {
        ev += cat(",\"args\":{\"job\":", iv.trace_id, ",\"attempt\":", iv.attempt);
        if (iv.batch != 0) ev += cat(",\"batch\":", iv.batch);
        if (!dev.backend.empty()) ev += cat(",\"backend\":\"", json_escape(dev.backend), "\"");
        ev += "}";
      }
      emit(ev + "}");
    }
  }

  for (const Event& e : events) {
    if (!is_instant(e.type) || e.device < 0) continue;
    emit(cat("{\"name\":\"", event_type_name(e.type), "\",\"cat\":\"serve\",\"ph\":\"i\","
             "\"s\":\"t\",\"pid\":", e.device, ",\"tid\":", kRuntimeEventsTid,
             ",\"ts\":", fixed(e.t_sim_us, 3), ",\"args\":{\"job\":", e.job,
             ",\"attempt\":", e.attempt, ",\"arg\":", e.arg, "}}"));
  }

  // The autoscaler gauge track: one Chrome counter event per scale
  // action, so the merged trace shows the active-device count stepping
  // up and down against the spans it reshaped. Counter events live on
  // their own process so Perfetto renders one fleet-level track.
  bool any_scale = false;
  for (const Event& e : events) {
    if (!carries_active_count(e.type)) continue;
    if (!any_scale) {
      any_scale = true;
      emit(cat("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":", kAutoscalerPid,
               ",\"args\":{\"name\":\"autoscaler\"}}"));
    }
    emit(cat("{\"name\":\"active_devices\",\"ph\":\"C\",\"pid\":", kAutoscalerPid,
             ",\"ts\":", fixed(e.t_real_us, 3), ",\"args\":{\"devices\":", e.arg, "}}"));
  }

  // One flow pair per failover hop: Failover events carry device = from
  // and arg = to, stamped with the attempt number the retry runs as.
  for (const Event& e : events) {
    if (e.type != EventType::Failover || e.attempt < 1) continue;
    const std::uint64_t flow_id = e.job * 256 + static_cast<std::uint64_t>(e.attempt);
    const int to = static_cast<int>(e.arg);
    Anchor start{e.t_sim_us, kRuntimeEventsTid};
    if (const DeviceTrace* from_dev = find_device(devices, e.device)) {
      if (auto a = last_span_end(*from_dev, e.job,
                                 static_cast<std::uint32_t>(e.attempt - 1))) {
        start = *a;
      }
    }
    emit(cat("{\"name\":\"failover\",\"cat\":\"failover\",\"ph\":\"s\",\"id\":", flow_id,
             ",\"pid\":", e.device, ",\"tid\":", start.tid, ",\"ts\":", fixed(start.ts, 3),
             "}"));
    if (const DeviceTrace* to_dev = find_device(devices, to)) {
      if (auto a = first_span_start(*to_dev, e.job, static_cast<std::uint32_t>(e.attempt))) {
        emit(cat("{\"name\":\"failover\",\"cat\":\"failover\",\"ph\":\"f\",\"bp\":\"e\","
                 "\"id\":", flow_id, ",\"pid\":", to, ",\"tid\":", a->tid,
                 ",\"ts\":", fixed(a->ts, 3), "}"));
      }
    }
  }

  out += "]}";
  return out;
}

}  // namespace saclo::obs
