#include "gpu/profiler.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "core/fmt.hpp"

namespace saclo::gpu {

void Profiler::record(const std::string& name, OpKind kind, std::int64_t calls, double us) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    index_.emplace(name, rows_.size());
    rows_.push_back(Row{name, kind, calls, us});
    return;
  }
  Row& row = rows_[it->second];
  row.calls += calls;
  row.total_us += us;
}

void Profiler::record_interval(const std::string& name, OpKind kind, StreamId stream,
                               double start_us, double end_us) {
  record(name, kind, 1, end_us - start_us);
  std::lock_guard<std::mutex> lock(intervals_mutex_);
  intervals_.push_back(Interval{name, kind, stream, start_us, end_us, trace_id_, attempt_, batch_});
}

std::vector<Profiler::Interval> Profiler::intervals_snapshot() const {
  std::lock_guard<std::mutex> lock(intervals_mutex_);
  return intervals_;
}

std::vector<Profiler::Row> Profiler::rows() const { return rows_; }

double Profiler::total_us() const {
  double t = 0.0;
  for (const Row& r : rows_) t += r.total_us;
  return t;
}

double Profiler::total_us(OpKind kind) const {
  double t = 0.0;
  for (const Row& r : rows_) {
    if (r.kind == kind) t += r.total_us;
  }
  return t;
}

double Profiler::us_for(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? 0.0 : rows_[it->second].total_us;
}

double Profiler::makespan_us() const {
  double m = 0.0;
  for (const Interval& i : intervals_) m = std::max(m, i.end_us);
  return m;
}

double Profiler::stream_busy_us(StreamId stream) const {
  double t = 0.0;
  for (const Interval& i : intervals_) {
    if (i.stream == stream) t += i.duration_us();
  }
  return t;
}

Profiler::OverlapStats Profiler::overlap_stats() const {
  OverlapStats s;
  s.makespan_us = makespan_us();
  // Merge the kernel intervals into a disjoint union, then intersect
  // every transfer interval with it. Ops on the same stream never
  // overlap, so no same-stream exclusion is needed.
  std::vector<Interval> kernels;
  for (const Interval& i : intervals_) {
    s.serialized_us += i.duration_us();
    if (i.kind == OpKind::MemcpyHtoD || i.kind == OpKind::MemcpyDtoH) {
      s.transfer_us += i.duration_us();
    } else if (i.kind == OpKind::Kernel) {
      kernels.push_back(i);
    }
  }
  std::sort(kernels.begin(), kernels.end(),
            [](const Interval& a, const Interval& b) { return a.start_us < b.start_us; });
  std::vector<std::pair<double, double>> merged;
  for (const Interval& k : kernels) {
    if (!merged.empty() && k.start_us <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, k.end_us);
    } else {
      merged.emplace_back(k.start_us, k.end_us);
    }
  }
  for (const Interval& i : intervals_) {
    if (i.kind != OpKind::MemcpyHtoD && i.kind != OpKind::MemcpyDtoH) continue;
    for (const auto& [b, e] : merged) {
      if (e <= i.start_us) continue;
      if (b >= i.end_us) break;
      s.hidden_transfer_us += std::min(e, i.end_us) - std::max(b, i.start_us);
    }
  }
  return s;
}

void Profiler::clear() {
  rows_.clear();
  index_.clear();
  intervals_.clear();
}

std::string Profiler::table() const {
  const double total = total_us();
  std::string out;
  out += pad_right("Operation", 28) + pad_left("#calls", 8) + pad_left("GPU time(usec)", 16) +
         pad_left("GPU time (%)", 14) + "\n";
  out += std::string(66, '-') + "\n";
  for (const Row& r : rows_) {
    out += pad_right(r.name, 28) + pad_left(std::to_string(r.calls), 8) +
           pad_left(std::to_string(static_cast<std::int64_t>(std::llround(r.total_us))), 16) +
           pad_left(fixed(total > 0 ? 100.0 * r.total_us / total : 0.0, 2), 14) + "\n";
  }
  out += std::string(66, '-') + "\n";
  out += pad_right("Total", 28) + pad_left("-", 8) + pad_left(fixed(total / 1e6, 2) + "sec", 16) +
         pad_left("100.00", 14) + "\n";
  return out;
}

std::string Profiler::timeline() const {
  struct StreamStats {
    std::int64_t ops = 0;
    double busy = 0.0;
    double first = 0.0;
    double last = 0.0;
  };
  // One sweep in issue order; each stream's sums accumulate in the
  // same order a per-stream scan would, so the figures are identical.
  std::map<StreamId, StreamStats> streams;
  for (const Interval& i : intervals_) {
    auto [it, fresh] = streams.try_emplace(i.stream);
    StreamStats& s = it->second;
    ++s.ops;
    s.busy += i.duration_us();
    if (fresh || i.start_us < s.first) s.first = i.start_us;
    s.last = std::max(s.last, i.end_us);
  }
  std::string out;
  out += pad_right("Stream", 10) + pad_left("#ops", 8) + pad_left("busy(usec)", 14) +
         pad_left("first(usec)", 14) + pad_left("last(usec)", 14) + "\n";
  out += std::string(60, '-') + "\n";
  for (const auto& [id, s] : streams) {
    out += pad_right(cat("stream ", id), 10) + pad_left(std::to_string(s.ops), 8) +
           pad_left(fixed(s.busy, 0), 14) + pad_left(fixed(s.first, 0), 14) +
           pad_left(fixed(s.last, 0), 14) + "\n";
  }
  out += std::string(60, '-') + "\n";
  const OverlapStats st = overlap_stats();
  out += cat("serialized ", fixed(st.serialized_us / 1e6, 3), "sec   makespan ",
             fixed(st.makespan_us / 1e6, 3), "sec   saved ", fixed(st.saved_us() / 1e6, 3),
             "sec\n");
  out += cat("transfers ", fixed(st.transfer_us / 1e6, 3), "sec, hidden behind kernels ",
             fixed(st.hidden_transfer_us / 1e6, 3), "sec (",
             fixed(100.0 * st.hidden_fraction(), 1), "%)\n");
  return out;
}

const char* op_category(OpKind kind) {
  switch (kind) {
    case OpKind::Kernel:
      return "kernel";
    case OpKind::MemcpyHtoD:
      return "memcpy_h2d";
    case OpKind::MemcpyDtoH:
      return "memcpy_d2h";
    case OpKind::Host:
      return "host";
  }
  return "op";
}

std::string Profiler::chrome_trace_json() const {
  // The trace_event "JSON Array Format": ts/dur are microseconds, which
  // is exactly the simulator's unit. tid = stream.
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  std::set<StreamId> streams;
  for (const Interval& i : intervals_) streams.insert(i.stream);
  bool first = true;
  for (StreamId s : streams) {
    if (!first) out += ",";
    first = false;
    out += cat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":", s,
               ",\"args\":{\"name\":\"stream ", s, "\"}}");
  }
  for (const Interval& i : intervals_) {
    if (!first) out += ",";
    first = false;
    out += cat("{\"name\":\"", json_escape(i.name), "\",\"cat\":\"", op_category(i.kind),
               "\",\"ph\":\"X\",\"pid\":0,\"tid\":", i.stream, ",\"ts\":", fixed(i.start_us, 3),
               ",\"dur\":", fixed(i.duration_us(), 3));
    // Traced intervals (serve jobs) carry their owner, so a device dump
    // stays attributable even outside the merged fleet trace.
    if (i.trace_id != 0) {
      out += cat(",\"args\":{\"job\":", i.trace_id, ",\"attempt\":", i.attempt);
      if (i.batch != 0) out += cat(",\"batch\":", i.batch);
      if (!backend_name_.empty()) out += cat(",\"backend\":\"", backend_name_, "\"");
      out += "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace saclo::gpu
