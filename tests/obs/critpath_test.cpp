#include "obs/critpath.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace saclo::obs {
namespace {

gpu::Profiler::Interval interval(const std::string& name, gpu::OpKind kind, int stream,
                                 double start, double end) {
  gpu::Profiler::Interval iv;
  iv.name = name;
  iv.kind = kind;
  iv.stream = stream;
  iv.start_us = start;
  iv.end_us = end;
  return iv;
}

TEST(CriticalPathTest, OverlappingH2dStreamsStayWithinBusyTime) {
  // Two uploads on different streams cover the same 100 us, then a
  // kernel runs for 50: each category is a union, like busy time.
  DeviceTrace dev;
  dev.intervals = {interval("up_a", gpu::OpKind::MemcpyHtoD, 1, 0.0, 100.0),
                   interval("up_b", gpu::OpKind::MemcpyHtoD, 2, 0.0, 100.0),
                   interval("k", gpu::OpKind::Kernel, 3, 100.0, 150.0)};
  const CriticalPath path = analyze_critical_path({dev}, {});
  ASSERT_EQ(path.devices.size(), 1u);
  const DeviceAttribution& d = path.devices[0];
  EXPECT_DOUBLE_EQ(d.busy_us, 150.0);
  EXPECT_DOUBLE_EQ(d.span_us, 150.0);
  EXPECT_DOUBLE_EQ(d.h2d_us, 100.0);
  EXPECT_DOUBLE_EQ(d.kernel_us, 50.0);
  EXPECT_DOUBLE_EQ(d.d2h_us, 0.0);
  EXPECT_DOUBLE_EQ(d.host_us, 0.0);
  // The per-stage table still sums calls: both uploads are stages.
  ASSERT_EQ(path.stages.size(), 3u);

  const std::string report = critical_path_report(path, "measured");
  EXPECT_NE(report.find("us (measured)"), std::string::npos);
  EXPECT_NE(report.find("gpu0    100.0%  33.3%   66.7%"), std::string::npos) << report;
}

}  // namespace
}  // namespace saclo::obs
