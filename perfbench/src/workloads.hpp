#pragma once

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Names of the workloads run_workload() accepts.
const std::vector<std::string>& workload_names();

/// Runs one workload: set-up (repeated, median reported), the timed
/// window, the correctness gate and, with args.trace, an untraced pass
/// followed by a traced pass plus the per-layer probes. Throws on a
/// malformed request or a violated run invariant.
RunResult run_workload(const RunArgs& args);

}  // namespace perfbench
