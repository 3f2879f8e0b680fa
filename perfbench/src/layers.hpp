#pragma once

#include "apps/downscaler/config.hpp"
#include "common.hpp"

namespace perfbench {

/// Per-layer probes of the traced run: times the benchmark's own calls
/// into each src/ module's public entry points at the workload's probe
/// geometry `cfg` and thread-pool width `workers`, and reads the
/// host-measured kernel and copy intervals the device profiler keeps.
/// Every probe output is checked against `refs`; a mismatch clears
/// result.correct. Adds its metrics to result.layers.
void measure_layers(const saclo::apps::DownscalerConfig& cfg, unsigned workers, Tracer& tracer,
                    References& refs, RunResult& result);

}  // namespace perfbench
