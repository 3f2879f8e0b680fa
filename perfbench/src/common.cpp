#include "common.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <fstream>
#include <stdexcept>

#include "apps/downscaler/arrayol_model.hpp"
#include "apps/downscaler/frames.hpp"
#include "arrayol/model.hpp"

namespace perfbench {

void Report::add(std::string name, double value, std::string unit, std::string kind) {
  metrics_.push_back({std::move(name), value, std::move(unit), std::move(kind)});
}

double Report::value(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  throw std::out_of_range("no metric " + name);
}

saclo::apps::DownscalerConfig geometry(std::int64_t height, std::int64_t width) {
  saclo::apps::DownscalerConfig cfg;
  cfg.height = height;
  cfg.width = width;
  cfg.validate();
  return cfg;
}

void References::prepare(const saclo::apps::DownscalerConfig& cfg, int last_frame) {
  const auto key = std::make_tuple(cfg.height, cfg.width, last_frame);
  if (refs_.count(key) != 0) return;
  auto outputs = saclo::aol::evaluate(
      saclo::apps::build_single_channel_model(cfg),
      {{"frame_y", saclo::apps::synthetic_channel(cfg.frame_shape(), last_frame, 0)}});
  refs_.emplace(key, std::move(outputs.at("out_y")));
}

const saclo::IntArray& References::get(const saclo::apps::DownscalerConfig& cfg,
                                       int last_frame) const {
  return refs_.at(std::make_tuple(cfg.height, cfg.width, last_frame));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

int live_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

}  // namespace perfbench
