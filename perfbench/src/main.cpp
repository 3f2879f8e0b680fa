// perfbench: wall-clock benchmark of the executed (host-backend) path.
//
//   perfbench --workload hd_closed|mixed_open|overload_slo --seed N
//             --seconds S --trace 0|1 [--spans PATH]
//
// Prints every metric by name with its unit and kind, then, as the last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics with --trace 0, the per-layer metrics of an
// extra traced pass with --trace 1 (which also writes the spans).

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans PATH]\n",
               why);
  std::exit(2);
}

perfbench::RunArgs parse_args(int argc, char** argv) {
  perfbench::RunArgs args;
  args.spans_path = "perfbench-spans.json";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--spans") {
        args.spans_path = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0 && args.seconds <= 600)) usage("--seconds must be in (0, 600]");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::RunArgs args = parse_args(argc, argv);
  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  const perfbench::Report& report = args.trace ? result.layers : result.end_to_end;
  std::printf("workload %s seed %llu seconds %g trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("checksum fnv1a %016llx, correct %s, attempted %lld, failed %lld\n",
              static_cast<unsigned long long>(result.checksum), result.correct ? "yes" : "no",
              static_cast<long long>(result.attempted), static_cast<long long>(result.failed));
  std::printf("threads: %d live at peak, at most %d busy, nproc %u\n", result.threads_peak,
              result.busy_threads, std::thread::hardware_concurrency());
  for (const auto& m : report.metrics()) {
    std::printf("  %-42s %16.6f %-10s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.kind.c_str());
  }
  if (args.trace) std::printf("spans written to %s\n", args.spans_path.c_str());

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : report.metrics()) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
