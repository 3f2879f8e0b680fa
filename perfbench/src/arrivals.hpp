#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

/// The benchmark's own seeded random source. Sampling is hand-rolled on
/// the raw 64-bit engine output (no std:: distributions, whose results
/// differ between standard libraries), so a seed names the same
/// workload on every toolchain — and no change to the program under
/// test can change the workload.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();

 private:
  std::uint64_t state_;
};

/// One segment of a piecewise-constant arrival rate.
struct RateSegment {
  double seconds = 0;
  double jobs_per_s = 0;
};

/// One open-loop arrival: when it is due (seconds from the window
/// start), which job class, and whether it bills to the gold tenant.
struct Arrival {
  double due_s = 0;
  int job_class = 0;
  bool gold = false;

  bool operator==(const Arrival&) const = default;
};

/// Arrivals over [0, seconds) whose rate follows `pattern`, repeated
/// until the window ends (one segment = a steady rate): each segment
/// gets its expected count, at uniformly random times — a Poisson
/// process conditioned on the count. Classes are apportioned to the
/// arrivals in proportion to `class_weights`, and round(gold_share * n)
/// of them are gold, both shuffled by the seed. The same arguments give
/// identical output.
std::vector<Arrival> generate_arrivals(std::uint64_t seed, double seconds,
                                       const std::vector<RateSegment>& pattern,
                                       const std::vector<double>& class_weights,
                                       double gold_share);

}  // namespace perfbench
