#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace perfbench {

/// Raised when a percentile is asked of too few samples.
class TooFewSamples : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Median of the samples (mean of the two middle ones for an even
/// count). Throws TooFewSamples on an empty set.
double median(std::vector<double> samples);

/// Nearest-rank p-quantile (0 < p < 1) of the samples: the smallest
/// sample with at least p * n samples at or below it. A tail percentile
/// is only reported when at least `min_beyond` samples lie strictly
/// above its rank (ten, so p99 needs 1000 samples); otherwise this
/// throws TooFewSamples instead of returning a number that a single
/// outlier decides.
double tail_percentile(std::vector<double> samples, double p, std::size_t min_beyond = 10);

/// Samples above the nearest rank of the p-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double p);

/// FNV-1a over bytes, chained through `hash` (start with kFnvOffset).
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
std::uint64_t fnv1a(std::uint64_t hash, std::span<const std::byte> bytes);

}  // namespace perfbench
