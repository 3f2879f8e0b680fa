#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace perfbench {

double median(std::vector<double> samples) {
  if (samples.empty()) throw TooFewSamples("median of no samples");
  const std::size_t n = samples.size();
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

double tail_percentile(std::vector<double> samples, double p, std::size_t min_beyond) {
  if (!(p > 0.0 && p < 1.0)) throw std::invalid_argument("percentile outside (0, 1)");
  const std::size_t n = samples.size();
  const std::size_t beyond = samples_beyond(n, p);
  if (n == 0 || beyond < min_beyond) {
    throw TooFewSamples("p" + std::to_string(p * 100) + " of " + std::to_string(n) +
                        " samples leaves " + std::to_string(beyond) + " beyond it, need " +
                        std::to_string(min_beyond));
  }
  const std::size_t idx = n - beyond - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  return samples[idx];
}

std::uint64_t fnv1a(std::uint64_t hash, std::span<const std::byte> bytes) {
  for (std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace perfbench
