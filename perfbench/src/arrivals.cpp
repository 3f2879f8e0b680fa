#include "arrivals.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint64_t Rng::next() {
  // splitmix64: tiny, fully specified, good enough for workload draws.
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

namespace {

/// Fisher-Yates shuffle driven by the benchmark's own Rng.
template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.next() % i)]);
  }
}

}  // namespace

std::vector<Arrival> generate_arrivals(std::uint64_t seed, double seconds,
                                       const std::vector<RateSegment>& pattern,
                                       const std::vector<double>& class_weights,
                                       double gold_share) {
  if (pattern.empty() || class_weights.empty()) throw std::invalid_argument("empty workload");
  for (const RateSegment& s : pattern) {
    if (!(s.seconds > 0) || !(s.jobs_per_s > 0)) throw std::invalid_argument("bad rate segment");
  }
  Rng rng(seed);
  // Each segment holds its expected number of arrivals, placed uniformly
  // at random inside it: a Poisson process conditioned on its count, so
  // bursts and gaps vary with the seed but the offered load does not.
  std::vector<double> due;
  double seg_start = 0;
  for (std::size_t k = 0; seg_start < seconds; ++k) {
    const RateSegment& seg = pattern[k % pattern.size()];
    const double seg_end = std::min(seconds, seg_start + seg.seconds);
    const auto n =
        static_cast<std::size_t>(std::llround(seg.jobs_per_s * (seg_end - seg_start)));
    const std::size_t first = due.size();
    for (std::size_t i = 0; i < n; ++i) {
      due.push_back(seg_start + rng.uniform() * (seg_end - seg_start));
    }
    std::sort(due.begin() + static_cast<std::ptrdiff_t>(first), due.end());
    seg_start = seg_end;
  }
  // Likewise the class mix and the gold share are exact (largest
  // remainder apportionment); the seed decides which arrival gets which.
  const std::size_t n = due.size();
  double total = 0;
  for (double w : class_weights) total += w;
  std::vector<int> classes;
  std::vector<std::pair<double, int>> remainders;
  for (std::size_t c = 0; c < class_weights.size(); ++c) {
    const double exact = static_cast<double>(n) * class_weights[c] / total;
    const auto whole = static_cast<std::size_t>(exact);
    classes.insert(classes.end(), whole, static_cast<int>(c));
    remainders.emplace_back(exact - static_cast<double>(whole), static_cast<int>(c));
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; classes.size() < n; ++i) classes.push_back(remainders[i].second);
  shuffle(classes, rng);
  std::vector<char> gold(n, 0);
  const auto golds = static_cast<std::size_t>(std::llround(gold_share * static_cast<double>(n)));
  for (std::size_t i = 0; i < golds && i < n; ++i) gold[i] = 1;
  shuffle(gold, rng);

  std::vector<Arrival> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = {due[i], classes[i], gold[i] != 0};
  return out;
}

}  // namespace perfbench
