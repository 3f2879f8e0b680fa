// Tests of the benchmark's own helpers: the seeded arrival generator and
// the percentile helper. (The completed + failed + shed == attempted
// invariant is checked inside every benchmark run.) Exits non-zero on
// the first failure.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "arrivals.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

template <typename Fn>
bool throws_too_few(Fn&& fn) {
  try {
    fn();
  } catch (const perfbench::TooFewSamples&) {
    return true;
  }
  return false;
}

void generator_is_seeded() {
  using perfbench::generate_arrivals;
  const std::vector<perfbench::RateSegment> pattern = {{1.0, 300}, {0.5, 50}};
  const std::vector<double> weights = {5, 1, 0.5};
  const auto a = generate_arrivals(42, 3.0, pattern, weights, 0.3);
  const auto b = generate_arrivals(42, 3.0, pattern, weights, 0.3);
  const auto c = generate_arrivals(43, 3.0, pattern, weights, 0.3);
  expect(a == b, "same seed gives identical arrivals");
  expect(!a.empty() && a != c, "another seed gives other arrivals");
  bool ordered = true;
  bool in_window = true;
  int gold = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].due_s < a[i - 1].due_s) ordered = false;
    if (a[i].due_s < 0 || a[i].due_s >= 3.0) in_window = false;
    gold += a[i].gold ? 1 : 0;
  }
  expect(ordered, "arrivals are in due order");
  expect(in_window, "arrivals lie inside the window");
  // Two pattern periods of 300 + 25 arrivals.
  expect(a.size() == 650 && c.size() == 650, "arrival count follows the rate pattern");
  expect(gold == 195, "gold share is exact");
  int per_class[3] = {0, 0, 0};
  for (const auto& x : a) ++per_class[x.job_class];
  expect(per_class[0] == 500 && per_class[1] == 100 && per_class[2] == 50,
         "class mix is apportioned by weight");
}

void percentile_refuses_thin_tails() {
  using perfbench::tail_percentile;
  std::vector<double> v;
  for (int i = 1; i <= 999; ++i) v.push_back(i);
  expect(throws_too_few([&] { (void)tail_percentile(v, 0.99); }),
         "p99 of 999 samples is refused (9 beyond it)");
  v.push_back(1000);
  expect(!throws_too_few([&] { (void)tail_percentile(v, 0.99); }), "p99 of 1000 samples works");
  expect(tail_percentile(v, 0.99) == 990, "p99 of 1..1000 is the 990th sample");
  expect(perfbench::samples_beyond(1000, 0.99) == 10, "10 samples lie beyond p99 of 1000");
  expect(throws_too_few([] { (void)perfbench::median({}); }), "median of nothing is refused");
  expect(perfbench::median({3, 1, 2}) == 2 && perfbench::median({4, 1, 2, 3}) == 2.5,
         "median of odd and even counts");
}

}  // namespace

int main() {
  generator_is_seeded();
  percentile_refuses_thin_tails();
  if (failures == 0) std::printf("perfbench self-tests passed\n");
  return failures == 0 ? 0 : 1;
}
