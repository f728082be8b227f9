// Self-test of the benchmark's sample arithmetic (sampling.hpp) against
// hand-computed values.  Exits 1 on the first mismatch; run.py runs it
// before every benchmark run, ctest runs it as perfbench_selftest.

#include <cmath>
#include <cstdio>
#include <vector>

#include "sampling.hpp"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "selftest FAIL %s: got %.17g, want %.17g\n", what,
                 got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench;

  // Quantiles over {10, 20, 30, 40}: position q * 3.
  const std::vector<double> four = {40, 10, 30, 20};
  expect_near("p0", quantile(four, 0.0), 10.0);
  expect_near("p50 of 4 (between 20 and 30)", quantile(four, 0.5), 25.0);
  expect_near("p25 of 4 (0.75 of the way 10->20)", quantile(four, 0.25), 17.5);
  expect_near("p100", quantile(four, 1.0), 40.0);
  expect_near("p99 of 4 (2.97 -> 30 + 0.97 * 10)", quantile(four, 0.99),
              39.7);
  expect_near("median of odd count", median({5, 1, 3}), 3.0);
  expect_near("empty quantile", quantile({}, 0.5), 0.0);
  expect_near("single sample", quantile({7.5}, 0.99), 7.5);

  // Sub-unit samples keep their values (the obs::Histogram failure mode:
  // everything in (0, 1] landing in one bucket).
  const std::vector<double> tiny = {0.01, 0.02, 0.03, 0.04, 0.05};
  expect_near("sub-unit p50", quantile(tiny, 0.5), 0.03);
  expect_near("sub-unit p99 (3.96 -> 0.04 + 0.96 * 0.01)", quantile(tiny, 0.99),
              0.0496);

  // p99 of 1..1000: position 0.99 * 999 = 989.01 -> 990 + 0.01.
  std::vector<double> ramp;
  for (int i = 1; i <= 1000; ++i) ramp.push_back(i);
  expect_near("p99 of 1..1000", quantile(ramp, 0.99), 990.01);
  expect_near("p50 of 1..1000", quantile(ramp, 0.5), 500.5);

  expect_near("mean", mean(four), 25.0);

  // Figure 4 arithmetic: 2^20 doubles (8388608 bytes) in 10 ms.
  expect_near("mb_per_s 8 MiB / 10 ms", mb_per_s(8388608.0, 0.010),
              838.8608);
  expect_near("mb_per_s 128 B / 100 us", mb_per_s(128.0, 100e-6), 1.28);
  expect_near("mb_per_s zero time", mb_per_s(1.0, 0.0), 0.0);

  expect_near("ratio", ratio(12.0, 4.0), 3.0);
  expect_near("ratio over zero", ratio(12.0, 0.0), 0.0);

  // Window mean: 4 samples of mean 10 (sum 40), then 6 samples of mean 20
  // (sum 120) -> the 2 added samples sum to 80 -> 40.
  expect_near("window_mean", window_mean(4, 10.0, 6, 20.0), 40.0);
  expect_near("window_mean empty", window_mean(6, 20.0, 6, 20.0), 0.0);

  const auto merged = max_over_ranks({{1, 5, 3}, {4, 2, 3}});
  expect_near("max_over_ranks[0]", merged.at(0), 4.0);
  expect_near("max_over_ranks[1]", merged.at(1), 5.0);
  expect_near("max_over_ranks[2]", merged.at(2), 3.0);

  if (failures != 0) return 1;
  std::printf("perfbench selftest: ok\n");
  return 0;
}
