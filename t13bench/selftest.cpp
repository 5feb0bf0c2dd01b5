//===- t13bench/selftest.cpp - Unit checks of the statistics --------------===//
//
// `t13bench --selftest`: the percentile rule (nearest rank, at least ten
// samples strictly beyond a reportable percentile) and the ratio math
// the per-layer metrics use.
//
//===----------------------------------------------------------------------===//

#include "bench.h"
#include "stats.h"

#include <cmath>
#include <cstdio>

namespace t13 {

namespace {

int Failures = 0;

void expect(bool Ok, const char *What) {
  if (!Ok) {
    ++Failures;
    std::printf("selftest FAILED: %s\n", What);
  }
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-9; }

std::vector<double> oneTo(size_t N) {
  std::vector<double> V;
  for (size_t I = N; I >= 1; --I) // Descending: percentile must sort.
    V.push_back(static_cast<double>(I));
  return V;
}

} // namespace

int runSelftest() {
  Failures = 0;

  // Nearest rank: p50 of 1..100 is 50, p99 is 99, p100 is 100.
  expect(near(percentile(oneTo(100), 0.50).Value, 50), "p50 of 1..100");
  expect(near(percentile(oneTo(100), 0.99).Value, 99), "p99 of 1..100");
  expect(near(percentile(oneTo(100), 1.0).Value, 100), "p100 of 1..100");
  expect(near(percentile(oneTo(1), 0.99).Value, 1), "p99 of one sample");
  expect(percentile({}, 0.5).Samples == 0 && !percentile({}, 0.5).reportable(),
         "empty input is unreportable");
  expect(near(median({3, 1, 2}), 2), "median of three");
  expect(near(median({4, 1, 3, 2}), 2), "median of four is the lower middle");

  // The ten-beyond rule: a p99 needs 1000 samples, a p50 needs 20.
  expect(minSamplesFor(0.99) == 1000, "p99 needs 1000 samples");
  expect(minSamplesFor(0.50) == 20, "p50 needs 20 samples");
  expect(!percentile(oneTo(999), 0.99).reportable(), "p99 of 999 refused");
  expect(percentile(oneTo(999), 0.99).Beyond == 9, "999 samples leave 9");
  expect(percentile(oneTo(1000), 0.99).reportable(), "p99 of 1000 accepted");
  expect(percentile(oneTo(1000), 0.99).Beyond == 10, "1000 samples leave 10");
  expect(percentile(oneTo(20), 0.50).reportable(), "p50 of 20 accepted");
  expect(!percentile(oneTo(19), 0.50).reportable(), "p50 of 19 refused");
  // Floating-point guard: 0.99 * 1000 must rank 990, not 991.
  expect(near(percentile(oneTo(1000), 0.99).Value, 990), "rank of p99/1000");

  // Windowed p99: windows of 1000, the last takes the remainder, the
  // median over windows is reported.
  std::vector<double> Bursty;
  for (int W = 0; W < 3; ++W)
    for (size_t I = 1; I <= 1000; ++I)
      Bursty.push_back(W == 1 ? 1000.0 * I : static_cast<double>(I));
  Pct Wp = windowedPercentile(Bursty, 0.99);
  expect(near(Wp.Value, 990), "windowed p99 ignores one bursty window");
  expect(Wp.Samples == 3000 && Wp.Beyond == 10, "windowed p99 counts");
  expect(near(percentile(Bursty, 0.99).Value, 970000),
         "pooled p99 follows the burst");
  std::vector<double> Ragged = oneTo(2500);
  expect(windowedPercentile(Ragged, 0.99).Beyond == 10,
         "last window takes the remainder");
  expect(near(windowedPercentile(oneTo(1999), 0.99).Value,
              percentile(oneTo(1999), 0.99).Value),
         "under two windows is the pooled percentile");

  // Ratio math.
  expect(near(ratio(3, 4), 0.75), "ratio");
  expect(ratio(5, 0) == 0, "ratio over zero is 0");
  expect(near(meanUs(3000, 2), 1.5), "histogram mean in us");
  expect(meanUs(100, 0) == 0, "empty histogram mean is 0");
  return Failures;
}

} // namespace t13
