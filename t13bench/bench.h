//===- t13bench/bench.h - T13 benchmark workloads and report ----*- C++ -*-===//
//
// The three workloads of the end-to-end Typecoin benchmark and the
// report each run produces. See README.md for what each metric means.
//
//===----------------------------------------------------------------------===//

#ifndef T13BENCH_BENCH_H
#define T13BENCH_BENCH_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace t13 {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Seconds-long toy sizes: runs every output check, skips the sample
  /// minimums (percentiles may be unreportable).
  bool Smoke = false;
};

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  size_t Samples = 0; ///< Observations behind the value (0 = derived).
};

struct Report {
  /// Output checks passed (tips, fingerprints, registrations).
  bool Correct = true;
  std::vector<std::string> Errors;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// Extra context as (key, JSON value) pairs: sizes, sample counts.
  std::vector<std::pair<std::string, std::string>> Context;

  void fail(std::string Why) {
    Correct = false;
    Errors.push_back(std::move(Why));
  }
};

Report runTransfer4(const Options &O);
Report runDeepLedger(const Options &O);
Report runCatchup(const Options &O);

/// Unit checks of the percentile rule and ratio math; returns failures.
int runSelftest();

} // namespace t13

#endif // T13BENCH_BENCH_H
