//===- t13bench/stats.h - Percentile rule and ratio math --------*- C++ -*-===//
//
// Sample statistics for the T13 benchmark. Percentiles use the nearest-
// rank rule; a percentile is reportable only when at least ten samples
// lie strictly beyond it, so a p99 needs 1000 samples (per window, for
// a windowed percentile).
//
//===----------------------------------------------------------------------===//

#ifndef T13BENCH_STATS_H
#define T13BENCH_STATS_H

#include <cstddef>
#include <vector>

namespace t13 {

/// Samples a reportable percentile must leave strictly beyond it.
constexpr size_t MinBeyond = 10;

/// A nearest-rank percentile with the sample count it came from.
struct Pct {
  double Value = 0;
  size_t Samples = 0;
  size_t Beyond = 0; ///< Samples ranked strictly above the percentile.
  bool reportable() const { return Samples > 0 && Beyond >= MinBeyond; }
};

/// Nearest-rank percentile \p Q in (0, 1]: the ceil(Q*N)-th smallest
/// sample. Empty input gives an all-zero result.
Pct percentile(std::vector<double> Samples, double Q);

/// Fewest samples for which percentile \p Q leaves MinBeyond beyond it.
size_t minSamplesFor(double Q);

/// Percentile \p Q of time-ordered \p Samples, taken in consecutive
/// windows of minSamplesFor(Q) samples (the last one takes the
/// remainder) and reported as the median over the windows, so a burst
/// of host noise moves one window rather than the result. Beyond is the
/// smallest count any window leaves. Under two windows' worth of
/// samples it is percentile().
Pct windowedPercentile(const std::vector<double> &Samples, double Q);

/// Median (lower middle for even counts, as nearest-rank p50).
double median(std::vector<double> Samples);

/// \p Num / \p Den, or 0 when the denominator is 0 (a layer that did no
/// work reports 0, never NaN).
double ratio(double Num, double Den);

/// Mean of a histogram in nanoseconds, converted to microseconds.
double meanUs(double SumNs, double Count);

} // namespace t13

#endif // T13BENCH_STATS_H
