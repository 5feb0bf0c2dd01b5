//===- t13bench/stats.cpp - Percentile rule and ratio math ----------------===//

#include "stats.h"

#include <algorithm>
#include <cmath>

namespace t13 {

namespace {
size_t rankOf(size_t N, double Q) {
  // ceil(Q*N) with a guard against 0.99*1000 = 989.9999... in floating
  // point: round to 1e-9 first.
  double R = std::ceil(Q * static_cast<double>(N) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(R), 1, N);
}
} // namespace

Pct percentile(std::vector<double> Samples, double Q) {
  Pct P;
  P.Samples = Samples.size();
  if (Samples.empty())
    return P;
  size_t Rank = rankOf(Samples.size(), Q);
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  P.Value = Samples[Rank - 1];
  P.Beyond = Samples.size() - Rank;
  return P;
}

size_t minSamplesFor(double Q) {
  size_t N = MinBeyond;
  while (N - rankOf(N, Q) < MinBeyond)
    ++N;
  return N;
}

Pct windowedPercentile(const std::vector<double> &Samples, double Q) {
  size_t W = minSamplesFor(Q);
  size_t Windows = Samples.size() / W;
  if (Windows < 2)
    return percentile(Samples, Q);
  std::vector<double> Values;
  Pct Out;
  Out.Samples = Samples.size();
  Out.Beyond = Samples.size();
  for (size_t I = 0; I < Windows; ++I) {
    auto First = Samples.begin() + I * W;
    auto Last = I + 1 == Windows ? Samples.end() : First + W;
    Pct P = percentile(std::vector<double>(First, Last), Q);
    Values.push_back(P.Value);
    Out.Beyond = std::min(Out.Beyond, P.Beyond);
  }
  Out.Value = median(std::move(Values));
  return Out;
}

double median(std::vector<double> Samples) {
  return percentile(std::move(Samples), 0.5).Value;
}

double ratio(double Num, double Den) { return Den == 0 ? 0 : Num / Den; }

double meanUs(double SumNs, double Count) {
  return ratio(SumNs, Count) / 1000.0;
}

} // namespace t13
