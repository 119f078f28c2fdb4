#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

std::size_t NearestRank(std::size_t n, double p) {
  // The epsilon keeps products like 99.9% of 10000 from rounding up a rank.
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(n)));
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t index = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

std::optional<TailPick> PickTail(const std::vector<double>& samples,
                                 std::size_t min_beyond) {
  for (double p : kTailLadder) {
    const std::size_t beyond = SamplesBeyond(samples.size(), p);
    if (beyond >= min_beyond) {
      return TailPick{p, Percentile(samples, p), beyond, samples.size()};
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
