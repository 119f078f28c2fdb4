#include "prob/normal.h"

#include <cmath>

namespace ufim {

double StdNormalCdf(double x) {
  // Φ(x) = erfc(-x / sqrt(2)) / 2; erfc avoids cancellation in the tails.
  return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

double NormalApproxFrequentProbability(double esup, double variance,
                                       std::size_t msc) {
  const double threshold = static_cast<double>(msc) - 0.5;
  if (variance <= 1e-12) {
    return esup >= threshold ? 1.0 : 0.0;
  }
  const double z = (threshold - esup) / std::sqrt(variance);
  return 1.0 - StdNormalCdf(z);
}

}  // namespace ufim
