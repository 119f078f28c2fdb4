#ifndef UFIM_TESTS_TESTING_CAPPED_PMF_DP_H_
#define UFIM_TESTS_TESTING_CAPPED_PMF_DP_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace ufim::testing_util {

/// Exact tail-capped Poisson-binomial pmf by the full-band dynamic
/// program of Bernecker et al. (§3.2.1): the result has length
/// min(n, cap) + 1; index j < cap is Pr(S = j) and the last index (== cap
/// when n >= cap) is Pr(S >= cap). Every bin is kept, so every bin of
/// [0, min(n, cap)] is updated in place for every trial: O(n * min(n,
/// cap)) time. The miners run only the live-band tail DP; this is the
/// reference the DC pmf, the possible-worlds oracle and the stress tests
/// are checked against.
inline std::vector<double> PoissonBinomialCappedPmfDP(
    const std::vector<double>& probs, std::size_t cap) {
  const std::size_t top = std::min(cap, probs.size());
  if (top == 0) return {1.0};  // cap == 0 or no trials: all mass at ">= 0"
  const bool capped = probs.size() > cap;
  std::vector<double> pmf(top + 1, 0.0);
  pmf[0] = 1.0;
  std::size_t filled = 0;  // highest index with possibly-nonzero mass
  for (double p : probs) {
    const std::size_t hi = std::min(filled + 1, top);
    for (std::size_t j = hi; j > 0; --j) {
      if (capped && j == top) {
        // Overflow keeps its mass and absorbs promotions from j-1.
        pmf[j] = pmf[j] + pmf[j - 1] * p;
      } else {
        pmf[j] = pmf[j] * (1.0 - p) + pmf[j - 1] * p;
      }
    }
    pmf[0] *= (1.0 - p);
    filled = hi;
  }
  return pmf;
}

}  // namespace ufim::testing_util

#endif  // UFIM_TESTS_TESTING_CAPPED_PMF_DP_H_
