#include "prob/poisson_binomial.h"

#include <algorithm>
#include <utility>

#include "common/math_util.h"
#include "prob/convolution.h"

namespace ufim {

SupportMoments ComputeSupportMoments(const std::vector<double>& probs) {
  KahanSum mean, var;
  for (double p : probs) {
    mean.Add(p);
    var.Add(p * (1.0 - p));
  }
  return SupportMoments{mean.value(), var.value()};
}

std::vector<double> PoissonBinomialCappedPmfDP(const std::vector<double>& probs,
                                               std::size_t cap) {
  const std::size_t top = std::min(cap, probs.size());
  if (top == 0) return {1.0};  // cap == 0 or no trials: all mass at "via >= 0"
  // Every bin is returned, so this keeps the full-band in-place update.
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

double PoissonBinomialTailDP(const std::vector<double>& probs, std::size_t k) {
  DpScratch scratch;
  return PoissonBinomialTailDP(probs, k, /*reject_threshold=*/-1.0, scratch);
}

// Two ping-pong rows of k + 1 bins: bin j < k holds Pr(exactly j
// successes so far); bin k holds Pr(>= k) when n > k (the capped overflow
// bin) and Pr(= k) when n == k.
//
// Only the live band is computed. After trial i, with r = n - i - 1
// trials left, a state j < k - r can never reach k, and bins above
// min(i + 1, k) are still empty. Bin j of the next row reads bins j and
// j - 1 of this one, both live whenever j is, so every live bin — and the
// tail — gets exactly the operations, in exactly the order, of the full
// [0, k] recurrence: the result is bit-identical, at O(n * min(k, n-k+1))
// cost. Reading one row and writing the other lets the compiler
// vectorize the inner loop; a one-row update must run backwards, and
// that loop does not vectorize.
double PoissonBinomialTailDP(const std::vector<double>& probs, std::size_t k,
                             double reject_threshold, DpScratch& scratch) {
  if (k == 0) return 1.0;
  const std::size_t n = probs.size();
  if (n < k) return 0.0;
  // Margin under the caller's threshold: a completed DP differs from the
  // true tail by accumulated rounding only, so certifying with this much
  // headroom guarantees the completed evaluation would also land <= the
  // threshold — early exit can never flip a frequent/infrequent decision.
  constexpr double kAbortSlack = 1e-7;
  const bool capped = n > k;
  // Bins the band has not reached yet must read as zero in both rows.
  scratch.pmf.assign(2 * (k + 1), 0.0);
  double* f = scratch.pmf.data();
  double* g = f + (k + 1);
  f[0] = 1.0;
  std::size_t hi = 0;  // highest bin with possibly-nonzero mass
  for (std::size_t i = 0; i < n; ++i) {
    const double p = probs[i];
    const double q = 1.0 - p;
    const std::size_t remaining = n - i - 1;
    const std::size_t lo = k > remaining ? k - remaining : 0;
    hi = std::min(hi + 1, k);
    std::size_t j = lo;
    if (j == 0) g[j++] = f[0] * q;
    // The overflow bin keeps its mass and absorbs promotions from k - 1.
    const std::size_t last = capped && hi == k ? k - 1 : hi;
    for (; j <= last; ++j) g[j] = f[j] * q + f[j - 1] * p;
    if (last < hi) g[k] = f[k] + f[k - 1] * p;
    std::swap(f, g);
    // Worlds gain at most one success per remaining trial, so the live
    // band's mass bounds Pr(S_n >= k) from above.
    if (reject_threshold >= 0.0 && (i & 63u) == 63u && lo > 0 && i + 1 < n) {
      double reachable = 0.0;
      for (std::size_t b = lo; b <= hi; ++b) reachable += f[b];
      if (reachable + kAbortSlack <= reject_threshold) return reachable;
    }
  }
  return f[k];
}

namespace {

std::vector<double> DcRecurse(const std::vector<double>& probs, std::size_t lo,
                              std::size_t hi, std::size_t cap,
                              std::size_t fft_threshold) {
  if (hi - lo == 1) {
    const double p = probs[lo];
    if (cap == 0) return {1.0};  // everything is >= 0 successes
    return {1.0 - p, p};
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  std::vector<double> left = DcRecurse(probs, lo, mid, cap, fft_threshold);
  std::vector<double> right = DcRecurse(probs, mid, hi, cap, fft_threshold);
  return CappedConvolve(left, right, cap, fft_threshold);
}

}  // namespace

std::vector<double> PoissonBinomialCappedPmfDC(const std::vector<double>& probs,
                                               std::size_t cap,
                                               std::size_t fft_threshold) {
  if (probs.empty()) return {1.0};
  return CapPmf(DcRecurse(probs, 0, probs.size(), cap, fft_threshold), cap);
}

double PoissonBinomialTailDC(const std::vector<double>& probs, std::size_t k,
                             std::size_t fft_threshold) {
  if (k == 0) return 1.0;
  if (probs.size() < k) return 0.0;
  const std::vector<double> pmf =
      PoissonBinomialCappedPmfDC(probs, k, fft_threshold);
  // pmf has length min(n, k) + 1 >= k because n >= k; the last bin holds
  // Pr(S >= k).
  return pmf.size() > k ? pmf[k] : pmf.back();
}

}  // namespace ufim
