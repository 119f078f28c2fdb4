#include "prob/poisson_binomial.h"

#include <algorithm>
#include <bit>
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

// Computes the capped pmf of probs[lo, hi) into `out`: a leaf is
// {1 - p, p} ({1} when cap == 0), and an internal node convolves its
// halves' pmfs and caps the product. Every buffer is rewritten before it
// is read, so a tail's bits never depend on what the scratch held.
void DcRecurse(const std::vector<double>& probs, std::size_t lo,
               std::size_t hi, std::size_t cap, std::size_t fft_threshold,
               std::size_t depth, DcScratch& scratch,
               std::vector<double>& out) {
  if (hi - lo == 1) {
    const double p = probs[lo];
    if (cap == 0) {
      out.assign(1, 1.0);  // everything is >= 0 successes
    } else {
      out.assign({1.0 - p, p});
    }
    return;
  }
  DcScratch::Level& level = scratch.levels[depth];
  const std::size_t mid = lo + (hi - lo) / 2;
  DcRecurse(probs, lo, mid, cap, fft_threshold, depth + 1, scratch,
            level.left);
  DcRecurse(probs, mid, hi, cap, fft_threshold, depth + 1, scratch,
            level.right);
  CappedConvolveInto(level.left, level.right, cap, fft_threshold, scratch.fft,
                     out);
}

// Leaves the capped pmf of a non-empty `probs` in scratch.pmf.
void CappedPmfDC(const std::vector<double>& probs, std::size_t cap,
                 std::size_t fft_threshold, DcScratch& scratch) {
  // Internal nodes sit at depths [0, ceil(log2 n)); sized before the
  // recursion takes references into `levels`.
  const std::size_t depth = std::bit_width(probs.size() - 1);
  if (scratch.levels.size() < depth) scratch.levels.resize(depth);
  DcRecurse(probs, 0, probs.size(), cap, fft_threshold, 0, scratch,
            scratch.pmf);
}

}  // namespace

std::vector<double> PoissonBinomialCappedPmfDC(const std::vector<double>& probs,
                                               std::size_t cap,
                                               std::size_t fft_threshold) {
  if (probs.empty()) return {1.0};
  DcScratch scratch;
  CappedPmfDC(probs, cap, fft_threshold, scratch);
  return std::move(scratch.pmf);
}

double PoissonBinomialTailDC(const std::vector<double>& probs, std::size_t k,
                             std::size_t fft_threshold) {
  DcScratch scratch;
  return PoissonBinomialTailDC(probs, k, fft_threshold, scratch);
}

double PoissonBinomialTailDC(const std::vector<double>& probs, std::size_t k,
                             std::size_t fft_threshold, DcScratch& scratch) {
  if (k == 0) return 1.0;
  if (probs.size() < k) return 0.0;
  CappedPmfDC(probs, k, fft_threshold, scratch);
  // The pmf has min(n, k) + 1 = k + 1 bins because n >= k; the last one
  // holds Pr(S >= k).
  return scratch.pmf[k];
}

}  // namespace ufim
