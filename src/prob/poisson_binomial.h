#ifndef UFIM_PROB_POISSON_BINOMIAL_H_
#define UFIM_PROB_POISSON_BINOMIAL_H_

#include <cstddef>
#include <vector>

#include "prob/fft.h"

namespace ufim {

/// The support sup(X) of an itemset X over an uncertain database is a
/// Poisson-binomial random variable: a sum of independent Bernoulli trials
/// with success probabilities p_i = Pr(X ⊆ T_i). This header collects the
/// exact machinery over that distribution; `normal.h` and `poisson.h`
/// provide the two approximations the paper studies.

/// First two moments: mean = Σ p_i, variance = Σ p_i (1 - p_i).
/// Computing both costs the same O(n) — the property §1 of the paper
/// leans on to unify the two frequentness definitions.
struct SupportMoments {
  double mean = 0.0;
  double variance = 0.0;
};

SupportMoments ComputeSupportMoments(const std::vector<double>& probs);

/// Exact upper tail Pr(S >= k) by the dynamic program of Bernecker et al.
/// (§3.2.1). Only the live band of states is updated: after trial i a
/// state j < k - (n - i - 1) can no longer reach k, so the cost is
/// O(n * min(k, n - k + 1)) time and O(k) memory (two rows of k + 1
/// bins), with the same bits as the full O(n * k) recurrence. k == 0
/// returns 1; k > n returns 0.
double PoissonBinomialTailDP(const std::vector<double>& probs, std::size_t k);

/// Reusable workspace for the tail DP. Level-wise miners keep one per
/// worker thread so the two O(k) pmf rows (2 * (k + 1) doubles, both in
/// `pmf`) are allocated once and recycled across every candidate of every
/// level instead of per tail evaluation.
struct DpScratch {
  std::vector<double> pmf;
};

/// Tail DP over reusable scratch, with an optional certified early reject.
///
/// When `reject_threshold` >= 0 the partial pmf is periodically used to
/// bound the final tail from above: after i of n trials, every world with
/// S_n >= k must already have S_i >= k - (n - i), so
/// Pr(S_n >= k) <= sum_{j >= k - (n-i)} pmf_i[j]. Once that bound drops
/// far enough below `reject_threshold` (a 1e-7 safety margin absorbs
/// floating-point drift) the DP aborts and returns the bound — which is
/// itself <= reject_threshold, so callers comparing the result against the
/// threshold make the same infrequent/frequent decision a full evaluation
/// would. When the DP runs to completion the result is bit-identical to
/// PoissonBinomialTailDP(probs, k). reject_threshold < 0 disables the
/// early exit entirely (pure scratch reuse).
double PoissonBinomialTailDP(const std::vector<double>& probs, std::size_t k,
                             double reject_threshold, DpScratch& scratch);

/// Exact upper tail Pr(S >= k) by the divide-and-conquer convolution of
/// Sun et al. (§3.2.2): splits the trial list, recursively computes the
/// two tail-capped sub-pmfs, and conquers with (FFT) convolution —
/// O(n log n) when k is proportional to n. `fft_threshold` controls when
/// the conquer step switches from schoolbook to FFT multiplication.
/// Allocates its workspace per call; see the DcScratch overload.
double PoissonBinomialTailDC(const std::vector<double>& probs, std::size_t k,
                             std::size_t fft_threshold = 64);

/// Reusable workspace for the divide-and-conquer tail. The recursion
/// tree over n trials is ceil(log2 n) internal levels deep; a node at
/// depth d has its two halves write their capped pmfs into `levels[d]`
/// and conquers them into the buffer its parent passed it (`pmf` for the
/// root); the FFT conquer transforms in `fft`. A buffer holds a product before it
/// is capped, at most 2 * min(segment, k) + 1 doubles, so the retained
/// footprint is O(k * log n) doubles, plus O(k) complex values in `fft`
/// and in the calling thread's FFT twiddle table. Level-wise miners keep
/// one per worker thread. A tail allocates nothing once the scratch has
/// run one with at least as many trials and as large a k at the same
/// `fft_threshold`.
struct DcScratch {
  struct Level {
    std::vector<double> left;
    std::vector<double> right;
  };
  std::vector<Level> levels;
  std::vector<double> pmf;
  FftBuffers fft;
};

/// PoissonBinomialTailDC over reusable scratch: the same operations in
/// the same order, so the same bits.
double PoissonBinomialTailDC(const std::vector<double>& probs, std::size_t k,
                             std::size_t fft_threshold, DcScratch& scratch);

/// The full capped pmf as computed by the divide-and-conquer recursion
/// (exposed for tests and the micro-benchmarks).
std::vector<double> PoissonBinomialCappedPmfDC(const std::vector<double>& probs,
                                               std::size_t cap,
                                               std::size_t fft_threshold = 64);

}  // namespace ufim

#endif  // UFIM_PROB_POISSON_BINOMIAL_H_
