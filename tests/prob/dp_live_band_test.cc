// The tail DP updates only the live band of states and ping-pongs between
// two rows. These properties pin it, bit for bit, to the full-band
// in-place recurrence it replaced, kept below as the oracle: same tails,
// same early-reject bounds, same frequent/infrequent decisions.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "prob/poisson_binomial.h"
#include "testing/mixed_probs.h"

namespace ufim {
namespace {

using testing_util::MixedProbs;

// The full-band DP: every bin of [0, top] is updated in place, backwards,
// for every trial, with the certified early reject every 64 trials.
bool FullBandTailDp(const std::vector<double>& probs, std::size_t top,
                    bool capped, double reject_threshold,
                    std::vector<double>& pmf, double* early_bound) {
  pmf.assign(top + 1, 0.0);
  pmf[0] = 1.0;
  std::size_t filled = 0;
  const std::size_t n = probs.size();
  constexpr double kAbortSlack = 1e-7;
  for (std::size_t i = 0; i < n; ++i) {
    const double p = probs[i];
    const std::size_t hi = std::min(filled + 1, top);
    for (std::size_t j = hi; j > 0; --j) {
      const bool overflow_bin = capped && j == top;
      if (overflow_bin) {
        pmf[j] = pmf[j] + pmf[j - 1] * p;
      } else {
        pmf[j] = pmf[j] * (1.0 - p) + pmf[j - 1] * p;
      }
    }
    pmf[0] *= (1.0 - p);
    filled = hi;
    if (reject_threshold >= 0.0 && (i & 63u) == 63u && i + 1 < n) {
      const std::size_t remaining = n - i - 1;
      if (remaining < top) {
        double reachable = 0.0;
        for (std::size_t j = top - remaining; j <= filled; ++j) {
          reachable += pmf[j];
        }
        if (reachable + kAbortSlack <= reject_threshold) {
          *early_bound = reachable;
          return true;
        }
      }
    }
  }
  return false;
}

double OracleTail(const std::vector<double>& probs, std::size_t k,
                  double reject_threshold) {
  if (k == 0) return 1.0;
  if (probs.size() < k) return 0.0;
  std::vector<double> pmf;
  double early_bound = 0.0;
  if (FullBandTailDp(probs, k, /*capped=*/probs.size() > k, reject_threshold,
                     pmf, &early_bound)) {
    return early_bound;
  }
  return pmf[k];
}

constexpr double kThresholds[] = {-1.0, 0.0, 0.5, 0.9, 0.999};

// Checks one (probs, k) case against the oracle at every threshold and
// returns how many of them aborted early.
int ExpectMatchesFullBand(const std::vector<double>& probs, std::size_t k,
                          DpScratch& scratch) {
  const double full = OracleTail(probs, k, -1.0);
  EXPECT_EQ(PoissonBinomialTailDP(probs, k), full)
      << "n=" << probs.size() << " k=" << k;
  int aborted = 0;
  for (double threshold : kThresholds) {
    const double tail = PoissonBinomialTailDP(probs, k, threshold, scratch);
    EXPECT_EQ(tail, OracleTail(probs, k, threshold))
        << "n=" << probs.size() << " k=" << k << " threshold=" << threshold;
    if (threshold < 0.0) continue;
    EXPECT_EQ(tail > threshold, full > threshold)
        << "n=" << probs.size() << " k=" << k << " threshold=" << threshold;
    if (tail != full) ++aborted;
  }
  return aborted;
}

TEST(LiveBandTailDpTest, SeededCasesMatchFullBandBitForBit) {
  Rng rng(2112);
  DpScratch scratch;  // shared across every k, so stale rows would show
  int aborted = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t n = 1 + rng.UniformInt(0, 399);
    const std::vector<double> probs = MixedProbs(rng, n);
    aborted += ExpectMatchesFullBand(probs, rng.UniformInt(0, n + 1), scratch);
  }
  // The early-reject path must actually be exercised.
  EXPECT_GT(aborted, 0);
}

TEST(LiveBandTailDpTest, BandEdgesMatchFullBandBitForBit) {
  Rng rng(2113);
  DpScratch scratch;
  int aborted = 0;
  for (std::size_t n : {1, 2, 3, 63, 64, 65, 127, 128, 129, 200, 257}) {
    const std::vector<double> probs = MixedProbs(rng, n);
    // k in {0, 1, n}, n == k + 1, and the midpoint.
    for (std::size_t k : {std::size_t{0}, std::size_t{1}, n - 1, n, n / 2}) {
      aborted += ExpectMatchesFullBand(probs, k, scratch);
    }
  }
  EXPECT_GT(aborted, 0);
}

TEST(LiveBandTailDpTest, DegenerateProbabilitiesMatchFullBand) {
  DpScratch scratch;
  for (double p : {0.0, 1.0}) {
    for (std::size_t n : {1, 64, 65, 150}) {
      const std::vector<double> probs(n, p);
      for (std::size_t k : {std::size_t{0}, std::size_t{1}, n / 2, n - 1, n,
                            n + 1}) {
        ExpectMatchesFullBand(probs, k, scratch);
      }
    }
  }
}

}  // namespace
}  // namespace ufim
