#include "prob/poisson_binomial.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "prob/normal.h"
#include "prob/poisson.h"
#include "testing/capped_pmf_dp.h"

namespace ufim {
namespace {

using testing_util::PoissonBinomialCappedPmfDP;

// Exhaustive possible-world oracle: enumerate all 2^n outcomes.
double TailByEnumeration(const std::vector<double>& probs, std::size_t k) {
  const std::size_t n = probs.size();
  double tail = 0.0;
  for (std::size_t mask = 0; mask < (1u << n); ++mask) {
    double p = 1.0;
    std::size_t successes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) {
        p *= probs[i];
        ++successes;
      } else {
        p *= 1.0 - probs[i];
      }
    }
    if (successes >= k) tail += p;
  }
  return tail;
}

TEST(SupportMomentsTest, MeanAndVariance) {
  SupportMoments m = ComputeSupportMoments({0.5, 0.5, 1.0});
  EXPECT_DOUBLE_EQ(m.mean, 2.0);
  EXPECT_DOUBLE_EQ(m.variance, 0.5);
  SupportMoments empty = ComputeSupportMoments({});
  EXPECT_EQ(empty.mean, 0.0);
  EXPECT_EQ(empty.variance, 0.0);
}

TEST(PoissonBinomialDPTest, MatchesEnumerationOracle) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.UniformInt(0, 11);
    std::vector<double> probs(n);
    for (double& p : probs) p = rng.Uniform01();
    for (std::size_t k = 0; k <= n + 1; ++k) {
      EXPECT_NEAR(PoissonBinomialTailDP(probs, k), TailByEnumeration(probs, k),
                  1e-10)
          << "trial=" << trial << " n=" << n << " k=" << k;
    }
  }
}

TEST(PoissonBinomialDCTest, MatchesDP) {
  Rng rng(6);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 1 + rng.UniformInt(0, 200);
    std::vector<double> probs(n);
    for (double& p : probs) p = rng.Uniform01();
    const std::size_t k = rng.UniformInt(0, n);
    EXPECT_NEAR(PoissonBinomialTailDC(probs, k),
                PoissonBinomialTailDP(probs, k), 1e-9)
        << "trial=" << trial << " n=" << n << " k=" << k;
  }
}

TEST(PoissonBinomialDCTest, FftAndNaiveConquerAgree) {
  Rng rng(7);
  std::vector<double> probs(300);
  for (double& p : probs) p = rng.Uniform01();
  const std::size_t k = 120;
  EXPECT_NEAR(PoissonBinomialTailDC(probs, k, /*fft_threshold=*/8),
              PoissonBinomialTailDC(probs, k, /*fft_threshold=*/1 << 20), 1e-9);
}

// Regression pin for the fft_threshold boundary: operand sizes exactly
// at, one below, and one above the threshold must all agree with the DP
// (the conquer step switches implementation at `fft_threshold` operand
// coefficients, and an off-by-one there would silently corrupt tails for
// vectors near the switch point).
TEST(PoissonBinomialDCTest, FftThresholdBoundaryPinned) {
  Rng rng(12);
  constexpr std::size_t kThreshold = 16;
  for (std::size_t n : {kThreshold - 1, kThreshold, kThreshold + 1,
                        2 * kThreshold - 1, 2 * kThreshold,
                        2 * kThreshold + 1}) {
    std::vector<double> probs(n);
    for (double& p : probs) p = rng.Uniform01();
    for (std::size_t k : {std::size_t{1}, n / 2, n}) {
      EXPECT_NEAR(PoissonBinomialTailDC(probs, k, kThreshold),
                  PoissonBinomialTailDP(probs, k), 1e-10)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(PoissonBinomialPmfTest, CappedPmfSumsToOne) {
  Rng rng(8);
  std::vector<double> probs(50);
  for (double& p : probs) p = rng.Uniform01();
  for (std::size_t cap : {0u, 1u, 10u, 25u, 50u, 60u}) {
    auto pmf = PoissonBinomialCappedPmfDP(probs, cap);
    double sum = std::accumulate(pmf.begin(), pmf.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-10) << "cap=" << cap;
    EXPECT_LE(pmf.size(), std::min<std::size_t>(cap, probs.size()) + 1);
  }
}

TEST(PoissonBinomialPmfTest, DPAndDCPmfsAgree) {
  Rng rng(9);
  std::vector<double> probs(80);
  for (double& p : probs) p = rng.Uniform01();
  const std::size_t cap = 30;
  auto dp = PoissonBinomialCappedPmfDP(probs, cap);
  auto dc = PoissonBinomialCappedPmfDC(probs, cap);
  ASSERT_EQ(dp.size(), dc.size());
  for (std::size_t i = 0; i < dp.size(); ++i) {
    EXPECT_NEAR(dp[i], dc[i], 1e-9) << "i=" << i;
  }
}

TEST(PoissonBinomialTest, EdgeCases) {
  EXPECT_EQ(PoissonBinomialTailDP({}, 0), 1.0);
  EXPECT_EQ(PoissonBinomialTailDP({}, 1), 0.0);
  EXPECT_EQ(PoissonBinomialTailDP({0.5}, 2), 0.0);  // k > n
  EXPECT_NEAR(PoissonBinomialTailDP({1.0, 1.0}, 2), 1.0, 1e-12);
  EXPECT_EQ(PoissonBinomialTailDC({}, 3), 0.0);
  EXPECT_EQ(PoissonBinomialTailDC({0.7}, 0), 1.0);
}

TEST(PoissonBinomialTest, DegenerateAllOnes) {
  std::vector<double> probs(10, 1.0);
  for (std::size_t k = 0; k <= 10; ++k) {
    EXPECT_NEAR(PoissonBinomialTailDP(probs, k), 1.0, 1e-12);
  }
  EXPECT_EQ(PoissonBinomialTailDP(probs, 11), 0.0);
}

// The paper's Example 2 / Table 2: sup(A) over the Table 1 database,
// where A's containment probabilities are {0.8, 0.8, 0.5}. The printed
// Table 2 values (0.1, 0.18, 0.4, 0.32) are internally inconsistent with
// Table 1 — the correct distribution is (0.02, 0.18, 0.48, 0.32), which
// still sums to 1 and still makes {A} probabilistic frequent at
// min_sup=0.5, pft=0.7 (Pr(sup>=2) = 0.8 > 0.7). Documented in DESIGN.md.
TEST(PoissonBinomialTest, PaperTable2Example) {
  const std::vector<double> a = {0.8, 0.8, 0.5};
  auto pmf = PoissonBinomialCappedPmfDP(a, 3);
  ASSERT_EQ(pmf.size(), 4u);
  EXPECT_NEAR(pmf[0], 0.02, 1e-12);
  EXPECT_NEAR(pmf[1], 0.18, 1e-12);
  EXPECT_NEAR(pmf[2], 0.48, 1e-12);
  EXPECT_NEAR(pmf[3], 0.32, 1e-12);
  EXPECT_NEAR(PoissonBinomialTailDP(a, 2), 0.8, 1e-12);
}

// CLT regime: for large n the Normal approximation with continuity
// correction lands close to the exact DP tail.
TEST(PoissonBinomialApproximationTest, NormalApproxConvergesForLargeN) {
  Rng rng(10);
  std::vector<double> probs(2000);
  for (double& p : probs) p = rng.Uniform(0.2, 0.9);
  SupportMoments m = ComputeSupportMoments(probs);
  for (double frac : {0.45, 0.5, 0.55, 0.6}) {
    const std::size_t k = static_cast<std::size_t>(m.mean * frac / 0.5);
    const double exact = PoissonBinomialTailDP(probs, k);
    const double approx = NormalApproxFrequentProbability(m.mean, m.variance, k);
    EXPECT_NEAR(approx, exact, 0.01) << "k=" << k;
  }
}

// Poisson approximation: good when probabilities are small (Le Cam).
TEST(PoissonBinomialApproximationTest, PoissonApproxGoodForSmallProbs) {
  Rng rng(11);
  std::vector<double> probs(3000);
  for (double& p : probs) p = rng.Uniform(0.0, 0.05);
  SupportMoments m = ComputeSupportMoments(probs);
  const std::size_t k = static_cast<std::size_t>(m.mean);
  const double exact = PoissonBinomialTailDP(probs, k);
  const double approx = PoissonTail(k, m.mean);
  EXPECT_NEAR(approx, exact, 0.02);
}

// Pmf over [0, len) of a surrogate given by its upper tail Pr(S >= j);
// the mass at or above len - 1 folds into the last bin, as in the
// capped pmf of the exact DP.
template <typename Tail>
std::vector<double> PmfFromTail(Tail tail, std::size_t len) {
  std::vector<double> pmf(len);
  pmf[0] = 1.0 - tail(1);
  for (std::size_t j = 1; j + 1 < len; ++j) pmf[j] = tail(j) - tail(j + 1);
  pmf[len - 1] = tail(len - 1);
  return pmf;
}

double TotalVariation(const std::vector<double>& a,
                      const std::vector<double>& b) {
  double sum = 0.0;
  for (std::size_t j = 0; j < a.size(); ++j) sum += std::fabs(a[j] - b[j]);
  return 0.5 * sum;
}

// The quantitative backbone of §4.4: on large Poisson-binomial
// instances, the Normal surrogate is much closer (in TV distance) to
// the true support distribution than the Poisson surrogate when unit
// probabilities are not small.
TEST(ApproximationQualityTest, NormalBeatsPoissonAtModerateProbs) {
  Rng rng(9);
  std::vector<double> probs(800);
  for (double& p : probs) p = rng.Uniform(0.3, 0.9);
  SupportMoments m = ComputeSupportMoments(probs);
  const std::size_t len = probs.size() + 1;
  const auto exact = PoissonBinomialCappedPmfDP(probs, probs.size());
  const double tv_normal = TotalVariation(
      exact, PmfFromTail(
                 [&](std::size_t j) {
                   return NormalApproxFrequentProbability(m.mean, m.variance,
                                                          j);
                 },
                 len));
  const double tv_poisson = TotalVariation(
      exact,
      PmfFromTail([&](std::size_t j) { return PoissonTail(j, m.mean); }, len));
  EXPECT_LT(tv_normal, 0.02);
  EXPECT_GT(tv_poisson, 5.0 * tv_normal);
}

TEST(ApproximationQualityTest, PoissonCompetitiveAtSmallProbs) {
  Rng rng(10);
  std::vector<double> probs(3000);
  for (double& p : probs) p = rng.Uniform(0.0, 0.04);
  SupportMoments m = ComputeSupportMoments(probs);
  const std::size_t len = 200;
  const auto exact = PoissonBinomialCappedPmfDP(probs, len - 1);
  const double tv_poisson = TotalVariation(
      exact,
      PmfFromTail([&](std::size_t j) { return PoissonTail(j, m.mean); }, len));
  EXPECT_LT(tv_poisson, 0.02);  // Le Cam regime: Poisson is accurate
}

}  // namespace
}  // namespace ufim
