// Numerical stress: the distribution machinery under extreme inputs —
// probability vectors at the edges of the unit interval, large trial
// counts, and far-tail evaluations. Failures here would surface as
// subtly wrong mining results rather than crashes, so the bounds are
// checked directly.
#include <numeric>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "prob/chernoff.h"
#include "prob/normal.h"
#include "prob/poisson.h"
#include "prob/poisson_binomial.h"
#include "testing/capped_pmf_dp.h"

namespace ufim {
namespace {

using testing_util::PoissonBinomialCappedPmfDP;

TEST(PoissonBinomialStressTest, AllProbabilitiesTiny) {
  std::vector<double> probs(5000, 1e-9);
  // Mean 5e-6: Pr(S >= 1) ~ 5e-6, Pr(S >= 2) negligible.
  const double t1 = PoissonBinomialTailDP(probs, 1);
  EXPECT_NEAR(t1, 5e-6, 1e-8);
  EXPECT_LT(PoissonBinomialTailDP(probs, 2), 1e-9);
  EXPECT_NEAR(PoissonBinomialTailDC(probs, 1), t1, 1e-12);
}

TEST(PoissonBinomialStressTest, AllProbabilitiesNearOne) {
  std::vector<double> probs(2000, 1.0 - 1e-9);
  EXPECT_NEAR(PoissonBinomialTailDP(probs, 2000), 1.0, 1e-5);
  EXPECT_NEAR(PoissonBinomialTailDP(probs, 1000), 1.0, 1e-12);
  EXPECT_NEAR(PoissonBinomialTailDC(probs, 1999), 1.0, 1e-5);
}

TEST(PoissonBinomialStressTest, MixedExtremes) {
  // Half certain, half impossible-ish: S ≈ 1000 deterministic.
  std::vector<double> probs;
  for (int i = 0; i < 1000; ++i) probs.push_back(1.0 - 1e-12);
  for (int i = 0; i < 1000; ++i) probs.push_back(1e-12);
  EXPECT_NEAR(PoissonBinomialTailDP(probs, 1000), 1.0, 1e-8);
  EXPECT_LT(PoissonBinomialTailDP(probs, 1002), 1e-8);
  EXPECT_NEAR(PoissonBinomialTailDC(probs, 1000), 1.0, 1e-8);
}

TEST(PoissonBinomialStressTest, PmfStaysNormalizedAtScale) {
  Rng rng(77);
  std::vector<double> probs(20000);
  for (double& p : probs) p = rng.Uniform01();
  auto pmf = PoissonBinomialCappedPmfDP(probs, 12000);
  const double sum = std::accumulate(pmf.begin(), pmf.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-8);
  for (double v : pmf) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0 + 1e-12);
  }
}

TEST(PoissonBinomialStressTest, DpAndDcAgreeOnAdversarialShapes) {
  // Bimodal probability vectors are the hardest for capped convolution.
  Rng rng(78);
  std::vector<double> probs;
  for (int i = 0; i < 500; ++i) probs.push_back(rng.Uniform(0.9, 1.0));
  for (int i = 0; i < 500; ++i) probs.push_back(rng.Uniform(0.0, 0.1));
  for (std::size_t k : {400u, 500u, 550u, 600u}) {
    EXPECT_NEAR(PoissonBinomialTailDP(probs, k), PoissonBinomialTailDC(probs, k),
                1e-8)
        << "k=" << k;
  }
}

TEST(NormalStressTest, CdfExtremeArguments) {
  EXPECT_EQ(StdNormalCdf(-40.0), 0.0);
  EXPECT_EQ(StdNormalCdf(40.0), 1.0);
  EXPECT_GT(StdNormalCdf(-8.0), 0.0);
  EXPECT_LT(StdNormalCdf(-8.0), 1e-14);
}

TEST(PoissonStressTest, LargeLambdaLargeK) {
  // Around the mean of Poisson(1e5) the tail is ~0.5.
  EXPECT_NEAR(PoissonTail(100000, 1e5), 0.5, 0.01);
  // Ten sigma out: essentially 0 / 1.
  EXPECT_LT(PoissonTail(103200, 1e5), 1e-10);
  EXPECT_GT(PoissonTail(96800, 1e5), 1.0 - 1e-10);
}

TEST(PoissonStressTest, LambdaForTailExtremePft) {
  for (double pft : {1e-6, 1.0 - 1e-6}) {
    const double lambda = PoissonLambdaForTail(100, pft);
    EXPECT_GT(PoissonTail(100, lambda + 1e-6), pft);
  }
}

TEST(ChernoffStressTest, SoundOnExtremeVectors) {
  std::vector<double> probs(3000, 0.999);
  SupportMoments m = ComputeSupportMoments(probs);
  for (std::size_t msc : {2997u, 2999u, 3000u}) {
    EXPECT_GE(ChernoffUpperBound(m.mean, msc),
              PoissonBinomialTailDP(probs, msc) - 1e-12);
  }
}

TEST(MomentsStressTest, KahanKeepsPrecisionOverMillions) {
  // 4M tiny probabilities: naive summation drifts, Kahan must not.
  std::vector<double> probs(4'000'000, 1e-7);
  SupportMoments m = ComputeSupportMoments(probs);
  EXPECT_NEAR(m.mean, 0.4, 1e-9);
  EXPECT_NEAR(m.variance, 0.4 * (1.0 - 1e-7), 1e-9);
}

}  // namespace
}  // namespace ufim
