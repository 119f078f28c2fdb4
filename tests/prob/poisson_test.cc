#include "prob/poisson.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/math_util.h"

namespace ufim {
namespace {

// Direct Poisson pmf summation in log space, as an independent oracle.
double PoissonCdfBySummation(std::size_t k, double lambda) {
  double sum = 0.0;
  for (std::size_t i = 0; i <= k; ++i) {
    sum += std::exp(-lambda + static_cast<double>(i) * std::log(lambda) -
                    LogFactorial(static_cast<unsigned>(i)));
  }
  return sum;
}

TEST(RegularizedGammaTest, ComplementaryPair) {
  // Q(a, x) = 1 - P(a, x) has closed forms to pair P with: erfc(sqrt(x))
  // at a = 1/2, and the Poisson CDF Pr(Poisson(x) <= a - 1) at integer a.
  for (double x : {0.1, 1.0, 5.0, 20.0, 80.0}) {
    EXPECT_NEAR(RegularizedGammaP(0.5, x) + std::erfc(std::sqrt(x)), 1.0, 1e-12)
        << "a=0.5 x=" << x;
    for (std::size_t a : {1u, 3u, 10u, 50u}) {
      EXPECT_NEAR(RegularizedGammaP(static_cast<double>(a), x) +
                      PoissonCdfBySummation(a - 1, x),
                  1.0, 1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(RegularizedGammaTest, KnownValues) {
  // P(1, x) = 1 - exp(-x).
  for (double x : {0.5, 1.0, 2.0, 10.0}) {
    EXPECT_NEAR(RegularizedGammaP(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
  // P(a, 0) = 0.
  EXPECT_EQ(RegularizedGammaP(3.0, 0.0), 0.0);
}

TEST(PoissonCdfTest, MatchesDirectSummation) {
  // The CDF the library implies: Pr(X <= k) = 1 - Pr(X >= k + 1).
  for (double lambda : {0.5, 2.0, 7.5, 30.0}) {
    for (std::size_t k : {0u, 1u, 3u, 10u, 40u}) {
      EXPECT_NEAR(1.0 - PoissonTail(k + 1, lambda),
                  PoissonCdfBySummation(k, lambda), 1e-10)
          << "lambda=" << lambda << " k=" << k;
    }
  }
}

TEST(PoissonTailTest, ComplementsCdf) {
  for (double lambda : {1.0, 5.0, 20.0}) {
    for (std::size_t k = 1; k <= 30; k += 3) {
      EXPECT_NEAR(PoissonTail(k, lambda),
                  1.0 - PoissonCdfBySummation(k - 1, lambda), 1e-10);
    }
  }
}

TEST(PoissonTailTest, EdgeCases) {
  EXPECT_EQ(PoissonTail(0, 5.0), 1.0);
  EXPECT_EQ(PoissonTail(3, 0.0), 0.0);
}

TEST(PoissonTailTest, MonotoneIncreasingInLambda) {
  double prev = 0.0;
  for (double lambda = 0.5; lambda <= 40.0; lambda += 0.5) {
    const double t = PoissonTail(10, lambda);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(PoissonLambdaForTailTest, AchievesRequestedTail) {
  for (std::size_t msc : {1u, 5u, 50u, 500u}) {
    for (double pft : {0.1, 0.5, 0.9, 0.99}) {
      const double lambda = PoissonLambdaForTail(msc, pft);
      // Just above lambda* the tail exceeds pft; just below it does not.
      EXPECT_GT(PoissonTail(msc, lambda + 1e-6), pft)
          << "msc=" << msc << " pft=" << pft;
      EXPECT_LE(PoissonTail(msc, lambda - 1e-6), pft + 1e-9)
          << "msc=" << msc << " pft=" << pft;
    }
  }
}

TEST(PoissonLambdaForTailTest, LambdaGrowsWithPft) {
  const std::size_t msc = 20;
  double prev = 0.0;
  for (double pft : {0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    const double lambda = PoissonLambdaForTail(msc, pft);
    EXPECT_GT(lambda, prev);
    prev = lambda;
  }
}

}  // namespace
}  // namespace ufim
