#include "prob/normal.h"

#include <cmath>

#include <gtest/gtest.h>

namespace ufim {
namespace {

TEST(StdNormalCdfTest, KnownValues) {
  EXPECT_NEAR(StdNormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(StdNormalCdf(1.0), 0.8413447460685429, 1e-10);
  EXPECT_NEAR(StdNormalCdf(-1.0), 0.15865525393145707, 1e-10);
  EXPECT_NEAR(StdNormalCdf(1.959963984540054), 0.975, 1e-9);
  EXPECT_NEAR(StdNormalCdf(-3.0), 0.0013498980316300933, 1e-12);
}

TEST(StdNormalCdfTest, MonotoneAndSymmetric) {
  double prev = -1.0;
  for (double x = -5.0; x <= 5.0; x += 0.25) {
    double v = StdNormalCdf(x);
    EXPECT_GT(v, prev);
    EXPECT_NEAR(StdNormalCdf(-x), 1.0 - v, 1e-12);
    prev = v;
  }
}

TEST(NormalApproxFrequentProbabilityTest, CenteredCaseIsHalf) {
  // esup exactly at the continuity-corrected threshold: probability 1/2.
  EXPECT_NEAR(NormalApproxFrequentProbability(9.5, 4.0, 10), 0.5, 1e-12);
}

TEST(NormalApproxFrequentProbabilityTest, OrientationIsFrequent) {
  // esup far above threshold -> probability near 1 (this pins down the
  // fixed orientation of the paper's Φ formula; see DESIGN.md).
  EXPECT_GT(NormalApproxFrequentProbability(100.0, 25.0, 10), 0.999999);
  // esup far below threshold -> near 0.
  EXPECT_LT(NormalApproxFrequentProbability(1.0, 25.0, 100), 1e-6);
}

TEST(NormalApproxFrequentProbabilityTest, DegenerateVarianceIsStep) {
  EXPECT_EQ(NormalApproxFrequentProbability(10.0, 0.0, 10), 1.0);
  EXPECT_EQ(NormalApproxFrequentProbability(9.0, 0.0, 10), 0.0);
  EXPECT_EQ(NormalApproxFrequentProbability(9.5, 0.0, 10), 1.0);
}

TEST(NormalApproxFrequentProbabilityTest, MonotoneInEsup) {
  double prev = 0.0;
  for (double esup = 0.0; esup <= 20.0; esup += 0.5) {
    double v = NormalApproxFrequentProbability(esup, 5.0, 10);
    EXPECT_GE(v, prev);
    prev = v;
  }
}

}  // namespace
}  // namespace ufim
