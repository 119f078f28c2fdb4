#include "prob/chernoff.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "common/rng.h"
#include "prob/poisson_binomial.h"

namespace ufim {
namespace {

TEST(ChernoffTest, InapplicableWhenThresholdBelowMean) {
  // msc <= mu + 1: delta <= 0, bound must be the vacuous 1.
  EXPECT_EQ(ChernoffUpperBound(10.0, 5), 1.0);
  EXPECT_EQ(ChernoffUpperBound(10.0, 11), 1.0);
}

TEST(ChernoffTest, ZeroMeanEdge) {
  EXPECT_EQ(ChernoffUpperBound(0.0, 0), 1.0);
  EXPECT_EQ(ChernoffUpperBound(0.0, 3), 0.0);
}

TEST(ChernoffTest, BoundShrinksWithThresholdWithinEachBranch) {
  // The lemma's piecewise bound is monotone within each branch but jumps
  // at the seam delta = 2e-1 (both pieces are valid upper bounds; the
  // 2^{-delta*mu} piece is looser near the seam). Test each branch.
  const double mu = 20.0;
  constexpr double kSeamDelta = 2.0 * 2.71828182845904523536 - 1.0;
  const std::size_t seam_msc = static_cast<std::size_t>(kSeamDelta * mu + mu + 1.0);
  double prev = 2.0;
  for (std::size_t msc = 25; msc < seam_msc; msc += 5) {
    const double b = ChernoffUpperBound(mu, msc);
    EXPECT_LE(b, prev) << "sub-exponential branch, msc=" << msc;
    EXPECT_LE(b, 1.0);
    prev = b;
  }
  prev = 2.0;
  for (std::size_t msc = seam_msc + 5; msc <= 400; msc += 25) {
    const double b = ChernoffUpperBound(mu, msc);
    EXPECT_LE(b, prev) << "exponential branch, msc=" << msc;
    prev = b;
  }
  EXPECT_LT(prev, 1e-6);
}

// Soundness: the bound must never fall below the exact tail, otherwise
// Chernoff pruning would drop truly frequent itemsets. Property-swept
// over random Poisson-binomial instances.
//
// gtest names each case by the raw bytes of its parameter, so the four
// bytes between `seed` and `n` are an explicit field rather than
// uninitialised padding: left as padding they held whatever the
// allocator last put there, and the case names changed with unrelated
// code. `name_bytes` pins them to the values the case names carry; the
// test itself never reads it.
struct ChernoffSoundnessCase {
  unsigned seed;
  std::uint32_t name_bytes;
  std::size_t n;
};

class ChernoffSoundnessTest
    : public ::testing::TestWithParam<ChernoffSoundnessCase> {};

TEST_P(ChernoffSoundnessTest, BoundDominatesExactTail) {
  const ChernoffSoundnessCase c = GetParam();
  Rng rng(c.seed);
  std::vector<double> probs(c.n);
  for (double& p : probs) p = rng.Uniform01();
  SupportMoments m = ComputeSupportMoments(probs);
  for (std::size_t msc = 1; msc <= c.n; msc += std::max<std::size_t>(1, c.n / 17)) {
    const double exact = PoissonBinomialTailDP(probs, msc);
    const double bound = ChernoffUpperBound(m.mean, msc);
    EXPECT_GE(bound, exact - 1e-12)
        << "n=" << c.n << " msc=" << msc << " mean=" << m.mean;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, ChernoffSoundnessTest,
    ::testing::Values(ChernoffSoundnessCase{1, 0x002C3B03u, 5},
                      ChernoffSoundnessCase{2, 0xEFD00000u, 10},
                      ChernoffSoundnessCase{3, 0, 25},
                      ChernoffSoundnessCase{4, 0, 50},
                      ChernoffSoundnessCase{5, 0x00091E03u, 100},
                      ChernoffSoundnessCase{6, 0xCAD00000u, 250},
                      ChernoffSoundnessCase{7, 0, 500},
                      ChernoffSoundnessCase{8, 0, 1000}));

TEST(ChernoffCertifiesInfrequentTest, ConsistentWithBound) {
  // If certification fires, the exact tail is really <= pft.
  Rng rng(42);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 10 + rng.UniformInt(0, 90);
    std::vector<double> probs(n);
    for (double& p : probs) p = rng.Uniform01();
    SupportMoments m = ComputeSupportMoments(probs);
    const std::size_t msc = 1 + rng.UniformInt(0, n - 1);
    const double pft = rng.Uniform01() * 0.98;
    if (ChernoffCertifiesInfrequent(m.mean, msc, pft)) {
      EXPECT_LE(PoissonBinomialTailDP(probs, msc), pft + 1e-12)
          << "n=" << n << " msc=" << msc << " pft=" << pft;
    }
  }
}

}  // namespace
}  // namespace ufim
