// The paper's headline claim (§1, verified in §4.4): for large databases
// the two frequent-itemset definitions are bridged by the (esup, var)
// moments — an expected-support miner that also tracks variance solves
// the probabilistic problem via the Normal approximation.
#include <cmath>

#include <gtest/gtest.h>

#include "core/miner_registry.h"
#include "eval/metrics.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "prob/normal.h"
#include "prob/poisson_binomial.h"

namespace ufim {
namespace {

UncertainDatabase LargeSparse(std::uint64_t seed) {
  return AssignGaussianProbabilities(MakeGazelleLike(4000, seed), 0.8, 0.05,
                                     seed + 1);
}

TEST(DefinitionBridgeTest, MomentsFromMinersMatchDistributionMachinery) {
  // The variance every miner reports must equal the Poisson-binomial
  // variance of the containment-probability vector.
  UncertainDatabase db = MakePaperTable1();
  ExpectedSupportParams params;
  params.min_esup = 0.25;
  auto result =
      MinerRegistry::Global().Create("UH-Mine")->Mine(FlatView(db), params);
  ASSERT_TRUE(result.ok());
  for (const FrequentItemset& fi : result->itemsets()) {
    auto probs = db.ContainmentProbabilities(fi.itemset);
    SupportMoments m = ComputeSupportMoments(probs);
    EXPECT_NEAR(fi.expected_support, m.mean, 1e-9);
    EXPECT_NEAR(fi.variance, m.variance, 1e-9);
  }
}

TEST(DefinitionBridgeTest, NormalTestOverExpectedResultsEqualsNDUApriori) {
  // Mining expected-support-frequent itemsets at a low threshold and then
  // filtering with the Normal test reproduces NDUApriori exactly.
  UncertainDatabase db = LargeSparse(3);
  ProbabilisticParams pparams;
  pparams.min_sup = 0.02;
  pparams.pft = 0.9;
  const std::size_t msc = pparams.MinSupportCount(db.size());

  auto ndu = MinerRegistry::Global().Create("NDUApriori")
                 ->Mine(FlatView(db), pparams);
  ASSERT_TRUE(ndu.ok());

  ExpectedSupportParams eparams;
  eparams.min_esup = 0.005;  // low enough to cover all candidates
  auto expected = MinerRegistry::Global().Create("UH-Mine")
                      ->Mine(FlatView(db), eparams);
  ASSERT_TRUE(expected.ok());

  MiningResult bridged;
  for (const FrequentItemset& fi : expected->itemsets()) {
    if (NormalApproxFrequentProbability(fi.expected_support, fi.variance, msc) >
        pparams.pft) {
      bridged.Add(fi);
    }
  }
  PrecisionRecall pr = ComputePrecisionRecall(bridged, *ndu);
  EXPECT_EQ(pr.precision, 1.0);
  EXPECT_EQ(pr.recall, 1.0);
}

TEST(DefinitionBridgeTest, FrequentProbabilitiesSaturateOnLargeData) {
  // §4.5 finding: on large databases, the frequent probabilities of the
  // mined probabilistic frequent itemsets are almost all 1.
  UncertainDatabase db = LargeSparse(4);
  ProbabilisticParams params;
  params.min_sup = 0.015;
  params.pft = 0.9;
  auto result = MinerRegistry::Global().Create("DCB")
                    ->Mine(FlatView(db), params);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->size(), 0u);
  std::size_t saturated = 0;
  for (const FrequentItemset& fi : result->itemsets()) {
    if (*fi.frequent_probability > 0.9999) ++saturated;
  }
  // "Most" saturate; the handful of borderline itemsets sit between pft
  // and 1, so the fraction is noisy on small result sets.
  EXPECT_GT(static_cast<double>(saturated) / result->size(), 0.6);
  EXPECT_GT(saturated, 0u);
}

TEST(DefinitionBridgeTest, VarianceNeverExceedsMean) {
  // Poisson-binomial: var = Σp(1-p) <= Σp = mean. Every miner's output
  // must satisfy it.
  UncertainDatabase db = LargeSparse(5);
  ExpectedSupportParams params;
  params.min_esup = 0.01;
  for (const std::string& algo : MinerRegistry::Global().NamesOf(
           TaskFamily::kExpectedSupport, /*production_only=*/true)) {
    auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), params);
    ASSERT_TRUE(result.ok());
    for (const FrequentItemset& fi : result->itemsets()) {
      EXPECT_LE(fi.variance, fi.expected_support + 1e-9) << algo;
      EXPECT_GE(fi.variance, -1e-9) << algo;
    }
  }
}

}  // namespace
}  // namespace ufim
