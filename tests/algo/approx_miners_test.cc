#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "testing/random_db.h"
#include "testing/registry_mine.h"

namespace ufim {
namespace {

using testing_util::MineWith;

// A mid-size database in the CLT regime (N large enough for the Normal /
// Poisson approximations to be accurate, small enough for exact DC).
UncertainDatabase CltDatabase(std::uint64_t seed) {
  DeterministicDatabase det = MakeGazelleLike(3000, seed);
  return AssignGaussianProbabilities(det, 0.8, 0.05, seed + 1);
}

TEST(NDUAprioriTest, AnnotatesFrequentProbability) {
  UncertainDatabase db = MakePaperTable1();
  ProbabilisticParams params;
  params.min_sup = 0.5;
  params.pft = 0.5;
  auto result = MineWith("NDUApriori", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  for (const FrequentItemset& fi : result->itemsets()) {
    ASSERT_TRUE(fi.frequent_probability.has_value());
    EXPECT_GT(*fi.frequent_probability, params.pft);
  }
}

TEST(PDUAprioriTest, DoesNotAnnotateFrequentProbability) {
  // Faithful to §3.3.1: PDUApriori "cannot return the frequent
  // probability values".
  UncertainDatabase db = CltDatabase(7);
  ProbabilisticParams params;
  params.min_sup = 0.02;
  params.pft = 0.9;
  auto result = MineWith("PDUApriori", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->size(), 0u);
  for (const FrequentItemset& fi : result->itemsets()) {
    EXPECT_FALSE(fi.frequent_probability.has_value());
  }
}

struct AccuracyCase {
  std::uint64_t seed;
  double min_sup;
  double pft;
};

class ApproxAccuracyTest : public ::testing::TestWithParam<AccuracyCase> {};

// Tables 8/9 in miniature: in the CLT regime every approximate miner must
// reach precision and recall near 1 against exact DC.
TEST_P(ApproxAccuracyTest, HighPrecisionAndRecallAgainstExact) {
  const AccuracyCase c = GetParam();
  UncertainDatabase db = CltDatabase(c.seed);
  ProbabilisticParams params;
  params.min_sup = c.min_sup;
  params.pft = c.pft;
  auto exact = MineWith("DCB", FlatView(db), params);
  ASSERT_TRUE(exact.ok());
  ASSERT_GT(exact->size(), 0u) << "exact result empty: weak test";

  auto ndu = MineWith("NDUApriori", FlatView(db), params);
  auto nduh = MineWith("NDUH-Mine", FlatView(db), params);
  auto pdu = MineWith("PDUApriori", FlatView(db), params);
  ASSERT_TRUE(ndu.ok());
  ASSERT_TRUE(nduh.ok());
  ASSERT_TRUE(pdu.ok());

  PrecisionRecall pr_ndu = ComputePrecisionRecall(*ndu, *exact);
  PrecisionRecall pr_nduh = ComputePrecisionRecall(*nduh, *exact);
  PrecisionRecall pr_pdu = ComputePrecisionRecall(*pdu, *exact);
  EXPECT_GE(pr_ndu.precision, 0.95);
  EXPECT_GE(pr_ndu.recall, 0.95);
  EXPECT_GE(pr_nduh.precision, 0.95);
  EXPECT_GE(pr_nduh.recall, 0.95);
  // The Poisson approximation is cruder: with high unit probabilities
  // (mean 0.8) the Le Cam small-p assumption is violated and Poisson
  // overstates the variance, so borderline itemsets are missed — exactly
  // the effect behind the paper's "Normal beats Poisson" conclusion.
  EXPECT_GE(pr_pdu.precision, 0.75);
  EXPECT_GE(pr_pdu.recall, 0.75);
}

INSTANTIATE_TEST_SUITE_P(CltSweep, ApproxAccuracyTest,
                         ::testing::Values(AccuracyCase{1, 0.02, 0.9},
                                           AccuracyCase{2, 0.03, 0.9},
                                           AccuracyCase{3, 0.02, 0.5},
                                           AccuracyCase{4, 0.025, 0.7}));

TEST(NDUAprioriVsNDUHMineTest, SameResultsDifferentFrameworks) {
  // Both use the identical Normal test; the breadth-first and
  // depth-first frameworks must therefore return identical sets.
  UncertainDatabase db = CltDatabase(11);
  ProbabilisticParams params;
  params.min_sup = 0.02;
  params.pft = 0.9;
  auto ndu = MineWith("NDUApriori", FlatView(db), params);
  auto nduh = MineWith("NDUH-Mine", FlatView(db), params);
  ASSERT_TRUE(ndu.ok());
  ASSERT_TRUE(nduh.ok());
  ASSERT_EQ(ndu->size(), nduh->size());
  for (const FrequentItemset& fi : ndu->itemsets()) {
    const FrequentItemset* hit = nduh->Find(fi.itemset);
    ASSERT_NE(hit, nullptr) << "missing " << fi.itemset.ToString();
    EXPECT_NEAR(hit->expected_support, fi.expected_support, 1e-6);
    ASSERT_TRUE(hit->frequent_probability.has_value());
    EXPECT_NEAR(*hit->frequent_probability, *fi.frequent_probability, 1e-9);
  }
}

TEST(ApproxMinersTest, MetadataFlags) {
  for (const char* name : {"PDUApriori", "NDUApriori", "NDUH-Mine"}) {
    std::unique_ptr<Miner> miner = MinerRegistry::Global().Create(name);
    ASSERT_NE(miner, nullptr) << name;
    EXPECT_FALSE(miner->is_exact()) << name;
    EXPECT_EQ(miner->name(), name);
  }
}

TEST(ApproxMinersTest, EmptyDatabase) {
  UncertainDatabase db;
  ProbabilisticParams params;
  for (const char* name : {"PDUApriori", "NDUApriori", "NDUH-Mine"}) {
    auto result = MineWith(name, FlatView(db), params);
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_TRUE(result->empty()) << name;
  }
}

TEST(ApproxMinersTest, RejectInvalidParams) {
  UncertainDatabase db = MakePaperTable1();
  ProbabilisticParams bad;
  bad.pft = -1.0;
  EXPECT_FALSE(MineWith("PDUApriori", FlatView(db), bad).ok());
  EXPECT_FALSE(MineWith("NDUApriori", FlatView(db), bad).ok());
  EXPECT_FALSE(MineWith("NDUH-Mine", FlatView(db), bad).ok());
}

}  // namespace
}  // namespace ufim
