#include <gtest/gtest.h>

#include "gen/benchmark_datasets.h"
#include "testing/random_db.h"
#include "testing/registry_mine.h"

namespace ufim {
namespace {

using testing_util::MineWith;

TEST(BruteForceExpectedTest, PaperExample1) {
  // min_esup = 0.5 over Table 1: exactly {A} (2.1) and {C} (2.6).
  UncertainDatabase db = MakePaperTable1();
  ExpectedSupportParams params;
  params.min_esup = 0.5;
  auto result = MineWith("BruteForceExpected", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  const FrequentItemset* a = result->Find(Itemset({kItemA}));
  const FrequentItemset* c = result->Find(Itemset({kItemC}));
  ASSERT_NE(a, nullptr);
  ASSERT_NE(c, nullptr);
  EXPECT_NEAR(a->expected_support, 2.1, 1e-12);
  EXPECT_NEAR(c->expected_support, 2.6, 1e-12);
}

TEST(BruteForceExpectedTest, LowerThresholdAdmitsPairs) {
  UncertainDatabase db = MakePaperTable1();
  ExpectedSupportParams params;
  params.min_esup = 0.25;  // absolute threshold 1.0
  auto result = MineWith("BruteForceExpected", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  // {A,C} has esup 1.84 >= 1.0 and must appear.
  const FrequentItemset* ac = result->Find(Itemset({kItemA, kItemC}));
  ASSERT_NE(ac, nullptr);
  EXPECT_NEAR(ac->expected_support, 1.84, 1e-12);
  // Every reported itemset respects the threshold.
  for (const FrequentItemset& fi : result->itemsets()) {
    EXPECT_GE(fi.expected_support, 1.0 - 1e-12);
  }
}

TEST(BruteForceExpectedTest, VarianceIsSumOfBernoulliVariances) {
  UncertainDatabase db = MakePaperTable1();
  ExpectedSupportParams params;
  params.min_esup = 0.5;
  auto result = MineWith("BruteForceExpected", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  const FrequentItemset* a = result->Find(Itemset({kItemA}));
  ASSERT_NE(a, nullptr);
  // Var = 0.8*0.2 + 0.8*0.2 + 0.5*0.5 = 0.57.
  EXPECT_NEAR(a->variance, 0.57, 1e-12);
}

TEST(BruteForceProbabilisticTest, PaperExample2) {
  // min_sup = 0.5, pft = 0.7: {A} is probabilistic frequent
  // (Pr(sup >= 2) = 0.8 with the corrected Table 2 numbers).
  UncertainDatabase db = MakePaperTable1();
  ProbabilisticParams params;
  params.min_sup = 0.5;
  params.pft = 0.7;
  auto result = MineWith("BruteForceProbabilistic", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  const FrequentItemset* a = result->Find(Itemset({kItemA}));
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->frequent_probability.has_value());
  EXPECT_NEAR(*a->frequent_probability, 0.8, 1e-12);
}

TEST(BruteForceProbabilisticTest, ThresholdIsStrict) {
  // An itemset whose frequent probability equals pft exactly must be
  // excluded (Definition 4 uses strict >).
  std::vector<Transaction> txns;
  txns.emplace_back(std::vector<ProbItem>{{0, 0.5}});
  txns.emplace_back(std::vector<ProbItem>{{0, 1.0}});
  UncertainDatabase db(std::move(txns));
  ProbabilisticParams params;
  params.min_sup = 1.0;  // msc = 2
  params.pft = 0.5;      // Pr(sup >= 2) = 0.5 exactly
  auto result = MineWith("BruteForceProbabilistic", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Find(Itemset({0})), nullptr);
  params.pft = 0.49;
  result = MineWith("BruteForceProbabilistic", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->Find(Itemset({0})), nullptr);
}

TEST(BruteForceTest, EmptyDatabaseYieldsNothing) {
  UncertainDatabase db;
  ExpectedSupportParams ep;
  ep.min_esup = 0.5;
  auto er = MineWith("BruteForceExpected", FlatView(db), ep);
  ASSERT_TRUE(er.ok());
  EXPECT_TRUE(er->empty());
  ProbabilisticParams pp;
  auto pr = MineWith("BruteForceProbabilistic", FlatView(db), pp);
  ASSERT_TRUE(pr.ok());
  EXPECT_TRUE(pr->empty());
}

TEST(BruteForceTest, RejectsInvalidParams) {
  UncertainDatabase db = MakePaperTable1();
  ExpectedSupportParams bad;
  bad.min_esup = -1.0;
  EXPECT_FALSE(MineWith("BruteForceExpected", FlatView(db), bad).ok());
  ProbabilisticParams badp;
  badp.pft = 1.5;
  EXPECT_FALSE(MineWith("BruteForceProbabilistic", FlatView(db), badp).ok());
}

TEST(BruteForceProbabilisticTest, ResultsRespectDownwardClosure) {
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = 21, .num_transactions = 10, .num_items = 6});
  ProbabilisticParams params;
  params.min_sup = 0.3;
  params.pft = 0.5;
  auto result = MineWith("BruteForceProbabilistic", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  for (const FrequentItemset& fi : result->itemsets()) {
    for (const Itemset& sub : fi.itemset.AllSubsetsMissingOne()) {
      if (sub.empty()) continue;
      EXPECT_NE(result->Find(sub), nullptr)
          << fi.itemset.ToString() << " present but subset " << sub.ToString()
          << " missing";
    }
  }
}

}  // namespace
}  // namespace ufim
