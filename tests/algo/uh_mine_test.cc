#include <gtest/gtest.h>

#include "algo/uh_struct.h"
#include "gen/benchmark_datasets.h"
#include "testing/random_db.h"
#include "testing/registry_mine.h"

namespace ufim {
namespace {

using testing_util::MineWith;

TEST(UHMineTest, PaperExample1) {
  UncertainDatabase db = MakePaperTable1();
  ExpectedSupportParams params;
  params.min_esup = 0.5;
  auto result = MineWith("UH-Mine", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_NE(result->Find(Itemset({kItemA})), nullptr);
  EXPECT_NE(result->Find(Itemset({kItemC})), nullptr);
}

struct SweepCase {
  std::uint64_t seed;
  double min_esup;
  double presence;
};

class UHMinePropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(UHMinePropertyTest, MatchesBruteForce) {
  const SweepCase c = GetParam();
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = c.seed, .num_transactions = 14, .num_items = 7,
       .item_presence = c.presence});
  ExpectedSupportParams params;
  params.min_esup = c.min_esup;
  auto fast = MineWith("UH-Mine", FlatView(db), params);
  auto oracle = MineWith("BruteForceExpected", FlatView(db), params);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(fast->size(), oracle->size());
  for (const FrequentItemset& fi : oracle->itemsets()) {
    const FrequentItemset* hit = fast->Find(fi.itemset);
    ASSERT_NE(hit, nullptr) << "missing " << fi.itemset.ToString();
    EXPECT_NEAR(hit->expected_support, fi.expected_support, 1e-9);
    EXPECT_NEAR(hit->variance, fi.variance, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedAndThresholdSweep, UHMinePropertyTest,
    ::testing::Values(SweepCase{11, 0.1, 0.5}, SweepCase{12, 0.2, 0.5},
                      SweepCase{13, 0.3, 0.7}, SweepCase{14, 0.05, 0.3},
                      SweepCase{15, 0.5, 0.9}, SweepCase{16, 0.15, 0.6},
                      SweepCase{17, 0.25, 0.4}, SweepCase{18, 0.4, 0.8},
                      SweepCase{19, 0.08, 0.5}, SweepCase{20, 0.35, 0.95}));

TEST(UHStructEngineTest, KeepsOnlyPredicateAcceptedItems) {
  UncertainDatabase db = MakePaperTable1();
  UHStructEngine::Hooks hooks;
  hooks.is_frequent = [](double esup, double) { return esup >= 2.0; };
  UHStructEngine engine(FlatView(db), std::move(hooks));
  EXPECT_EQ(engine.num_frequent_items(), 2u);  // A (2.1) and C (2.6)
}

TEST(UHStructEngineTest, EmptyWhenNothingQualifies) {
  UncertainDatabase db = MakePaperTable1();
  UHStructEngine::Hooks hooks;
  hooks.is_frequent = [](double esup, double) { return esup >= 100.0; };
  UHStructEngine engine(FlatView(db), std::move(hooks));
  EXPECT_EQ(engine.num_frequent_items(), 0u);
  EXPECT_TRUE(engine.Mine(nullptr).empty());
}

TEST(UHMineTest, EmptyDatabase) {
  UncertainDatabase db;
  ExpectedSupportParams params;
  params.min_esup = 0.5;
  auto result = MineWith("UH-Mine", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(UHMineTest, SingleTransactionChain) {
  // One transaction, three certain items: every subset is frequent at
  // min_esup = 1.0 and must be enumerated exactly once.
  std::vector<Transaction> txns;
  txns.emplace_back(std::vector<ProbItem>{{0, 1.0}, {1, 1.0}, {2, 1.0}});
  UncertainDatabase db(std::move(txns));
  ExpectedSupportParams params;
  params.min_esup = 1.0;
  auto result = MineWith("UH-Mine", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 7u);  // 2^3 - 1
}

}  // namespace
}  // namespace ufim
