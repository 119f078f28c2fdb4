#include <gtest/gtest.h>

#include "gen/benchmark_datasets.h"
#include "testing/random_db.h"
#include "testing/registry_mine.h"

namespace ufim {
namespace {

using testing_util::MineWith;

void ExpectSameResults(const MiningResult& got, const MiningResult& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const FrequentItemset& fi : want.itemsets()) {
    const FrequentItemset* hit = got.Find(fi.itemset);
    ASSERT_NE(hit, nullptr) << "missing " << fi.itemset.ToString();
    EXPECT_NEAR(hit->expected_support, fi.expected_support, 1e-9);
    EXPECT_NEAR(hit->variance, fi.variance, 1e-9);
  }
}

TEST(UAprioriTest, PaperExample1) {
  UncertainDatabase db = MakePaperTable1();
  ExpectedSupportParams params;
  params.min_esup = 0.5;
  auto result = MineWith("UApriori", FlatView(db), params);
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

class UAprioriPropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(UAprioriPropertyTest, MatchesBruteForce) {
  const SweepCase c = GetParam();
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = c.seed, .num_transactions = 14, .num_items = 7,
       .item_presence = c.presence});
  ExpectedSupportParams params;
  params.min_esup = c.min_esup;
  auto fast = MineWith("UApriori", FlatView(db), params);
  auto oracle = MineWith("BruteForceExpected", FlatView(db), params);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(oracle.ok());
  ExpectSameResults(*fast, *oracle);
}

INSTANTIATE_TEST_SUITE_P(
    SeedAndThresholdSweep, UAprioriPropertyTest,
    ::testing::Values(SweepCase{1, 0.1, 0.5}, SweepCase{2, 0.2, 0.5},
                      SweepCase{3, 0.3, 0.7}, SweepCase{4, 0.05, 0.3},
                      SweepCase{5, 0.5, 0.9}, SweepCase{6, 0.15, 0.6},
                      SweepCase{7, 0.25, 0.4}, SweepCase{8, 0.4, 0.8},
                      SweepCase{9, 0.08, 0.5}, SweepCase{10, 0.35, 0.95}));

TEST(UAprioriTest, DecrementalPruningPreservesResults) {
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = 77, .num_transactions = 1500, .num_items = 10,
       .item_presence = 0.4});
  ExpectedSupportParams params;
  params.min_esup = 0.15;
  MinerOptions pruned;
  pruned.decremental_pruning = true;
  MinerOptions unpruned;
  unpruned.decremental_pruning = false;
  auto with = MineWith("UApriori", FlatView(db), params, pruned);
  auto without = MineWith("UApriori", FlatView(db), params, unpruned);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  ExpectSameResults(*with, *without);
}

TEST(UAprioriTest, CountsDatabaseScansPerLevel) {
  UncertainDatabase db = MakePaperTable1();
  ExpectedSupportParams params;
  params.min_esup = 0.25;
  auto result = MineWith("UApriori", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  // At least the item scan plus one candidate level.
  EXPECT_GE(result->counters().database_scans, 2u);
}

TEST(UAprioriTest, EmptyDatabase) {
  UncertainDatabase db;
  ExpectedSupportParams params;
  params.min_esup = 0.5;
  auto result = MineWith("UApriori", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(UAprioriTest, ThresholdOneRequiresCertainUnits) {
  // min_esup = 1.0: only items present in every transaction with
  // probability 1 qualify.
  std::vector<Transaction> txns;
  txns.emplace_back(std::vector<ProbItem>{{0, 1.0}, {1, 0.99}});
  txns.emplace_back(std::vector<ProbItem>{{0, 1.0}, {1, 1.0}});
  UncertainDatabase db(std::move(txns));
  ExpectedSupportParams params;
  params.min_esup = 1.0;
  auto result = MineWith("UApriori", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].itemset, Itemset({0}));
}

}  // namespace
}  // namespace ufim
