#include <gtest/gtest.h>

#include "gen/benchmark_datasets.h"
#include "testing/random_db.h"
#include "testing/registry_mine.h"

namespace ufim {
namespace {

using testing_util::MineWith;

TEST(UFPGrowthTest, PaperExample1) {
  UncertainDatabase db = MakePaperTable1();
  ExpectedSupportParams params;
  params.min_esup = 0.5;
  auto result = MineWith("UFP-growth", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  const FrequentItemset* a = result->Find(Itemset({kItemA}));
  ASSERT_NE(a, nullptr);
  EXPECT_NEAR(a->expected_support, 2.1, 1e-12);
}

TEST(UFPGrowthTest, PaperFigure1Threshold) {
  // min_esup = 0.25 (the Figure 1 UFP-tree setting): all six items are
  // frequent (absolute threshold 1.0; min item esup is D at 1.2).
  UncertainDatabase db = MakePaperTable1();
  ExpectedSupportParams params;
  params.min_esup = 0.25;
  auto result = MineWith("UFP-growth", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  for (ItemId item : {kItemA, kItemB, kItemC, kItemD, kItemE, kItemF}) {
    EXPECT_NE(result->Find(Itemset({item})), nullptr) << "item " << item;
  }
  // And it agrees with brute force in full.
  auto oracle = MineWith("BruteForceExpected", FlatView(db), params);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(result->size(), oracle->size());
}

struct SweepCase {
  std::uint64_t seed;
  double min_esup;
  double presence;
  double min_prob;
};

class UFPGrowthPropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(UFPGrowthPropertyTest, MatchesBruteForce) {
  const SweepCase c = GetParam();
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = c.seed, .num_transactions = 14, .num_items = 7,
       .item_presence = c.presence, .min_prob = c.min_prob});
  ExpectedSupportParams params;
  params.min_esup = c.min_esup;
  auto fast = MineWith("UFP-growth", FlatView(db), params);
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
    SeedAndThresholdSweep, UFPGrowthPropertyTest,
    ::testing::Values(SweepCase{21, 0.1, 0.5, 0.05},
                      SweepCase{22, 0.2, 0.5, 0.05},
                      SweepCase{23, 0.3, 0.7, 0.05},
                      SweepCase{24, 0.05, 0.3, 0.05},
                      SweepCase{25, 0.5, 0.9, 0.05},
                      SweepCase{26, 0.15, 0.6, 0.5},
                      SweepCase{27, 0.25, 0.4, 0.5},
                      SweepCase{28, 0.4, 0.8, 0.9},
                      SweepCase{29, 0.08, 0.5, 0.05},
                      SweepCase{30, 0.35, 0.95, 0.3}));

// Discretized probabilities produce shared nodes: the tree must stay
// exact when sharing actually happens (w2 bookkeeping).
TEST(UFPGrowthTest, SharedNodesRemainExact) {
  Rng rng(31);
  std::vector<Transaction> txns;
  for (int t = 0; t < 16; ++t) {
    std::vector<ProbItem> units;
    for (ItemId i = 0; i < 5; ++i) {
      if (rng.Bernoulli(0.7)) {
        // Probabilities on a coarse grid {0.25, 0.5, 0.75, 1.0}.
        units.push_back(ProbItem{i, 0.25 * double(rng.UniformInt(1, 4))});
      }
    }
    txns.emplace_back(std::move(units));
  }
  UncertainDatabase db(std::move(txns));
  ExpectedSupportParams params;
  params.min_esup = 0.2;
  auto fast = MineWith("UFP-growth", FlatView(db), params);
  auto oracle = MineWith("BruteForceExpected", FlatView(db), params);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(fast->size(), oracle->size());
  for (const FrequentItemset& fi : oracle->itemsets()) {
    const FrequentItemset* hit = fast->Find(fi.itemset);
    ASSERT_NE(hit, nullptr);
    EXPECT_NEAR(hit->expected_support, fi.expected_support, 1e-9);
    EXPECT_NEAR(hit->variance, fi.variance, 1e-9);
  }
}

TEST(UFPGrowthTest, EmptyDatabase) {
  UncertainDatabase db;
  ExpectedSupportParams params;
  params.min_esup = 0.5;
  auto result = MineWith("UFP-growth", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

}  // namespace
}  // namespace ufim
