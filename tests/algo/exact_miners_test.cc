#include <gtest/gtest.h>

#include "gen/benchmark_datasets.h"
#include "testing/random_db.h"
#include "testing/registry_mine.h"

namespace ufim {
namespace {

using testing_util::MineWith;

void ExpectSameProbabilisticResults(const MiningResult& got,
                                    const MiningResult& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const FrequentItemset& fi : want.itemsets()) {
    const FrequentItemset* hit = got.Find(fi.itemset);
    ASSERT_NE(hit, nullptr) << "missing " << fi.itemset.ToString();
    ASSERT_TRUE(hit->frequent_probability.has_value());
    ASSERT_TRUE(fi.frequent_probability.has_value());
    EXPECT_NEAR(*hit->frequent_probability, *fi.frequent_probability, 1e-9);
  }
}

TEST(ExactDPTest, PaperExample2) {
  UncertainDatabase db = MakePaperTable1();
  ProbabilisticParams params;
  params.min_sup = 0.5;
  params.pft = 0.7;
  auto result = MineWith("DPNB", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  const FrequentItemset* a = result->Find(Itemset({kItemA}));
  ASSERT_NE(a, nullptr);
  EXPECT_NEAR(*a->frequent_probability, 0.8, 1e-12);
}

struct SweepCase {
  std::uint64_t seed;
  double min_sup;
  double pft;
  double presence;
};

class ExactMinerPropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ExactMinerPropertyTest, DPNBMatchesBruteForce) {
  const SweepCase c = GetParam();
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = c.seed, .num_transactions = 12, .num_items = 6,
       .item_presence = c.presence});
  ProbabilisticParams params;
  params.min_sup = c.min_sup;
  params.pft = c.pft;
  auto fast = MineWith("DPNB", FlatView(db), params);
  auto oracle = MineWith("BruteForceProbabilistic", FlatView(db), params);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(oracle.ok());
  ExpectSameProbabilisticResults(*fast, *oracle);
}

TEST_P(ExactMinerPropertyTest, DCNBMatchesBruteForce) {
  const SweepCase c = GetParam();
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = c.seed, .num_transactions = 12, .num_items = 6,
       .item_presence = c.presence});
  ProbabilisticParams params;
  params.min_sup = c.min_sup;
  params.pft = c.pft;
  auto fast = MineWith("DCNB", FlatView(db), params);
  auto oracle = MineWith("BruteForceProbabilistic", FlatView(db), params);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(oracle.ok());
  ExpectSameProbabilisticResults(*fast, *oracle);
}

TEST_P(ExactMinerPropertyTest, ChernoffVariantsReturnIdenticalSets) {
  // The Chernoff bound is only allowed to skip *infrequent* itemsets:
  // DPB == DPNB and DCB == DCNB as result sets, probabilities included.
  const SweepCase c = GetParam();
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = c.seed + 1000, .num_transactions = 16, .num_items = 6,
       .item_presence = c.presence});
  ProbabilisticParams params;
  params.min_sup = c.min_sup;
  params.pft = c.pft;
  auto dpb = MineWith("DPB", FlatView(db), params);
  auto dpnb = MineWith("DPNB", FlatView(db), params);
  auto dcb = MineWith("DCB", FlatView(db), params);
  auto dcnb = MineWith("DCNB", FlatView(db), params);
  ASSERT_TRUE(dpb.ok());
  ASSERT_TRUE(dpnb.ok());
  ASSERT_TRUE(dcb.ok());
  ASSERT_TRUE(dcnb.ok());
  ExpectSameProbabilisticResults(*dpb, *dpnb);
  ExpectSameProbabilisticResults(*dcb, *dcnb);
  ExpectSameProbabilisticResults(*dpb, *dcb);
}

INSTANTIATE_TEST_SUITE_P(
    SeedAndThresholdSweep, ExactMinerPropertyTest,
    ::testing::Values(SweepCase{41, 0.2, 0.5, 0.5},
                      SweepCase{42, 0.3, 0.9, 0.5},
                      SweepCase{43, 0.5, 0.7, 0.7},
                      SweepCase{44, 0.1, 0.3, 0.3},
                      SweepCase{45, 0.4, 0.95, 0.8},
                      SweepCase{46, 0.25, 0.1, 0.6},
                      SweepCase{47, 0.6, 0.5, 0.9},
                      SweepCase{48, 0.15, 0.8, 0.4}));

TEST(ExactMinersTest, ChernoffPruningReducesExactEvaluations) {
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = 99, .num_transactions = 200, .num_items = 10,
       .item_presence = 0.3});
  ProbabilisticParams params;
  params.min_sup = 0.6;  // far above typical esup: plenty to prune
  params.pft = 0.9;
  auto with = MineWith("DPB", FlatView(db), params);
  auto without = MineWith("DPNB", FlatView(db), params);
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_LT(with->counters().exact_tail_evals,
            without->counters().exact_tail_evals);
  EXPECT_GT(with->counters().candidates_rejected_bound, 0u);
}

TEST(ExactMinersTest, NamesReflectChernoffFlag) {
  for (const char* name : {"DPB", "DPNB", "DCB", "DCNB"}) {
    std::unique_ptr<Miner> miner = MinerRegistry::Global().Create(name);
    ASSERT_NE(miner, nullptr) << name;
    EXPECT_EQ(miner->name(), name);
    EXPECT_TRUE(miner->is_exact()) << name;
  }
}

TEST(ExactMinersTest, EmptyDatabase) {
  UncertainDatabase db;
  ProbabilisticParams params;
  auto dp = MineWith("DPB", FlatView(db), params);
  auto dc = MineWith("DCB", FlatView(db), params);
  ASSERT_TRUE(dp.ok());
  ASSERT_TRUE(dc.ok());
  EXPECT_TRUE(dp->empty());
  EXPECT_TRUE(dc->empty());
}

TEST(ExactMinersTest, RejectsInvalidParams) {
  UncertainDatabase db = MakePaperTable1();
  ProbabilisticParams bad;
  bad.min_sup = 0.0;
  EXPECT_FALSE(MineWith("DPB", FlatView(db), bad).ok());
  EXPECT_FALSE(MineWith("DCB", FlatView(db), bad).ok());
}

}  // namespace
}  // namespace ufim
