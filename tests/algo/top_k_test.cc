#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/postprocess.h"
#include "gen/benchmark_datasets.h"
#include "testing/random_db.h"
#include "testing/registry_mine.h"

namespace ufim {
namespace {

using testing_util::MineWith;

TEST(TopKMinerTest, RejectsZeroK) {
  EXPECT_FALSE(
      MineWith("TopK", FlatView(MakePaperTable1()), TopKParams{0}).ok());
}

TEST(TopKMinerTest, PaperTable1TopTwoAreCAndA) {
  auto result = MineWith("TopK", FlatView(MakePaperTable1()), TopKParams{2});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ((*result)[0].itemset, Itemset({kItemC}));  // esup 2.6
  EXPECT_NEAR((*result)[0].expected_support, 2.6, 1e-12);
  EXPECT_EQ((*result)[1].itemset, Itemset({kItemA}));  // esup 2.1
}

TEST(TopKMinerTest, KLargerThanLatticeReturnsEverything) {
  // 2 items with nonzero probs -> 3 possible itemsets.
  std::vector<Transaction> txns;
  txns.emplace_back(std::vector<ProbItem>{{0, 0.5}, {1, 0.5}});
  UncertainDatabase db(std::move(txns));
  auto result = MineWith("TopK", FlatView(db), TopKParams{100});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 3u);
}

struct TopKCase {
  std::uint64_t seed;
  std::size_t k;
};

class TopKPropertyTest : public ::testing::TestWithParam<TopKCase> {};

// Oracle: mine everything at a tiny threshold with brute force, rank,
// truncate — the top-k esup values must match (itemsets may differ on
// exact ties, so compare the support multiset).
TEST_P(TopKPropertyTest, MatchesRankedBruteForce) {
  const TopKCase c = GetParam();
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = c.seed, .num_transactions = 15, .num_items = 6});
  auto top = MineWith("TopK", FlatView(db), TopKParams{c.k});
  ASSERT_TRUE(top.ok());

  ExpectedSupportParams params;
  params.min_esup = 1e-9;  // everything
  auto all = MineWith("BruteForceExpected", FlatView(db), params);
  ASSERT_TRUE(all.ok());
  MiningResult oracle = TopK(*all, c.k);

  ASSERT_EQ(top->size(), oracle.size());
  for (std::size_t i = 0; i < top->size(); ++i) {
    EXPECT_NEAR((*top)[i].expected_support, oracle[i].expected_support, 1e-9)
        << "rank " << i;
  }
  // Descending order.
  for (std::size_t i = 1; i < top->size(); ++i) {
    EXPECT_GE((*top)[i - 1].expected_support,
              (*top)[i].expected_support - 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(SeedAndKSweep, TopKPropertyTest,
                         ::testing::Values(TopKCase{1, 1}, TopKCase{2, 3},
                                           TopKCase{3, 5}, TopKCase{4, 10},
                                           TopKCase{5, 25}, TopKCase{6, 50},
                                           TopKCase{7, 7}, TopKCase{8, 2}));

TEST(TopKMinerTest, PrunesAgainstExhaustiveSearch) {
  // The dynamic bound must explore far fewer candidates than the full
  // lattice on a database with many items.
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = 9, .num_transactions = 100, .num_items = 14,
       .item_presence = 0.4});
  auto top = MineWith("TopK", FlatView(db), TopKParams{5});
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 5u);
  // Full lattice over 14 items is 2^14-1 = 16383; the bound should keep
  // the search well under it.
  EXPECT_LT(top->counters().candidates_generated, 4000u);
}

// Dyadic probabilities keep every sum exact, so itemsets tie exactly at
// the k-th expected support: items 0, 1, 2, 3 and 5 all at 2, pairs
// {0,1}, {0,2} and {1,2} at 1.25, item 6 and {5,6} at 1. The heap keeps
// the first of equals, so the itemsets and their order pin the
// exploration order; these are the results of the search that joined
// every extension before comparing it with the bound.
UncertainDatabase MakeDyadicTieDatabase() {
  std::vector<Transaction> txns;
  txns.emplace_back(std::vector<ProbItem>{{0, 1.0}, {1, 0.5}, {2, 0.5}, {3, 0.25}});
  txns.emplace_back(std::vector<ProbItem>{{0, 0.5}, {1, 1.0}, {2, 0.5}, {3, 0.5}});
  txns.emplace_back(std::vector<ProbItem>{{0, 0.5}, {1, 0.5}, {2, 1.0}, {3, 0.25}});
  txns.emplace_back(std::vector<ProbItem>{{3, 1.0}, {4, 0.5}});
  txns.emplace_back(std::vector<ProbItem>{{5, 1.0}, {6, 0.5}});
  txns.emplace_back(std::vector<ProbItem>{{5, 1.0}, {6, 0.5}});
  return UncertainDatabase(std::move(txns));
}

TEST(TopKMinerTest, TiesAtTheBoundKeepTheirItemsetsAndOrder) {
  const FlatView view(MakeDyadicTieDatabase());
  const std::vector<std::pair<std::size_t, std::string>> cases = {
      {4, "{3}=2.000000 {1}=2.000000 {2}=2.000000 {0}=2.000000 "},
      {5, "{3}=2.000000 {1}=2.000000 {5}=2.000000 {2}=2.000000 {0}=2.000000 "},
      {6, "{3}=2.000000 {1}=2.000000 {5}=2.000000 {2}=2.000000 {0}=2.000000 "
          "{0, 1}=1.250000 "},
      {7, "{3}=2.000000 {1}=2.000000 {5}=2.000000 {0}=2.000000 {2}=2.000000 "
          "{0, 2}=1.250000 {0, 1}=1.250000 "},
      {8, "{1}=2.000000 {5}=2.000000 {3}=2.000000 {2}=2.000000 {0}=2.000000 "
          "{1, 2}=1.250000 {0, 2}=1.250000 {0, 1}=1.250000 "},
      {9, "{1}=2.000000 {5}=2.000000 {3}=2.000000 {2}=2.000000 {0}=2.000000 "
          "{1, 2}=1.250000 {0, 2}=1.250000 {0, 1}=1.250000 {6}=1.000000 "},
      {10, "{3}=2.000000 {1}=2.000000 {5}=2.000000 {2}=2.000000 {0}=2.000000 "
           "{0, 1}=1.250000 {1, 2}=1.250000 {0, 2}=1.250000 {5, 6}=1.000000 "
           "{6}=1.000000 "},
  };
  for (const auto& [k, want] : cases) {
    auto top = MineWith("TopK", view, TopKParams{k});
    ASSERT_TRUE(top.ok());
    std::string got;
    for (const FrequentItemset& fi : top->itemsets()) {
      got += fi.itemset.ToString() + "=" + std::to_string(fi.expected_support) +
             " ";
    }
    EXPECT_EQ(got, want) << "k = " << k;
  }
}

class TopKCrossCheckTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {};

// Rank by rank against the exhaustive oracle on lattices of more than
// 100 itemsets: the same itemsets in the same order, the same supports.
TEST_P(TopKCrossCheckTest, MatchesBruteForceRankByRank) {
  const auto [seed, k] = GetParam();
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = seed, .num_transactions = 30, .num_items = 10});
  ExpectedSupportParams params;
  params.min_esup = 1e-9;  // everything
  auto all = MineWith("BruteForceExpected", FlatView(db), params);
  ASSERT_TRUE(all.ok());
  ASSERT_GT(all->size(), 100u);
  const MiningResult oracle = TopK(*all, k);

  auto top = MineWith("TopK", FlatView(db), TopKParams{k});
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_EQ((*top)[i].itemset, oracle[i].itemset) << "rank " << i;
    EXPECT_NEAR((*top)[i].expected_support, oracle[i].expected_support, 1e-9)
        << "rank " << i;
    EXPECT_NEAR((*top)[i].variance, oracle[i].variance, 1e-9) << "rank " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(SeedAndKSweep, TopKCrossCheckTest,
                         ::testing::Combine(::testing::Values(11, 12, 13, 14),
                                            ::testing::Values(1, 10, 100)));

TEST(TopKMinerTest, EmptyDatabase) {
  auto result = MineWith("TopK", FlatView(UncertainDatabase()), TopKParams{3});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

}  // namespace
}  // namespace ufim
