#include "core/postprocess.h"

#include <gtest/gtest.h>

#include "gen/benchmark_datasets.h"
#include "testing/random_db.h"
#include "testing/registry_mine.h"

namespace ufim {
namespace {

using testing_util::MineWith;

MiningResult MakeResult(
    std::initializer_list<std::pair<Itemset, double>> entries) {
  MiningResult r;
  for (const auto& [itemset, esup] : entries) {
    FrequentItemset fi;
    fi.itemset = itemset;
    fi.expected_support = esup;
    r.Add(std::move(fi));
  }
  return r;
}

TEST(FilterClosedTest, DropsItemsetsWithEqualSupportSuperset) {
  // {1} has the same esup as {1,2}: not closed. {2} is closed.
  MiningResult r = MakeResult(
      {{Itemset({1}), 2.0}, {Itemset({2}), 3.0}, {Itemset({1, 2}), 2.0}});
  MiningResult closed = FilterClosed(r);
  EXPECT_EQ(closed.Find(Itemset({1})), nullptr);
  EXPECT_NE(closed.Find(Itemset({2})), nullptr);
  EXPECT_NE(closed.Find(Itemset({1, 2})), nullptr);
}

TEST(FilterClosedTest, KeepsAllWhenSupportsDiffer) {
  MiningResult r = MakeResult(
      {{Itemset({1}), 3.0}, {Itemset({2}), 2.5}, {Itemset({1, 2}), 2.0}});
  EXPECT_EQ(FilterClosed(r).size(), 3u);
}

TEST(FilterMaximalTest, KeepsOnlyTopsOfTheLattice) {
  MiningResult r = MakeResult({{Itemset({1}), 3.0},
                               {Itemset({2}), 2.5},
                               {Itemset({3}), 2.0},
                               {Itemset({1, 2}), 2.0}});
  MiningResult maximal = FilterMaximal(r);
  ASSERT_EQ(maximal.size(), 2u);
  EXPECT_NE(maximal.Find(Itemset({1, 2})), nullptr);
  EXPECT_NE(maximal.Find(Itemset({3})), nullptr);
}

TEST(PostprocessLatticeTest, MaximalSubsetOfClosedSubsetOfAll) {
  // On a real mining result: |maximal| <= |closed| <= |all|, and both
  // condensations are subsets.
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = 61, .num_transactions = 20, .num_items = 7});
  ExpectedSupportParams params;
  params.min_esup = 0.1;
  auto all = MineWith("BruteForceExpected", FlatView(db), params);
  ASSERT_TRUE(all.ok());
  MiningResult closed = FilterClosed(*all);
  MiningResult maximal = FilterMaximal(*all);
  EXPECT_LE(maximal.size(), closed.size());
  EXPECT_LE(closed.size(), all->size());
  for (const FrequentItemset& fi : maximal.itemsets()) {
    EXPECT_NE(closed.Find(fi.itemset), nullptr)
        << "maximal itemset not closed: " << fi.itemset.ToString();
  }
  for (const FrequentItemset& fi : closed.itemsets()) {
    EXPECT_NE(all->Find(fi.itemset), nullptr);
  }
}

TEST(TopKTest, RanksByExpectedSupport) {
  MiningResult r = MakeResult(
      {{Itemset({1}), 1.0}, {Itemset({2}), 3.0}, {Itemset({3}), 2.0}});
  MiningResult top2 = TopK(r, 2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].itemset, Itemset({2}));
  EXPECT_EQ(top2[1].itemset, Itemset({3}));
}

TEST(TopKTest, KLargerThanResultKeepsAll) {
  MiningResult r = MakeResult({{Itemset({1}), 1.0}});
  EXPECT_EQ(TopK(r, 10).size(), 1u);
}

TEST(TopKTest, RanksByFrequentProbabilityWhenAsked) {
  MiningResult r;
  FrequentItemset a;
  a.itemset = Itemset({1});
  a.expected_support = 9.0;
  a.frequent_probability = 0.5;
  FrequentItemset b;
  b.itemset = Itemset({2});
  b.expected_support = 1.0;
  b.frequent_probability = 0.99;
  r.Add(a);
  r.Add(b);
  MiningResult top = TopK(r, 1, RankBy::kFrequentProbability);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].itemset, Itemset({2}));
}

TEST(GenerateRulesTest, ComputesExpectedConfidence) {
  // esup({1,2}) / esup({1}) = 2.0/4.0 = 0.5; the reverse rule has 2/2.5.
  MiningResult r = MakeResult(
      {{Itemset({1}), 4.0}, {Itemset({2}), 2.5}, {Itemset({1, 2}), 2.0}});
  auto rules = GenerateRules(r, 0.0);
  ASSERT_EQ(rules.size(), 2u);
  // Sorted by confidence descending: {2}=>{1} (0.8) first.
  EXPECT_EQ(rules[0].antecedent, Itemset({2}));
  EXPECT_NEAR(rules[0].expected_confidence, 0.8, 1e-12);
  EXPECT_EQ(rules[1].antecedent, Itemset({1}));
  EXPECT_NEAR(rules[1].expected_confidence, 0.5, 1e-12);
}

TEST(GenerateRulesTest, MinConfidenceFilters) {
  MiningResult r = MakeResult(
      {{Itemset({1}), 4.0}, {Itemset({2}), 2.5}, {Itemset({1, 2}), 2.0}});
  auto rules = GenerateRules(r, 0.75);
  ASSERT_EQ(rules.size(), 1u);
  EXPECT_EQ(rules[0].antecedent, Itemset({2}));
}

TEST(GenerateRulesTest, MultiItemAntecedentsAndConsequents) {
  MiningResult r = MakeResult({{Itemset({1}), 4.0},
                               {Itemset({2}), 4.0},
                               {Itemset({3}), 4.0},
                               {Itemset({1, 2}), 3.0},
                               {Itemset({1, 3}), 3.0},
                               {Itemset({2, 3}), 3.0},
                               {Itemset({1, 2, 3}), 2.0}});
  auto rules = GenerateRules(r, 0.0);
  // 3-itemset contributes 2^3-2 = 6 rules; each pair contributes 2.
  EXPECT_EQ(rules.size(), 6u + 3u * 2u);
  for (const AssociationRule& rule : rules) {
    EXPECT_FALSE(rule.antecedent.empty());
    EXPECT_FALSE(rule.consequent.empty());
    EXPECT_GT(rule.expected_confidence, 0.0);
    EXPECT_LE(rule.expected_confidence, 1.0 + 1e-12);
  }
}

TEST(GenerateRulesTest, ConfidenceNeverExceedsOneOnRealResults) {
  // esup is anti-monotone, so confidence = esup(X)/esup(A) <= 1 always.
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = 62, .num_transactions = 20, .num_items = 6});
  ExpectedSupportParams params;
  params.min_esup = 0.1;
  auto all = MineWith("BruteForceExpected", FlatView(db), params);
  ASSERT_TRUE(all.ok());
  for (const AssociationRule& rule : GenerateRules(*all, 0.0)) {
    EXPECT_LE(rule.expected_confidence, 1.0 + 1e-9) << rule.ToString();
  }
}

TEST(AssociationRuleTest, ToStringIsReadable) {
  AssociationRule rule{Itemset({1}), Itemset({2}), 2.0, 0.5};
  EXPECT_EQ(rule.ToString(), "{1} => {2} (esup=2.000, conf=0.500)");
}

}  // namespace
}  // namespace ufim
