// Pathological databases through every production miner: certain
// probabilities (the deterministic degeneration), single-item universes,
// duplicated transactions, and thresholds at exact boundaries. These are
// the inputs where an off-by-one in msc handling or a strict-vs-weak
// inequality slip would hide.
#include <gtest/gtest.h>

#include "core/miner_registry.h"
#include "gen/benchmark_datasets.h"

namespace ufim {
namespace {

/// A certain database: all probabilities 1 — uncertain mining must
/// degenerate to classic deterministic frequent itemset mining.
UncertainDatabase CertainDb() {
  std::vector<Transaction> txns;
  txns.emplace_back(std::vector<ProbItem>{{0, 1.0}, {1, 1.0}, {2, 1.0}});
  txns.emplace_back(std::vector<ProbItem>{{0, 1.0}, {1, 1.0}});
  txns.emplace_back(std::vector<ProbItem>{{0, 1.0}});
  txns.emplace_back(std::vector<ProbItem>{{3, 1.0}});
  return UncertainDatabase(std::move(txns));
}

TEST(PathologicalTest, CertainDatabaseExpectedMinersMatchCounts) {
  // Deterministic supports: {0}:3 {1}:2 {2}:1 {3}:1 {0,1}:2 {0,2}:1
  // {1,2}:1 {0,1,2}:1. min_esup=0.5 (abs 2) keeps {0},{1},{0,1}.
  UncertainDatabase db = CertainDb();
  ExpectedSupportParams params;
  params.min_esup = 0.5;
  for (const std::string& algo : MinerRegistry::Global().NamesOf(
           TaskFamily::kExpectedSupport, /*production_only=*/true)) {
    auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), params);
    ASSERT_TRUE(result.ok()) << algo;
    ASSERT_EQ(result->size(), 3u) << algo;
    EXPECT_NE(result->Find(Itemset({0})), nullptr);
    EXPECT_NE(result->Find(Itemset({1})), nullptr);
    EXPECT_NE(result->Find(Itemset({0, 1})), nullptr);
    for (const FrequentItemset& fi : result->itemsets()) {
      EXPECT_EQ(fi.variance, 0.0) << algo << fi.itemset.ToString();
    }
  }
}

TEST(PathologicalTest, CertainDatabaseProbabilisticMinersAreStepFunctions) {
  // With certain data Pr(sup >= msc) is 0 or 1: at any pft in [0,1)
  // exactly the deterministically frequent itemsets qualify.
  UncertainDatabase db = CertainDb();
  ProbabilisticParams params;
  params.min_sup = 0.5;
  for (double pft : {0.0, 0.5, 0.99}) {
    params.pft = pft;
    for (std::string_view algo : {"DPNB", "DPB", "DCNB", "DCB"}) {
      auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), params);
      ASSERT_TRUE(result.ok()) << algo;
      EXPECT_EQ(result->size(), 3u) << algo << " pft=" << pft;
      for (const FrequentItemset& fi : result->itemsets()) {
        EXPECT_EQ(*fi.frequent_probability, 1.0);
      }
    }
    // The Normal-based approximations handle the var = 0 degeneration as
    // an exact step function; the Poisson-based one cannot represent a
    // degenerate distribution at all (its variance is forced to equal
    // its mean), so it is exempt here — the price §4.4 quantifies.
    for (std::string_view algo : {"NDUApriori", "NDUH-Mine"}) {
      auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), params);
      ASSERT_TRUE(result.ok()) << algo;
      EXPECT_EQ(result->size(), 3u) << algo << " pft=" << pft;
    }
  }
}

TEST(PathologicalTest, SingleItemUniverse) {
  // 0.5 is exactly representable, so the threshold comparison at the
  // boundary is deterministic (Definition 2 uses >=).
  std::vector<Transaction> txns;
  for (int i = 0; i < 10; ++i) {
    txns.emplace_back(std::vector<ProbItem>{{0, 0.5}});
  }
  UncertainDatabase db(std::move(txns));
  ExpectedSupportParams params;
  params.min_esup = 0.5;  // abs 5.0 == esup exactly: >= keeps it
  for (const std::string& algo : MinerRegistry::Global().NamesOf(
           TaskFamily::kExpectedSupport, /*production_only=*/true)) {
    auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), params);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->size(), 1u) << algo;
    EXPECT_EQ((*result)[0].expected_support, 5.0);
  }
  params.min_esup = 0.5000001;  // just above: must drop it
  for (const std::string& algo : MinerRegistry::Global().NamesOf(
           TaskFamily::kExpectedSupport, /*production_only=*/true)) {
    auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), params);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->empty()) << algo;
  }
}

TEST(PathologicalTest, DuplicateTransactionsShareUFPNodes) {
  // Identical transactions exercise the (item, prob) node-sharing path
  // of the UFP-tree; results must still agree across miners.
  std::vector<Transaction> txns;
  for (int i = 0; i < 8; ++i) {
    txns.emplace_back(std::vector<ProbItem>{{0, 0.5}, {1, 0.25}, {2, 0.75}});
  }
  UncertainDatabase db(std::move(txns));
  ExpectedSupportParams params;
  params.min_esup = 0.1;
  MiningResult reference;
  for (const std::string& algo : MinerRegistry::Global().NamesOf(
           TaskFamily::kExpectedSupport, /*production_only=*/true)) {
    auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), params);
    ASSERT_TRUE(result.ok());
    if (reference.empty()) {
      reference = std::move(result).value();
      continue;
    }
    ASSERT_EQ(result->size(), reference.size()) << algo;
    for (const FrequentItemset& fi : reference.itemsets()) {
      const FrequentItemset* hit = result->Find(fi.itemset);
      ASSERT_NE(hit, nullptr) << algo << fi.itemset.ToString();
      EXPECT_NEAR(hit->expected_support, fi.expected_support, 1e-9);
      EXPECT_NEAR(hit->variance, fi.variance, 1e-9);
    }
  }
}

TEST(PathologicalTest, MinSupOneRequiresSupportInEveryTransaction) {
  std::vector<Transaction> txns;
  txns.emplace_back(std::vector<ProbItem>{{0, 1.0}});
  txns.emplace_back(std::vector<ProbItem>{{0, 0.9}});
  UncertainDatabase db(std::move(txns));
  ProbabilisticParams params;
  params.min_sup = 1.0;  // msc = 2
  params.pft = 0.89;     // Pr(sup=2) = 0.9 > 0.89: frequent
  for (std::string_view algo : {"DPNB", "DPB", "DCNB", "DCB"}) {
    auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), params);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->size(), 1u) << algo;
    EXPECT_NEAR(*(*result)[0].frequent_probability, 0.9, 1e-12);
  }
  params.pft = 0.91;  // 0.9 < 0.91: not frequent
  for (std::string_view algo : {"DPNB", "DPB", "DCNB", "DCB"}) {
    auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), params);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->empty()) << algo;
  }
}

TEST(PathologicalTest, WideTransactionSingleRow) {
  // One transaction with many items: depth-first miners recurse along a
  // single chain; breadth-first ones generate one candidate per level.
  std::vector<ProbItem> units;
  for (ItemId i = 0; i < 12; ++i) units.push_back({i, 1.0});
  std::vector<Transaction> txns;
  txns.emplace_back(std::move(units));
  UncertainDatabase db(std::move(txns));
  ExpectedSupportParams params;
  params.min_esup = 1.0;
  for (const std::string& algo : MinerRegistry::Global().NamesOf(
           TaskFamily::kExpectedSupport, /*production_only=*/true)) {
    auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), params);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->size(), (1u << 12) - 1) << algo;
  }
}

}  // namespace
}  // namespace ufim
