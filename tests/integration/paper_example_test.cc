// End-to-end checks of every algorithm against the paper's own running
// example (Table 1, Examples 1 and 2).
#include <gtest/gtest.h>

#include "core/miner_registry.h"
#include "gen/benchmark_datasets.h"

namespace ufim {
namespace {

TEST(PaperExampleTest, Example1AllExpectedMiners) {
  UncertainDatabase db = MakePaperTable1();
  ExpectedSupportParams params;
  params.min_esup = 0.5;
  for (const std::string& algo : MinerRegistry::Global().NamesOf(
           TaskFamily::kExpectedSupport, /*production_only=*/true)) {
    auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), params);
    ASSERT_TRUE(result.ok()) << algo;
    ASSERT_EQ(result->size(), 2u) << algo;
    const FrequentItemset* a = result->Find(Itemset({kItemA}));
    const FrequentItemset* c = result->Find(Itemset({kItemC}));
    ASSERT_NE(a, nullptr) << algo;
    ASSERT_NE(c, nullptr) << algo;
    EXPECT_NEAR(a->expected_support, 2.1, 1e-9) << algo;
    EXPECT_NEAR(c->expected_support, 2.6, 1e-9) << algo;
  }
}

TEST(PaperExampleTest, Example2AllExactMiners) {
  UncertainDatabase db = MakePaperTable1();
  ProbabilisticParams params;
  params.min_sup = 0.5;
  params.pft = 0.7;
  for (std::string_view algo : {"DPNB", "DPB", "DCNB", "DCB"}) {
    auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), params);
    ASSERT_TRUE(result.ok()) << algo;
    const FrequentItemset* a = result->Find(Itemset({kItemA}));
    ASSERT_NE(a, nullptr) << algo;
    ASSERT_TRUE(a->frequent_probability.has_value());
    EXPECT_NEAR(*a->frequent_probability, 0.8, 1e-9) << algo;
  }
}

TEST(PaperExampleTest, ChernoffDoesNotChangeTable1Results) {
  UncertainDatabase db = MakePaperTable1();
  ProbabilisticParams params;
  params.min_sup = 0.5;
  params.pft = 0.7;
  auto dpb = MinerRegistry::Global().Create("DPB")->Mine(FlatView(db), params);
  auto dpnb = MinerRegistry::Global().Create("DPNB")->Mine(FlatView(db), params);
  ASSERT_TRUE(dpb.ok());
  ASSERT_TRUE(dpnb.ok());
  EXPECT_EQ(dpb->ItemsetsOnly(), dpnb->ItemsetsOnly());
}

TEST(PaperExampleTest, Table1DatabaseStatsSane) {
  UncertainDatabase db = MakePaperTable1();
  EXPECT_TRUE(db.Validate().ok());
  DatabaseStats stats = db.ComputeStats();
  EXPECT_EQ(stats.num_transactions, 4u);
  EXPECT_EQ(stats.num_items, 6u);
}

}  // namespace
}  // namespace ufim
