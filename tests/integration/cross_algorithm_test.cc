// The core invariant of the whole study: the three expected-support
// miners are different *algorithms* for the same problem and must return
// identical results; likewise DP and DC for the probabilistic problem.
// Swept over randomized databases and thresholds.
#include <gtest/gtest.h>

#include "core/miner_registry.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "testing/random_db.h"

namespace ufim {
namespace {

struct Case {
  std::uint64_t seed;
  std::size_t num_transactions;
  std::size_t num_items;
  double presence;
  double threshold;  // min_esup or min_sup
  double pft;
};

class CrossAlgorithmTest : public ::testing::TestWithParam<Case> {};

TEST_P(CrossAlgorithmTest, ExpectedSupportMinersAgree) {
  const Case c = GetParam();
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = c.seed, .num_transactions = c.num_transactions,
       .num_items = c.num_items, .item_presence = c.presence});
  ExpectedSupportParams params;
  params.min_esup = c.threshold;

  std::vector<MiningResult> results;
  for (const std::string& algo : MinerRegistry::Global().NamesOf(
           TaskFamily::kExpectedSupport, /*production_only=*/true)) {
    auto miner = MinerRegistry::Global().Create(algo);
    auto r = miner->Mine(FlatView(db), params);
    ASSERT_TRUE(r.ok()) << algo;
    results.push_back(std::move(r).value());
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].size(), results[0].size())
        << "algorithm " << i << " disagrees on result count";
    for (const FrequentItemset& fi : results[0].itemsets()) {
      const FrequentItemset* hit = results[i].Find(fi.itemset);
      ASSERT_NE(hit, nullptr) << fi.itemset.ToString();
      EXPECT_NEAR(hit->expected_support, fi.expected_support, 1e-8);
      EXPECT_NEAR(hit->variance, fi.variance, 1e-8);
    }
  }
}

TEST_P(CrossAlgorithmTest, ExactProbabilisticMinersAgree) {
  const Case c = GetParam();
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = c.seed + 500, .num_transactions = c.num_transactions,
       .num_items = c.num_items, .item_presence = c.presence});
  ProbabilisticParams params;
  params.min_sup = c.threshold;
  params.pft = c.pft;

  std::vector<MiningResult> results;
  for (std::string_view algo : {"DPNB", "DPB", "DCNB", "DCB"}) {
    auto miner = MinerRegistry::Global().Create(algo);
    auto r = miner->Mine(FlatView(db), params);
    ASSERT_TRUE(r.ok()) << algo;
    results.push_back(std::move(r).value());
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].size(), results[0].size());
    for (const FrequentItemset& fi : results[0].itemsets()) {
      const FrequentItemset* hit = results[i].Find(fi.itemset);
      ASSERT_NE(hit, nullptr) << fi.itemset.ToString();
      EXPECT_NEAR(*hit->frequent_probability, *fi.frequent_probability, 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, CrossAlgorithmTest,
    ::testing::Values(Case{101, 20, 8, 0.5, 0.2, 0.5},
                      Case{102, 30, 6, 0.6, 0.3, 0.9},
                      Case{103, 15, 10, 0.4, 0.1, 0.7},
                      Case{104, 40, 5, 0.8, 0.4, 0.8},
                      Case{105, 25, 7, 0.3, 0.15, 0.3},
                      Case{106, 50, 6, 0.7, 0.5, 0.95},
                      Case{107, 12, 9, 0.5, 0.25, 0.6},
                      Case{108, 35, 8, 0.45, 0.35, 0.85}));

// On a realistic (generator-produced, Gaussian-probability) database the
// expected-support miners must also agree — this exercises the dense
// path with hundreds of items rather than the toy universes above.
TEST(CrossAlgorithmRealisticTest, ExpectedMinersAgreeOnAccidentLike) {
  UncertainDatabase db = AssignGaussianProbabilities(
      MakeAccidentLike(300, 1), 0.5, 0.5, 2);
  ExpectedSupportParams params;
  params.min_esup = 0.2;
  auto ua = MinerRegistry::Global().Create("UApriori")->Mine(FlatView(db), params);
  auto uh = MinerRegistry::Global().Create("UH-Mine")->Mine(FlatView(db), params);
  auto ufp = MinerRegistry::Global().Create("UFP-growth")->Mine(FlatView(db), params);
  ASSERT_TRUE(ua.ok());
  ASSERT_TRUE(uh.ok());
  ASSERT_TRUE(ufp.ok());
  EXPECT_GT(ua->size(), 0u);
  ASSERT_EQ(ua->size(), uh->size());
  ASSERT_EQ(ua->size(), ufp->size());
  for (const FrequentItemset& fi : ua->itemsets()) {
    const FrequentItemset* h1 = uh->Find(fi.itemset);
    const FrequentItemset* h2 = ufp->Find(fi.itemset);
    ASSERT_NE(h1, nullptr);
    ASSERT_NE(h2, nullptr);
    EXPECT_NEAR(h1->expected_support, fi.expected_support, 1e-7);
    EXPECT_NEAR(h2->expected_support, fi.expected_support, 1e-7);
  }
}

}  // namespace
}  // namespace ufim
