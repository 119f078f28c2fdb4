#include "testing/possible_worlds.h"

#include <numeric>

#include <gtest/gtest.h>

#include "gen/benchmark_datasets.h"
#include "testing/capped_pmf_dp.h"
#include "testing/random_db.h"

namespace ufim {
namespace {

using testing_util::EnumerateWorlds;
using testing_util::EstimateFrequentProbability;
using testing_util::PoissonBinomialCappedPmfDP;
using testing_util::SampleWorld;
using testing_util::SupportDistributionByEnumeration;
using testing_util::World;
using testing_util::WorldSupport;

UncertainDatabase TinyDb() {
  std::vector<Transaction> txns;
  txns.emplace_back(std::vector<ProbItem>{{0, 0.8}, {1, 0.5}});
  txns.emplace_back(std::vector<ProbItem>{{0, 0.4}});
  return UncertainDatabase(std::move(txns));
}

TEST(EnumerateWorldsTest, ProbabilitiesSumToOne) {
  double total = 0.0;
  std::size_t worlds = 0;
  ASSERT_TRUE(EnumerateWorlds(TinyDb(),
                              [&](const World&, double p) {
                                total += p;
                                ++worlds;
                              })
                  .ok());
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_EQ(worlds, 8u);  // 3 units -> 2^3 worlds (all probs in (0,1))
}

TEST(EnumerateWorldsTest, RefusesOversizedDatabases) {
  UncertainDatabase big = testing_util::MakeRandomDatabase(
      {.seed = 1, .num_transactions = 10, .num_items = 10});
  Status s = EnumerateWorlds(big, [](const World&, double) {}, /*max_units=*/8);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(WorldSupportTest, CountsTransactionsContainingAll) {
  World world = {{0, 1, 2}, {0, 2}, {1}};
  EXPECT_EQ(WorldSupport(world, Itemset({0})), 2u);
  EXPECT_EQ(WorldSupport(world, Itemset({0, 2})), 2u);
  EXPECT_EQ(WorldSupport(world, Itemset({0, 1})), 1u);
  EXPECT_EQ(WorldSupport(world, Itemset({3})), 0u);
  EXPECT_EQ(WorldSupport(world, Itemset()), 0u);
}

TEST(SupportDistributionTest, MatchesHandComputation) {
  // sup({0}) over TinyDb: Bernoulli(0.8) + Bernoulli(0.4).
  auto pmf = SupportDistributionByEnumeration(TinyDb(), Itemset({0}));
  ASSERT_TRUE(pmf.ok());
  ASSERT_EQ(pmf->size(), 3u);
  EXPECT_NEAR((*pmf)[0], 0.2 * 0.6, 1e-12);
  EXPECT_NEAR((*pmf)[1], 0.8 * 0.6 + 0.2 * 0.4, 1e-12);
  EXPECT_NEAR((*pmf)[2], 0.8 * 0.4, 1e-12);
}

// The semantic keystone: the possible-world support distribution equals
// the Poisson-binomial over the containment probabilities — the identity
// every algorithm in the paper (and this library) rests on. The two
// sides share no code.
TEST(SupportDistributionTest, EqualsPoissonBinomialOfContainments) {
  for (std::uint64_t seed : {2u, 3u, 4u, 5u}) {
    UncertainDatabase db = testing_util::MakeRandomDatabase(
        {.seed = seed, .num_transactions = 4, .num_items = 4,
         .item_presence = 0.6});
    for (const Itemset& itemset :
         {Itemset({0}), Itemset({1, 2}), Itemset({0, 3}), Itemset({1, 2, 3})}) {
      auto by_worlds = SupportDistributionByEnumeration(db, itemset);
      ASSERT_TRUE(by_worlds.ok());
      auto probs = db.ContainmentProbabilities(itemset);
      auto by_pb = PoissonBinomialCappedPmfDP(probs, db.size());
      by_pb.resize(db.size() + 1, 0.0);
      for (std::size_t k = 0; k <= db.size(); ++k) {
        EXPECT_NEAR((*by_worlds)[k], by_pb[k], 1e-10)
            << "seed=" << seed << " itemset=" << itemset.ToString()
            << " k=" << k;
      }
    }
  }
}

TEST(SampleWorldTest, RespectsCertainAndImpossibleUnits) {
  std::vector<Transaction> txns;
  txns.emplace_back(std::vector<ProbItem>{{0, 1.0}, {1, 0.5}});
  UncertainDatabase db(std::move(txns));
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    World w = SampleWorld(db, rng);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_TRUE(std::binary_search(w[0].begin(), w[0].end(), ItemId{0}));
  }
}

TEST(EstimateFrequentProbabilityTest, ConvergesToExact) {
  UncertainDatabase db = MakePaperTable1();
  Rng rng(11);
  // Pr(sup({A}) >= 2) = 0.8 (corrected Table 2).
  const double estimate =
      EstimateFrequentProbability(db, Itemset({kItemA}), 2, 20000, rng);
  EXPECT_NEAR(estimate, 0.8, 0.02);
}

TEST(EstimateFrequentProbabilityTest, ZeroSamplesIsZero) {
  UncertainDatabase db = MakePaperTable1();
  Rng rng(1);
  EXPECT_EQ(EstimateFrequentProbability(db, Itemset({kItemA}), 1, 0, rng), 0.0);
}

}  // namespace
}  // namespace ufim
