#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "testing/random_db.h"
#include "testing/registry_mine.h"

namespace ufim {
namespace {

using testing_util::MineWith;

/// MinerOptions for `samples` samples per candidate from `seed`.
MinerOptions Sampling(std::size_t samples, std::uint64_t seed,
                      std::size_t threads = 1) {
  MinerOptions options;
  options.mc_samples = samples;
  options.mc_seed = seed;
  options.num_threads = threads;
  return options;
}

TEST(MCSamplingTest, Metadata) {
  std::unique_ptr<Miner> miner = MinerRegistry::Global().Create("MCSampling");
  ASSERT_NE(miner, nullptr);
  EXPECT_EQ(miner->name(), "MCSampling");
  EXPECT_FALSE(miner->is_exact());
}

TEST(MCSamplingTest, RejectsZeroSamples) {
  UncertainDatabase db = MakePaperTable1();
  ProbabilisticParams params;
  MinerOptions none;
  none.mc_samples = 0;
  EXPECT_FALSE(MineWith("MCSampling", FlatView(db), params, none).ok());
}

TEST(MCSamplingTest, DeterministicInSeed) {
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = 71, .num_transactions = 30, .num_items = 6});
  ProbabilisticParams params;
  params.min_sup = 0.3;
  params.pft = 0.6;
  auto a = MineWith("MCSampling", FlatView(db), params, Sampling(256, 5));
  auto b = MineWith("MCSampling", FlatView(db), params, Sampling(256, 5));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->ItemsetsOnly(), b->ItemsetsOnly());
  for (std::size_t i = 0; i < a->size(); ++i) {
    EXPECT_EQ(*(*a)[i].frequent_probability, *(*b)[i].frequent_probability);
  }
}

TEST(MCSamplingTest, PaperExample2WithManySamples) {
  // Pr(sup(A) >= 2) = 0.8 exactly; 20k samples put the estimate within
  // a tight interval with overwhelming probability.
  UncertainDatabase db = MakePaperTable1();
  ProbabilisticParams params;
  params.min_sup = 0.5;
  params.pft = 0.7;
  auto result = MineWith("MCSampling", FlatView(db), params,
                         Sampling(20000, 1));
  ASSERT_TRUE(result.ok());
  const FrequentItemset* a = result->Find(Itemset({kItemA}));
  ASSERT_NE(a, nullptr);
  EXPECT_NEAR(*a->frequent_probability, 0.8, 0.02);
}

struct AgreementCase {
  std::uint64_t seed;
  double min_sup;
  double pft;
};

class MCSamplingAgreementTest : public ::testing::TestWithParam<AgreementCase> {};

// Against the exact oracle, sampling with a healthy budget must reach
// high precision/recall: only itemsets whose true frequent probability
// lies within the sampling noise band of pft can flip.
TEST_P(MCSamplingAgreementTest, HighAgreementWithExact) {
  const AgreementCase c = GetParam();
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = c.seed, .num_transactions = 40, .num_items = 7});
  ProbabilisticParams params;
  params.min_sup = c.min_sup;
  params.pft = c.pft;
  auto exact = MineWith("BruteForceProbabilistic", FlatView(db), params);
  auto sampled = MineWith("MCSampling", FlatView(db), params,
                          Sampling(4096, c.seed));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(sampled.ok());
  PrecisionRecall pr = ComputePrecisionRecall(*sampled, *exact);
  EXPECT_GE(pr.precision, 0.9) << "seed=" << c.seed;
  EXPECT_GE(pr.recall, 0.9) << "seed=" << c.seed;
  // Estimated probabilities are close to the exact ones.
  for (const FrequentItemset& fi : sampled->itemsets()) {
    const FrequentItemset* truth = exact->Find(fi.itemset);
    if (truth == nullptr) continue;  // borderline false positive
    EXPECT_NEAR(*fi.frequent_probability, *truth->frequent_probability, 0.05)
        << fi.itemset.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomSweep, MCSamplingAgreementTest,
    ::testing::Values(AgreementCase{1, 0.25, 0.5}, AgreementCase{2, 0.3, 0.9},
                      AgreementCase{3, 0.2, 0.7}, AgreementCase{4, 0.35, 0.3},
                      AgreementCase{5, 0.15, 0.8}, AgreementCase{6, 0.4, 0.6}));

TEST(MCSamplingTest, ChernoffPruningStillSound) {
  // MCSampling runs with Chernoff pruning on; pruned candidates are
  // certainly infrequent, so enabling it cannot cost recall vs exact.
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = 81, .num_transactions = 60, .num_items = 6});
  ProbabilisticParams params;
  params.min_sup = 0.4;
  params.pft = 0.9;
  auto exact = MineWith("BruteForceProbabilistic", FlatView(db), params);
  auto sampled = MineWith("MCSampling", FlatView(db), params,
                          Sampling(8192, 2));
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(sampled.ok());
  PrecisionRecall pr = ComputePrecisionRecall(*sampled, *exact);
  EXPECT_GE(pr.recall, 0.99);
}

TEST(MCSamplingTest, ParallelTailsBitIdenticalAcrossThreadCounts) {
  // Each candidate samples from a private RNG stream derived from
  // (seed, stable candidate ordinal), so the estimates cannot depend on
  // which thread evaluates which candidate — results must match the
  // single-thread run exactly, probabilities included.
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = 91, .num_transactions = 50, .num_items = 8});
  ProbabilisticParams params;
  params.min_sup = 0.2;
  params.pft = 0.5;
  auto baseline = MineWith("MCSampling", FlatView(db), params,
                           Sampling(512, 9, /*threads=*/1));
  ASSERT_TRUE(baseline.ok());
  ASSERT_FALSE(baseline->empty());
  for (std::size_t threads : {2u, 8u}) {
    auto run = MineWith("MCSampling", FlatView(db), params,
                        Sampling(512, 9, threads));
    ASSERT_TRUE(run.ok());
    ASSERT_EQ(run->size(), baseline->size()) << threads << " threads";
    for (std::size_t i = 0; i < baseline->size(); ++i) {
      EXPECT_EQ((*run)[i].itemset, (*baseline)[i].itemset);
      EXPECT_EQ(*(*run)[i].frequent_probability,
                *(*baseline)[i].frequent_probability)
          << (*baseline)[i].itemset.ToString() << " @" << threads;
    }
    EXPECT_EQ(run->counters().exact_tail_evals,
              baseline->counters().exact_tail_evals);
    EXPECT_EQ(run->counters().candidates_rejected_bound,
              baseline->counters().candidates_rejected_bound);
  }
}

TEST(MCSamplingTest, EmptyDatabase) {
  UncertainDatabase db;
  ProbabilisticParams params;
  auto result = MineWith("MCSampling", FlatView(db), params);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

}  // namespace
}  // namespace ufim
