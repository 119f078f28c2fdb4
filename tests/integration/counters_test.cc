// Semantics of the MiningCounters every experiment row reports: they are
// measurement instruments, so their meaning is pinned by tests.
#include <gtest/gtest.h>

#include "core/miner_registry.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "testing/random_db.h"
#include "testing/registry_mine.h"

namespace ufim {
namespace {

using testing_util::MineWith;

TEST(CountersTest, UAprioriScansOncePerLevelPlusItems) {
  // Paper Table 1 at min_esup 0.25: frequent itemsets reach size 2, so
  // scans = 1 (items) + 1 (pairs) + 1 (triple candidates, none survive).
  UncertainDatabase db = MakePaperTable1();
  ExpectedSupportParams params;
  params.min_esup = 0.25;
  auto result =
      MinerRegistry::Global().Create("UApriori")->Mine(FlatView(db), params);
  ASSERT_TRUE(result.ok());
  std::size_t max_size = 0;
  for (const FrequentItemset& fi : result->itemsets()) {
    max_size = std::max(max_size, fi.itemset.size());
  }
  EXPECT_GE(result->counters().database_scans, max_size);
  EXPECT_LE(result->counters().database_scans, max_size + 1);
}

TEST(CountersTest, CandidatesGeneratedAtLeastResults) {
  // Every result was once a candidate, for every miner.
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = 91, .num_transactions = 30, .num_items = 8});
  ExpectedSupportParams eparams;
  eparams.min_esup = 0.1;
  for (const std::string& algo : MinerRegistry::Global().NamesOf(
           TaskFamily::kExpectedSupport, /*production_only=*/true)) {
    auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), eparams);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->counters().candidates_generated, result->size())
        << algo;
  }
  ProbabilisticParams pparams;
  pparams.min_sup = 0.2;
  pparams.pft = 0.5;
  for (std::string_view algo : {"DPNB", "DPB", "DCNB", "DCB"}) {
    auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), pparams);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->counters().candidates_generated, result->size())
        << algo;
  }
}

TEST(CountersTest, ChernoffPlusExactEvalsCoverAllCandidates) {
  // For the bounded exact miners each candidate is either pruned by the
  // Chernoff filter or evaluated exactly — the two counters partition
  // the candidate count.
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = 92, .num_transactions = 80, .num_items = 8});
  ProbabilisticParams params;
  params.min_sup = 0.3;
  params.pft = 0.9;
  for (std::string_view algo : {"DPB", "DCB"}) {
    auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), params);
    ASSERT_TRUE(result.ok());
    const MiningCounters& c = result->counters();
    EXPECT_EQ(c.candidates_rejected_bound + c.exact_tail_evals,
              c.candidates_generated)
        << algo;
  }
}

TEST(CountersTest, UnboundedMinersEvaluateEverything) {
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = 93, .num_transactions = 50, .num_items = 7});
  ProbabilisticParams params;
  params.min_sup = 0.4;
  params.pft = 0.9;
  for (std::string_view algo : {"DPNB", "DCNB"}) {
    auto result = MinerRegistry::Global().Create(algo)->Mine(FlatView(db), params);
    ASSERT_TRUE(result.ok());
    const MiningCounters& c = result->counters();
    EXPECT_EQ(c.candidates_rejected_bound, 0u) << algo;
    EXPECT_EQ(c.exact_tail_evals, c.candidates_generated)
        << algo;
  }
}

TEST(CountersTest, AprioriSubsetPruningCountsJoinsDropped) {
  // A database engineered so that {0,1} and {0,2} are frequent but {1,2}
  // is not: the join {0,1,2} must be subset-pruned and counted.
  std::vector<Transaction> txns;
  for (int i = 0; i < 10; ++i) {
    txns.emplace_back(std::vector<ProbItem>{{0, 1.0}, {1, i % 2 ? 1.0 : 0.9}});
    txns.emplace_back(std::vector<ProbItem>{{0, 1.0}, {2, i % 2 ? 0.9 : 1.0}});
  }
  UncertainDatabase db(std::move(txns));
  ExpectedSupportParams params;
  params.min_esup = 0.4;  // abs 8: {0}, {1}, {2}, {0,1}, {0,2} qualify
  auto result =
      MinerRegistry::Global().Create("UApriori")->Mine(FlatView(db), params);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Find(Itemset({0, 1, 2})), nullptr);
  EXPECT_GE(result->counters().candidates_pruned_apriori, 1u);
}

TEST(FftThresholdInvarianceTest, MiningResultsIdenticalAcrossThresholds) {
  // The FFT threshold is a performance knob only: any value must yield
  // bit-comparable frequent probabilities.
  UncertainDatabase db = AssignGaussianProbabilities(
      MakeAccidentLike(400, 21), 0.5, 0.5, 22);
  ProbabilisticParams params;
  params.min_sup = 0.25;
  params.pft = 0.9;
  MinerOptions options;
  options.dc_fft_threshold = 64;
  auto reference = MineWith("DCNB", FlatView(db), params, options);
  ASSERT_TRUE(reference.ok());
  for (std::size_t threshold : {1u, 16u, 1024u, 1u << 30}) {
    options.dc_fft_threshold = threshold;
    auto other = MineWith("DCNB", FlatView(db), params, options);
    ASSERT_TRUE(other.ok());
    ASSERT_EQ(other->size(), reference->size()) << "threshold=" << threshold;
    for (const FrequentItemset& fi : reference->itemsets()) {
      const FrequentItemset* hit = other->Find(fi.itemset);
      ASSERT_NE(hit, nullptr);
      EXPECT_NEAR(*hit->frequent_probability, *fi.frequent_probability, 1e-9)
          << "threshold=" << threshold;
    }
  }
}

}  // namespace
}  // namespace ufim
