#include "algo/apriori_framework.h"

#include <gtest/gtest.h>

#include "gen/benchmark_datasets.h"
#include "prob/poisson_binomial.h"
#include "testing/random_db.h"

namespace ufim {
namespace {

TEST(CollectItemStatsTest, MatchesPaperTable1) {
  UncertainDatabase db = MakePaperTable1();
  auto stats = CollectItemStats(FlatView(db));
  ASSERT_EQ(stats.size(), 6u);
  EXPECT_EQ(stats[0].item, kItemA);
  EXPECT_NEAR(stats[0].esup, 2.1, 1e-12);
  // Σp² for A: 0.64 + 0.64 + 0.25 = 1.53 → var = 2.1 - 1.53 = 0.57.
  EXPECT_NEAR(stats[0].sq_sum, 1.53, 1e-12);
}

TEST(GenerateCandidatesTest, JoinsSharedPrefixes) {
  std::vector<Itemset> freq = {Itemset({1, 2}), Itemset({1, 3}), Itemset({2, 3})};
  std::uint64_t pruned = 0;
  auto cands = GenerateCandidates(freq, &pruned);
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0], Itemset({1, 2, 3}));
  EXPECT_EQ(pruned, 0u);
}

TEST(GenerateCandidatesTest, PrunesWhenSubsetMissing) {
  // {2,3} missing: the join {1,2}+{1,3} must be subset-pruned.
  std::vector<Itemset> freq = {Itemset({1, 2}), Itemset({1, 3})};
  std::uint64_t pruned = 0;
  auto cands = GenerateCandidates(freq, &pruned);
  EXPECT_TRUE(cands.empty());
  EXPECT_EQ(pruned, 1u);
}

TEST(GenerateCandidatesTest, SingletonsJoinFreely) {
  std::vector<Itemset> freq = {Itemset({1}), Itemset({2}), Itemset({4})};
  auto cands = GenerateCandidates(freq, nullptr);
  ASSERT_EQ(cands.size(), 3u);
  EXPECT_EQ(cands[0], Itemset({1, 2}));
  EXPECT_EQ(cands[1], Itemset({1, 4}));
  EXPECT_EQ(cands[2], Itemset({2, 4}));
}

TEST(GenerateCandidatesTest, EmptyInput) {
  EXPECT_TRUE(GenerateCandidates({}, nullptr).empty());
}

TEST(EvaluateCandidatesTest, MatchesDirectExpectedSupport) {
  UncertainDatabase db = testing_util::MakeRandomDatabase({.seed = 3});
  std::vector<Itemset> cands = {Itemset({0, 1}), Itemset({2, 5}),
                                Itemset({0, 3, 6})};
  auto stats = EvaluateCandidates(FlatView(db), cands, /*collect_probs=*/false);
  ASSERT_EQ(stats.size(), cands.size());
  for (std::size_t c = 0; c < cands.size(); ++c) {
    EXPECT_NEAR(stats[c].esup, db.ExpectedSupport(cands[c]), 1e-9)
        << cands[c].ToString();
  }
}

TEST(EvaluateCandidatesTest, CollectsProbsMatchingDatabase) {
  UncertainDatabase db = testing_util::MakeRandomDatabase({.seed = 4});
  std::vector<Itemset> cands = {Itemset({1, 2})};
  auto stats = EvaluateCandidates(FlatView(db), cands, /*collect_probs=*/true);
  auto expected = db.ContainmentProbabilities(cands[0]);
  ASSERT_EQ(stats[0].probs.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(stats[0].probs[i], expected[i], 1e-12);
  }
}

TEST(EvaluateCandidatesTest, DecrementalPruningNeverAffectsFrequentOnes) {
  // With pruning on, candidates that actually reach the threshold must
  // report their exact esup (deactivation only hits hopeless ones).
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = 5, .num_transactions = 2000, .num_items = 6});
  std::vector<Itemset> cands = {Itemset({0, 1}), Itemset({4, 5})};
  const double threshold = 100.0;
  auto pruned = EvaluateCandidates(FlatView(db), cands, false, threshold);
  auto full = EvaluateCandidates(FlatView(db), cands, false);
  for (std::size_t c = 0; c < cands.size(); ++c) {
    if (full[c].esup >= threshold) {
      EXPECT_NEAR(pruned[c].esup, full[c].esup, 1e-9);
    } else {
      // Deactivated or not, it must still be classified infrequent.
      EXPECT_LT(pruned[c].esup, threshold);
    }
  }
}

TEST(MineAprioriGenericTest, ThresholdPredicateFindsPaperExample) {
  UncertainDatabase db = MakePaperTable1();
  AprioriCallbacks cb;
  cb.is_frequent = [&db](double esup, double) { return esup >= 0.5 * db.size(); };
  MiningCounters counters;
  auto found = MineAprioriGeneric(FlatView(db), cb, -1.0, &counters);
  ASSERT_EQ(found.size(), 2u);  // {A}, {C}
  EXPECT_GT(counters.database_scans, 0u);
}

TEST(MineProbabilisticAprioriTest, ChernoffCountersMove) {
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = 6, .num_transactions = 60, .num_items = 6});
  MiningCounters with_bound, without_bound;
  // A vacuous tail function suffices: this test only checks the Chernoff
  // counter plumbing (exactness is covered by exact_miners_test.cc).
  auto zero_tail = [](const std::vector<double>&, std::size_t, std::size_t) {
    return 1.0;
  };
  ProbabilisticLoopOptions loop;
  MineProbabilisticApriori(FlatView(db), 30, 0.9, zero_tail, loop, &without_bound);
  EXPECT_EQ(without_bound.candidates_rejected_bound, 0u);
  loop.use_chernoff = true;
  MineProbabilisticApriori(FlatView(db), 30, 0.9, zero_tail, loop, &with_bound);
  EXPECT_GT(with_bound.candidates_rejected_bound, 0u);
}

TEST(MineProbabilisticAprioriTest, CascadeRejectsSkipTailEvaluations) {
  UncertainDatabase db = testing_util::MakeRandomDatabase(
      {.seed = 7, .num_transactions = 120, .num_items = 6});
  // Exact tail so certified decisions are honest; pft = 0.9 leaves an
  // undecided band only around the threshold.
  auto exact_tail = [](const std::vector<double>& probs, std::size_t k,
                       std::size_t) { return PoissonBinomialTailDP(probs, k); };
  MiningCounters off, bounds;
  ProbabilisticLoopOptions loop;
  auto baseline = MineProbabilisticApriori(FlatView(db), 60, 0.9, exact_tail, loop, &off);
  loop.prefilter = PrefilterMode::kBounds;
  auto screened =
      MineProbabilisticApriori(FlatView(db), 60, 0.9, exact_tail, loop, &bounds);

  // Identical results, fewer exact tails, and the reject/eval split still
  // partitions the candidate count.
  ASSERT_EQ(screened.size(), baseline.size());
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    EXPECT_EQ(screened[i].itemset, baseline[i].itemset);
    EXPECT_EQ(*screened[i].frequent_probability,
              *baseline[i].frequent_probability);
  }
  EXPECT_EQ(off.candidates_rejected_bound, 0u);
  EXPECT_EQ(off.exact_tail_evals, off.candidates_generated);
  EXPECT_GT(bounds.candidates_rejected_bound, 0u);
  EXPECT_LT(bounds.exact_tail_evals, off.exact_tail_evals);
  EXPECT_EQ(bounds.candidates_rejected_bound + bounds.exact_tail_evals,
            bounds.candidates_generated);
}

}  // namespace
}  // namespace ufim
