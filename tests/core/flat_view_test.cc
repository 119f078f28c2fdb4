#include "core/flat_view.h"

#include <gtest/gtest.h>

#include <vector>

#include "algo/apriori_framework.h"
#include "common/rng.h"
#include "gen/benchmark_datasets.h"
#include "testing/random_db.h"

namespace ufim {
namespace {

using testing_util::MakeRandomDatabase;
using testing_util::RandomDbSpec;

/// A spread of random itemsets over the database's item universe: all
/// singletons, all pairs, and a handful of larger sets.
std::vector<Itemset> SampleItemsets(const UncertainDatabase& db,
                                    std::uint64_t seed) {
  const std::size_t n = db.num_items();
  std::vector<Itemset> out;
  for (ItemId i = 0; i < n; ++i) out.push_back(Itemset{i});
  for (ItemId i = 0; i < n; ++i) {
    for (ItemId j = i + 1; j < n; ++j) out.push_back(Itemset({i, j}));
  }
  Rng rng(seed);
  for (int k = 0; k < 8; ++k) {
    std::vector<ItemId> items;
    for (ItemId i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.4)) items.push_back(i);
    }
    if (items.size() >= 2) out.push_back(Itemset(std::move(items)));
  }
  return out;
}

TEST(FlatViewTest, VerticalPostingsMatchTransactionMembership) {
  // Database <-> view round trip: every posting is a unit of its
  // transaction (ascending tids, so no unit is listed twice), and the
  // postings are exactly as many as the database's units.
  UncertainDatabase db = MakeRandomDatabase({.seed = 12});
  FlatView view(db);
  ASSERT_EQ(view.num_transactions(), db.size());
  EXPECT_EQ(view.num_items(), db.num_items());
  std::size_t db_units = 0;
  for (const Transaction& t : db) db_units += t.size();
  std::size_t total_postings = 0;
  std::vector<TransactionId> tids;
  std::vector<double> probs;
  for (ItemId item = 0; item < db.num_items(); ++item) {
    view.CopyPostings(item, tids, probs);
    ASSERT_EQ(tids.size(), probs.size());
    total_postings += tids.size();
    for (std::size_t i = 0; i < tids.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(tids[i - 1], tids[i]) << "tids must ascend";
      }
      EXPECT_GT(probs[i], 0.0);
      EXPECT_EQ(probs[i], db[tids[i]].ProbabilityOf(item));
    }
  }
  EXPECT_EQ(total_postings, db_units);
  EXPECT_EQ(view.num_units(), db_units);
}

TEST(FlatViewTest, CachedItemMomentsMatchScanBasedSupports) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    UncertainDatabase db = MakeRandomDatabase(
        {.seed = seed, .num_transactions = 40, .num_items = 10});
    FlatView view(db);
    for (ItemId item = 0; item < db.num_items(); ++item) {
      EXPECT_NEAR(view.ItemExpectedSupport(item), db.ItemExpectedSupport(item),
                  1e-12);
    }
  }
}

TEST(FlatViewTest, ExpectedSupportMatchesScanOnRandomizedDatabases) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    UncertainDatabase db = MakeRandomDatabase(
        {.seed = seed, .num_transactions = 30, .num_items = 9});
    FlatView view(db);
    for (const Itemset& itemset : SampleItemsets(db, seed * 7)) {
      EXPECT_NEAR(view.ExpectedSupport(itemset), db.ExpectedSupport(itemset),
                  1e-9)
          << itemset.ToString() << " seed " << seed;
    }
  }
}

TEST(FlatViewTest, ContainmentProbabilitiesMatchScanOnRandomizedDatabases) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    UncertainDatabase db = MakeRandomDatabase(
        {.seed = seed, .num_transactions = 30, .num_items = 9});
    FlatView view(db);
    for (const Itemset& itemset : SampleItemsets(db, seed * 11)) {
      const std::vector<double> expected = db.ContainmentProbabilities(itemset);
      const std::vector<double> actual = view.ContainmentProbabilities(itemset);
      ASSERT_EQ(actual.size(), expected.size()) << itemset.ToString();
      for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_NEAR(actual[i], expected[i], 1e-12) << itemset.ToString();
      }
    }
  }
}

TEST(FlatViewTest, EvaluateCandidatesMatchesRowScanBaseline) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    UncertainDatabase db = MakeRandomDatabase(
        {.seed = seed, .num_transactions = 50, .num_items = 8});
    FlatView view(db);
    std::vector<Itemset> candidates;
    for (const Itemset& s : SampleItemsets(db, seed * 13)) {
      if (s.size() >= 2) candidates.push_back(s);
    }
    auto columnar =
        EvaluateCandidates(view, candidates, /*collect_probs=*/true);
    ASSERT_EQ(columnar.size(), candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      // Reference moments from a row-by-row scan of the database.
      const std::vector<double> rows =
          db.ContainmentProbabilities(candidates[c]);
      double esup = 0.0;
      double sq_sum = 0.0;
      for (double p : rows) {
        esup += p;
        sq_sum += p * p;
      }
      EXPECT_NEAR(columnar[c].esup, esup, 1e-9) << candidates[c].ToString();
      EXPECT_NEAR(columnar[c].sq_sum, sq_sum, 1e-9);
      ASSERT_EQ(columnar[c].probs.size(), rows.size())
          << candidates[c].ToString();
      for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_NEAR(columnar[c].probs[i], rows[i], 1e-12);
      }
    }
  }
}

TEST(FlatViewTest, PrefixSliceMatchesPrefixDatabase) {
  UncertainDatabase db = MakeRandomDatabase(
      {.seed = 21, .num_transactions = 40, .num_items = 8});
  FlatView full(db);
  for (std::size_t n : {0u, 1u, 17u, 40u, 100u}) {
    FlatView sliced = full.Slice(0, n);
    UncertainDatabase prefix_db = db.Prefix(n);
    ASSERT_EQ(sliced.num_transactions(), prefix_db.size());
    for (const Itemset& itemset : SampleItemsets(db, 5)) {
      EXPECT_NEAR(sliced.ExpectedSupport(itemset),
                  prefix_db.ExpectedSupport(itemset), 1e-9)
          << "prefix " << n << " " << itemset.ToString();
    }
    for (ItemId item = 0; item < db.num_items(); ++item) {
      EXPECT_NEAR(sliced.ItemExpectedSupport(item),
                  prefix_db.ItemExpectedSupport(item), 1e-12);
    }
  }
}

TEST(FlatViewTest, PrefixSliceSharesStorage) {
  UncertainDatabase db = MakeRandomDatabase({.seed = 22});
  FlatView full(db);
  FlatView sliced = full.Slice(0, db.size() / 2);
  EXPECT_FALSE(sliced.IsFullView());
  EXPECT_TRUE(full.IsFullView());
  // Same underlying arrays: a prefix slice's postings start where the
  // full view's do.
  ASSERT_GT(sliced.num_transactions(), 0u);
  for (ItemId item = 0; item < db.num_items(); ++item) {
    if (sliced.PostingCount(item) == 0) continue;
    EXPECT_EQ(sliced.PostingSegments(item).seg[0].tids,
              full.PostingSegments(item).seg[0].tids);
    EXPECT_EQ(sliced.PostingSegments(item).seg[0].probs,
              full.PostingSegments(item).seg[0].probs);
  }
}

TEST(FlatViewTest, EmptyDatabase) {
  FlatView view((UncertainDatabase()));
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.num_units(), 0u);
  EXPECT_EQ(view.num_items(), 0u);
  EXPECT_TRUE(view.ContainmentProbabilities(Itemset{3}).empty());
  EXPECT_EQ(view.ItemExpectedSupport(3), 0.0);
}

TEST(FlatViewTest, PaperTable1ItemSupports) {
  UncertainDatabase db = MakePaperTable1();
  FlatView view(db);
  // esup(A) = 2.1 (paper Example 1).
  EXPECT_NEAR(view.ItemExpectedSupport(kItemA), 2.1, 1e-12);
}

}  // namespace
}  // namespace ufim
