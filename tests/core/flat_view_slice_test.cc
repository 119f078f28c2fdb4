#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "core/flat_view.h"
#include "gen/benchmark_datasets.h"
#include "testing/random_db.h"

namespace ufim {
namespace {

using testing_util::MakeRandomDatabase;

/// Ground truth for Slice(lo, hi): a database holding only the
/// transactions [lo, hi) of `db`.
UncertainDatabase SubDatabase(const UncertainDatabase& db, std::size_t lo,
                              std::size_t hi) {
  std::vector<Transaction> txns;
  for (std::size_t t = lo; t < hi && t < db.size(); ++t) {
    txns.push_back(db[t]);
  }
  return UncertainDatabase(std::move(txns));
}

std::vector<Itemset> SampleItemsets(std::size_t num_items, std::uint64_t seed) {
  std::vector<Itemset> out;
  for (ItemId i = 0; i < num_items; ++i) out.push_back(Itemset{i});
  for (ItemId i = 0; i + 1 < num_items; ++i) {
    out.push_back(Itemset({i, static_cast<ItemId>(i + 1)}));
  }
  Rng rng(seed);
  for (int k = 0; k < 6; ++k) {
    std::vector<ItemId> items;
    for (ItemId i = 0; i < num_items; ++i) {
      if (rng.Bernoulli(0.35)) items.push_back(i);
    }
    if (items.size() >= 2) out.push_back(Itemset(std::move(items)));
  }
  return out;
}

TEST(FlatViewSliceTest, SliceMatchesScanBasedGroundTruth) {
  UncertainDatabase db = MakeRandomDatabase(
      {.seed = 31, .num_transactions = 60, .num_items = 9});
  FlatView full(db);
  const std::size_t cuts[] = {0, 1, 13, 30, 59, 60};
  for (std::size_t lo : cuts) {
    for (std::size_t hi : cuts) {
      if (hi < lo) continue;
      FlatView slice = full.Slice(lo, hi);
      UncertainDatabase expect = SubDatabase(db, lo, hi);
      ASSERT_EQ(slice.num_transactions(), expect.size());
      EXPECT_EQ(slice.begin_tid(), lo);
      EXPECT_EQ(slice.end_tid(), hi);
      EXPECT_EQ(slice.empty(), expect.size() == 0);

      std::size_t units = 0;
      for (std::size_t t = 0; t < expect.size(); ++t) units += expect[t].size();
      EXPECT_EQ(slice.num_units(), units);

      std::vector<TransactionId> tids;
      std::vector<double> probs;
      for (ItemId item = 0; item < db.num_items(); ++item) {
        EXPECT_NEAR(slice.ItemExpectedSupport(item),
                    expect.ItemExpectedSupport(item), 1e-12)
            << "item " << item << " [" << lo << "," << hi << ")";
        // Posting tids of a slice are global ids within [lo, hi).
        slice.CopyPostings(item, tids, probs);
        for (TransactionId tid : tids) {
          EXPECT_GE(tid, lo);
          EXPECT_LT(tid, hi);
        }
      }
      for (const Itemset& itemset : SampleItemsets(db.num_items(), 77)) {
        EXPECT_NEAR(slice.ExpectedSupport(itemset),
                    expect.ExpectedSupport(itemset), 1e-9)
            << itemset.ToString() << " [" << lo << "," << hi << ")";
      }
    }
  }
}

TEST(FlatViewSliceTest, PostingsKeepGlobalIds) {
  UncertainDatabase db = MakeRandomDatabase({.seed = 32});
  FlatView full(db);
  FlatView slice = full.Slice(3, 9);
  // Every unit of the sliced transactions appears as a posting under its
  // global tid, and nothing else does.
  std::size_t units = 0;
  for (TransactionId t = slice.begin_tid(); t < slice.end_tid(); ++t) {
    units += db[t].size();
  }
  std::size_t postings = 0;
  std::vector<TransactionId> tids;
  std::vector<double> probs;
  for (ItemId item = 0; item < db.num_items(); ++item) {
    slice.CopyPostings(item, tids, probs);
    ASSERT_EQ(tids.size(), probs.size());
    postings += tids.size();
    for (std::size_t i = 0; i < tids.size(); ++i) {
      ASSERT_GE(tids[i], slice.begin_tid());
      ASSERT_LT(tids[i], slice.end_tid());
      EXPECT_EQ(probs[i], db[tids[i]].ProbabilityOf(item));
    }
  }
  EXPECT_EQ(postings, units);
}

TEST(FlatViewSliceTest, ShardUnionInvariants) {
  // Any partition of the view into contiguous shards must conserve the
  // additive quantities: unit counts and posting lengths exactly,
  // expected supports up to summation rounding.
  UncertainDatabase db = MakeRandomDatabase(
      {.seed = 33, .num_transactions = 53, .num_items = 8});
  FlatView full(db);
  const std::size_t n = full.num_transactions();
  for (std::size_t shards : {2u, 3u, 7u, 53u, 80u}) {
    std::vector<FlatView> parts;
    for (std::size_t s = 0; s < shards; ++s) {
      parts.push_back(full.Slice(s * n / shards, (s + 1) * n / shards));
    }
    // The shards tile [0, n): adjacent boundaries meet, no overlap.
    EXPECT_EQ(parts.front().begin_tid(), 0u);
    EXPECT_EQ(parts.back().end_tid(), n);
    std::size_t units = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      if (s > 0) {
        EXPECT_EQ(parts[s].begin_tid(), parts[s - 1].end_tid());
      }
      units += parts[s].num_units();
    }
    EXPECT_EQ(units, full.num_units());

    for (ItemId item = 0; item < db.num_items(); ++item) {
      std::size_t postings = 0;
      double esup = 0.0;
      for (const FlatView& part : parts) {
        postings += part.PostingSegments(item).total;
        esup += part.ItemExpectedSupport(item);
      }
      EXPECT_EQ(postings, full.PostingSegments(item).total) << "item " << item;
      EXPECT_NEAR(esup, full.ItemExpectedSupport(item), 1e-9) << "item " << item;
    }
    for (const Itemset& itemset : SampleItemsets(db.num_items(), 91)) {
      double esup = 0.0;
      for (const FlatView& part : parts) esup += part.ExpectedSupport(itemset);
      EXPECT_NEAR(esup, full.ExpectedSupport(itemset), 1e-9)
          << itemset.ToString() << " shards " << shards;
    }
  }
}

TEST(FlatViewSliceTest, SlicesCompose) {
  UncertainDatabase db = MakeRandomDatabase(
      {.seed = 34, .num_transactions = 40, .num_items = 8});
  FlatView full(db);
  // Slice offsets are view-relative: slicing a slice addresses its own
  // transactions, not the database's.
  FlatView mid = full.Slice(10, 30);
  FlatView inner = mid.Slice(5, 15);
  EXPECT_EQ(inner.begin_tid(), 15u);
  EXPECT_EQ(inner.end_tid(), 25u);
  UncertainDatabase expect = SubDatabase(db, 15, 25);
  for (ItemId item = 0; item < db.num_items(); ++item) {
    EXPECT_NEAR(inner.ItemExpectedSupport(item),
                expect.ItemExpectedSupport(item), 1e-12);
  }
  // Clamping: out-of-range and inverted bounds degrade gracefully.
  EXPECT_EQ(mid.Slice(15, 99).num_transactions(), 5u);
  EXPECT_EQ(mid.Slice(99, 99).num_transactions(), 0u);
  EXPECT_TRUE(mid.Slice(12, 3).empty());
}

TEST(FlatViewSliceTest, PrefixIsSliceFromZero) {
  UncertainDatabase db = MakeRandomDatabase({.seed = 35});
  FlatView full(db);
  for (std::size_t n : {0u, 1u, 5u, 12u}) {
    const FlatView prefix(db.Prefix(n));
    FlatView slice = full.Slice(0, n);
    EXPECT_EQ(prefix.begin_tid(), slice.begin_tid());
    EXPECT_EQ(prefix.end_tid(), slice.end_tid());
    EXPECT_EQ(prefix.num_units(), slice.num_units());
  }
}

TEST(FlatViewSliceTest, FullViewDetection) {
  UncertainDatabase db = MakeRandomDatabase({.seed = 36});
  FlatView full(db);
  EXPECT_TRUE(full.IsFullView());
  EXPECT_TRUE(full.Slice(0, db.size()).IsFullView());
  EXPECT_FALSE(full.Slice(1, db.size()).IsFullView());
  EXPECT_FALSE(full.Slice(0, db.size() - 1).IsFullView());
  // A mid-slice shares storage with the full view.
  FlatView mid = full.Slice(2, 6);
  ASSERT_GT(mid.num_transactions(), 0u);
  std::size_t checked = 0;
  for (ItemId item = 0; item < db.num_items(); ++item) {
    const SegmentedPostings a = mid.PostingSegments(item);
    const SegmentedPostings b = full.PostingSegments(item);
    if (a.count == 0) continue;
    ++checked;
    // The slice's segment is a window into the full view's arrays.
    ASSERT_EQ(b.count, 1u);
    EXPECT_GE(a.seg[0].tids, b.seg[0].tids);
    EXPECT_LE(a.seg[0].tids + a.seg[0].len, b.seg[0].tids + b.seg[0].len);
    EXPECT_EQ(a.seg[0].probs - b.seg[0].probs, a.seg[0].tids - b.seg[0].tids);
  }
  EXPECT_GT(checked, 0u);
}

TEST(FlatViewSliceTest, PaperTable1MiddleSlice) {
  UncertainDatabase db = MakePaperTable1();
  FlatView view(db);
  // Transactions {T2} of the paper's Table 1: esup over a single-row
  // slice equals that row's probabilities.
  FlatView t2 = view.Slice(1, 2);
  ASSERT_EQ(t2.num_transactions(), 1u);
  for (ItemId item = 0; item < view.num_items(); ++item) {
    EXPECT_NEAR(t2.ItemExpectedSupport(item), db[1].ProbabilityOf(item), 1e-12);
  }
}

}  // namespace
}  // namespace ufim
