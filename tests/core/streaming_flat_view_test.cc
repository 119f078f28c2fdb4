// Edge cases of the streaming delta path: append-to-empty, unseen-item
// universe growth, compaction trigger boundaries, slices cut across the
// base/delta seam, seam-straddling join batches, and moment-cache
// consistency across appends and compactions. The broad randomized
// coverage lives in the streaming differential harness
// (tests/integration/streaming_equivalence_test.cc); these tests pin the
// named corners deterministically.
#include "core/streaming_flat_view.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/flat_view.h"
#include "core/itemset.h"
#include "core/uncertain_database.h"
#include "testing/random_db.h"

namespace ufim {
namespace {

using testing_util::MakeStreamBatch;
using testing_util::StreamBatchSpec;

Transaction Txn(std::vector<ProbItem> units) {
  return Transaction(std::move(units));
}

/// Asserts that `view` is observationally identical — bit for bit — to a
/// FlatView built from scratch over the same transactions: layouts,
/// cached moments, and join results may not reveal the delta.
void ExpectMatchesRebuild(const FlatView& view,
                          const std::vector<Transaction>& txns,
                          const std::string& label) {
  const UncertainDatabase db{std::vector<Transaction>(txns)};
  const FlatView rebuilt(db);

  ASSERT_EQ(view.num_transactions(), rebuilt.num_transactions()) << label;
  EXPECT_EQ(view.num_items(), rebuilt.num_items()) << label;
  EXPECT_EQ(view.num_units(), rebuilt.num_units()) << label;

  std::vector<TransactionId> at, bt;
  std::vector<double> ap, bp;
  for (std::size_t i = 0; i < view.num_items(); ++i) {
    const ItemId item = static_cast<ItemId>(i);
    EXPECT_EQ(view.PostingCount(item), rebuilt.PostingCount(item)) << label;
    view.CopyPostings(item, at, ap);
    rebuilt.CopyPostings(item, bt, bp);
    EXPECT_EQ(at, bt) << label << " item=" << i;
    EXPECT_EQ(ap, bp) << label << " item=" << i;
    EXPECT_EQ(view.ItemExpectedSupport(item), rebuilt.ItemExpectedSupport(item))
        << label << " item=" << i;
    EXPECT_EQ(view.ItemSquaredSum(item), rebuilt.ItemSquaredSum(item))
        << label << " item=" << i;
  }

  // Joins: every pair (and one triple) must produce identical
  // containment vectors — same matches, same product bits.
  for (std::size_t i = 0; i + 1 < view.num_items(); ++i) {
    const Itemset pair{static_cast<ItemId>(i), static_cast<ItemId>(i + 1)};
    EXPECT_EQ(view.ContainmentProbabilities(pair),
              rebuilt.ContainmentProbabilities(pair))
        << label << " pair=" << pair.ToString();
  }
  if (view.num_items() >= 3) {
    const Itemset triple{0, 1, 2};
    EXPECT_EQ(view.ContainmentProbabilities(triple),
              rebuilt.ContainmentProbabilities(triple))
        << label;
  }
}

TEST(StreamingFlatViewTest, AppendToEmptyView) {
  StreamingFlatView sv;
  sv.AssertSoleWriter();  // single-threaded test body: sole writer
  EXPECT_EQ(sv.num_transactions(), 0u);
  EXPECT_EQ(sv.num_items(), 0u);
  EXPECT_FALSE(sv.has_delta());
  EXPECT_TRUE(sv.Snapshot().view().empty());

  const std::vector<Transaction> batch = {
      Txn({{2, 0.5}, {4, 0.25}}), Txn({}), Txn({{0, 1.0}, {2, 0.75}})};
  sv.Append(FlatView(batch));
  EXPECT_EQ(sv.num_transactions(), 3u);
  EXPECT_EQ(sv.num_items(), 5u);
  EXPECT_TRUE(sv.has_delta());
  ExpectMatchesRebuild(sv.Snapshot().view(), batch, "append-to-empty");
}

TEST(StreamingFlatViewTest, UnseenItemsGrowTheUniverse) {
  const std::vector<Transaction> base = {Txn({{0, 0.9}, {1, 0.4}}),
                                         Txn({{1, 0.8}})};
  StreamingFlatView sv{UncertainDatabase{std::vector<Transaction>(base)}};
  sv.AssertSoleWriter();  // single-threaded test body: sole writer
  EXPECT_EQ(sv.num_items(), 2u);

  std::vector<Transaction> all = base;
  const std::vector<Transaction> batch = {Txn({{1, 0.5}, {7, 0.6}}),
                                          Txn({{3, 0.2}})};
  all.insert(all.end(), batch.begin(), batch.end());
  sv.Append(FlatView(batch));
  EXPECT_EQ(sv.num_items(), 8u);
  // The new items live purely in the delta region.
  const FlatView view = sv.Snapshot().view();
  EXPECT_EQ(view.PostingCount(7), 1u);
  EXPECT_EQ(view.PostingCount(3), 1u);
  EXPECT_EQ(view.ItemExpectedSupport(7), 0.6);
  ExpectMatchesRebuild(view, all, "unseen-items");

  // ... and survive compaction into the base CSR.
  sv.Compact();
  EXPECT_FALSE(sv.has_delta());
  ExpectMatchesRebuild(sv.Snapshot().view(), all, "unseen-items-compacted");
}

TEST(StreamingFlatViewTest, CompactionPolicyBoundaries) {
  // Strict-greater trigger: delta == ratio * base stays, one more unit
  // compacts.
  CompactionPolicy policy;
  policy.max_delta_ratio = 0.5;
  policy.min_delta_units = 0;
  EXPECT_FALSE(policy.ShouldCompact(/*base_units=*/100, /*delta_units=*/0,
                                    /*delta_txns=*/0));
  EXPECT_FALSE(policy.ShouldCompact(100, 50, 10));
  EXPECT_TRUE(policy.ShouldCompact(100, 51, 10));

  // min_delta_units gates small deltas even over a tiny base.
  policy.min_delta_units = 8;
  EXPECT_FALSE(policy.ShouldCompact(0, 7, 3));
  EXPECT_TRUE(policy.ShouldCompact(0, 8, 3));

  // With a positive ratio the transaction count is irrelevant: a
  // unit-less delta (only empty transactions appended) never trips the
  // unit-ratio trigger.
  EXPECT_FALSE(policy.ShouldCompact(100, 0, 5));

  // Ratio 0 means always-contiguous: any appended transaction — even a
  // unit-less one — folds, regardless of the min_delta_units gate.
  policy.max_delta_ratio = 0.0;
  EXPECT_TRUE(policy.ShouldCompact(100, 1, 1));
  EXPECT_TRUE(policy.ShouldCompact(100, 0, 2));
  EXPECT_FALSE(policy.ShouldCompact(100, 0, 0));

  // Any negative ratio is the same always-contiguous mode, not a
  // third behavior (and ufim_cli rejects negatives before they reach
  // a policy).
  policy.max_delta_ratio = -0.75;
  EXPECT_TRUE(policy.ShouldCompact(100, 1, 1));
  EXPECT_TRUE(policy.ShouldCompact(100, 0, 2));
  EXPECT_FALSE(policy.ShouldCompact(100, 0, 0));
}

TEST(StreamingFlatViewTest, AutomaticCompactionAtEveryRatio) {
  for (const double ratio : {0.0, 0.25, 1.0, 1e9}) {
    CompactionPolicy policy;
    policy.max_delta_ratio = ratio;
    policy.min_delta_units = 4;
    StreamingFlatView sv{policy};
    sv.AssertSoleWriter();  // single-threaded test body: sole writer
    std::vector<Transaction> all;
    Rng rng(99);
    StreamBatchSpec spec;
    spec.num_items = 6;
    for (int round = 0; round < 8; ++round) {
      const std::vector<Transaction> batch = MakeStreamBatch(rng, spec, 3);
      all.insert(all.end(), batch.begin(), batch.end());
      const bool compacted = sv.Append(FlatView(batch));
      EXPECT_EQ(compacted, !sv.has_delta() && !all.empty() &&
                               sv.compactions() > 0)
          << "ratio=" << ratio << " round=" << round;
      // Whatever the policy did, the view stays equivalent to a rebuild.
      ExpectMatchesRebuild(sv.Snapshot().view(), all,
                           "auto-compact ratio=" + std::to_string(ratio) +
                               " round=" + std::to_string(round));
      // The policy invariant itself: a surviving delta never exceeds
      // the trigger.
      EXPECT_FALSE(policy.ShouldCompact(sv.num_units() - sv.delta_units(),
                                        sv.delta_units(),
                                        sv.delta_transactions()))
          << "ratio=" << ratio << " round=" << round;
    }
    if (ratio == 0.0) {
      EXPECT_GE(sv.compactions(), 7u);
    }
    // A huge ratio compacts at most once: over the empty starting base
    // any delta exceeds ratio * 0 (the bootstrap fold), never after.
    if (ratio == 1e9) {
      EXPECT_LE(sv.compactions(), 1u);
    }
  }
}

TEST(StreamingFlatViewTest, SliceAcrossTheSeam) {
  Rng rng(1234);
  StreamBatchSpec spec;
  spec.num_items = 7;
  const std::vector<Transaction> base_txns = MakeStreamBatch(rng, spec, 10);
  const std::vector<Transaction> delta_txns = MakeStreamBatch(rng, spec, 6);

  StreamingFlatView sv{
      UncertainDatabase{std::vector<Transaction>(base_txns)}};
  sv.AssertSoleWriter();  // single-threaded test body: sole writer
  sv.Append(FlatView(delta_txns));
  ASSERT_TRUE(sv.has_delta());

  std::vector<Transaction> all = base_txns;
  all.insert(all.end(), delta_txns.begin(), delta_txns.end());
  const FlatView rebuilt(UncertainDatabase{std::vector<Transaction>(all)});
  const FlatView view = sv.Snapshot().view();

  // Every slice — base-only, delta-only, seam-straddling, empty-at-seam
  // — must agree with the same slice of the rebuilt view, bit for bit.
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 10}, {10, 16}, {7, 13}, {9, 11}, {10, 10}, {0, 16}, {12, 16}};
  for (const auto& [lo, hi] : ranges) {
    const FlatView a = view.Slice(lo, hi);
    const FlatView b = rebuilt.Slice(lo, hi);
    const std::string label =
        "slice [" + std::to_string(lo) + "," + std::to_string(hi) + ")";
    ASSERT_EQ(a.num_transactions(), b.num_transactions()) << label;
    EXPECT_EQ(a.num_units(), b.num_units()) << label;
    std::vector<TransactionId> at, bt;
    std::vector<double> ap, bp;
    for (std::size_t i = 0; i < a.num_items(); ++i) {
      const ItemId item = static_cast<ItemId>(i);
      a.CopyPostings(item, at, ap);
      b.CopyPostings(item, bt, bp);
      EXPECT_EQ(at, bt) << label << " item=" << i;
      EXPECT_EQ(ap, bp) << label << " item=" << i;
      EXPECT_EQ(a.ItemExpectedSupport(item), b.ItemExpectedSupport(item))
          << label << " item=" << i;
      EXPECT_EQ(a.ItemSquaredSum(item), b.ItemSquaredSum(item))
          << label << " item=" << i;
    }
    for (std::size_t i = 0; i + 1 < a.num_items(); ++i) {
      const Itemset pair{static_cast<ItemId>(i), static_cast<ItemId>(i + 1)};
      EXPECT_EQ(a.ContainmentProbabilities(pair),
                b.ContainmentProbabilities(pair))
          << label;
    }
    // Slices of slices compose across the seam too.
    if (hi - lo >= 4) {
      const FlatView aa = a.Slice(1, hi - lo - 1);
      const FlatView bb = b.Slice(1, hi - lo - 1);
      EXPECT_EQ(aa.num_units(), bb.num_units()) << label << " nested";
      for (std::size_t i = 0; i < aa.num_items(); ++i) {
        EXPECT_EQ(aa.ItemExpectedSupport(static_cast<ItemId>(i)),
                  bb.ItemExpectedSupport(static_cast<ItemId>(i)))
            << label << " nested item=" << i;
      }
    }
  }
}

TEST(StreamingFlatViewTest, SeamStraddlingJoinBatches) {
  // Two ubiquitous items over a base long enough that the first
  // kJoinBatchTids-posting driver batch crosses the base/delta seam —
  // the one physical configuration where the join kernel must
  // materialize a batch from both regions.
  std::vector<Transaction> base_txns;
  for (std::size_t t = 0; t < 900; ++t) {
    const double p = 0.1 + static_cast<double>(t % 17) / 20.0;
    base_txns.push_back(Txn({{0, p}, {1, 1.0 - p / 2}, {2, 0.5}}));
  }
  std::vector<Transaction> delta_txns;
  for (std::size_t t = 0; t < 600; ++t) {
    const double p = 0.15 + static_cast<double>(t % 13) / 18.0;
    delta_txns.push_back(Txn({{0, p}, {1, p / 3 + 0.2}}));
  }

  CompactionPolicy never;
  never.max_delta_ratio = 1e9;
  never.min_delta_units = ~std::size_t{0};
  StreamingFlatView sv{UncertainDatabase{std::vector<Transaction>(base_txns)},
                       never};
  sv.AssertSoleWriter();  // single-threaded test body: sole writer
  sv.Append(FlatView(delta_txns));
  ASSERT_TRUE(sv.has_delta());
  ASSERT_GT(sv.Snapshot().view().PostingCount(0), FlatView::kJoinBatchTids);

  std::vector<Transaction> all = base_txns;
  all.insert(all.end(), delta_txns.begin(), delta_txns.end());
  const FlatView rebuilt(UncertainDatabase{std::vector<Transaction>(all)});

  for (const Itemset& itemset :
       {Itemset{0, 1}, Itemset{0, 2}, Itemset{0, 1, 2}, Itemset{0}}) {
    EXPECT_EQ(sv.Snapshot().view().ContainmentProbabilities(itemset),
              rebuilt.ContainmentProbabilities(itemset))
        << itemset.ToString();
    EXPECT_EQ(sv.Snapshot().view().ExpectedSupport(itemset),
              rebuilt.ExpectedSupport(itemset))
        << itemset.ToString();
  }
}

TEST(StreamingFlatViewTest, GenerationAdvancesOnEveryMutation) {
  StreamingFlatView sv;
  sv.AssertSoleWriter();  // single-threaded test body: sole writer
  EXPECT_EQ(sv.generation(), 0u);

  // An empty append is a no-op: no mutation, no bump.
  sv.Append({});
  EXPECT_EQ(sv.generation(), 0u);

  const std::vector<Transaction> batch = {Txn({{0, 0.5}, {1, 0.25}}),
                                          Txn({{1, 0.75}})};
  sv.Append(FlatView(batch));
  const std::uint64_t after_append = sv.generation();
  EXPECT_GT(after_append, 0u);

  // Compaction retires the old storage and publishes a strictly newer
  // generation.
  sv.Compact();
  const std::uint64_t after_compact = sv.generation();
  EXPECT_GT(after_compact, after_append);

  // A no-op compaction (no delta) does not mutate anything.
  sv.Compact();
  EXPECT_EQ(sv.generation(), after_compact);
}

TEST(StreamingFlatViewTest, SnapshotSurvivesAppendAndCompact) {
  Rng rng(321);
  StreamBatchSpec spec;
  spec.num_items = 8;
  StreamingFlatView sv;
  sv.AssertSoleWriter();  // single-threaded test body: sole writer

  std::vector<Transaction> at_snapshot;
  for (int round = 0; round < 3; ++round) {
    sv.Append(FlatView(MakeStreamBatch(rng, spec, 5)));
  }
  // Reconstruct the transactions currently in the stream for the
  // rebuild comparison (MakeStreamBatch is deterministic in rng).
  {
    Rng replay(321);
    for (int round = 0; round < 3; ++round) {
      const std::vector<Transaction> b = MakeStreamBatch(replay, spec, 5);
      at_snapshot.insert(at_snapshot.end(), b.begin(), b.end());
    }
  }

  const StreamingSnapshot snap = sv.Snapshot();
  EXPECT_EQ(snap.watermark(), sv.num_transactions());
  EXPECT_EQ(snap.generation(), sv.generation());
  ExpectMatchesRebuild(snap.view(), at_snapshot, "snapshot-at-capture");

  // Hammer the source: interleaved appends and explicit compactions. The
  // snapshot must stay bit-identical to a from-scratch rebuild of the
  // capture-time transactions throughout.
  for (int round = 0; round < 4; ++round) {
    sv.Append(FlatView(MakeStreamBatch(rng, spec, 7)));
    if (round % 2 == 0) sv.Compact();
    ExpectMatchesRebuild(snap.view(), at_snapshot,
                         "snapshot-after-round-" + std::to_string(round));
  }

  // Snapshots are self-contained: one taken from a source that is then
  // destroyed keeps reading.
  StreamingSnapshot orphan;
  {
    StreamingFlatView tmp;
    tmp.AssertSoleWriter();
    tmp.Append(FlatView(at_snapshot));
    orphan = tmp.Snapshot();
  }
  ExpectMatchesRebuild(orphan.view(), at_snapshot, "orphan-snapshot");
}

TEST(StreamingFlatViewTest, SnapshotSharesPublishedStorage) {
  // Published storage is immutable, so a snapshot is a pointer copy:
  // two snapshots with no mutation in between read the same delta
  // arrays, not two copies of them.
  const std::vector<Transaction> base = {Txn({{0, 0.5}, {1, 0.25}})};
  const std::vector<Transaction> batch = {Txn({{0, 0.75}}), Txn({{1, 0.5}})};
  CompactionPolicy never;
  never.max_delta_ratio = 1e9;
  never.min_delta_units = ~std::size_t{0};
  StreamingFlatView sv{UncertainDatabase{std::vector<Transaction>(base)},
                       never};
  sv.AssertSoleWriter();  // single-threaded test body: sole writer
  sv.Append(FlatView(batch));
  ASSERT_TRUE(sv.has_delta());

  const StreamingSnapshot a = sv.Snapshot();
  const StreamingSnapshot b = sv.Snapshot();
  const SegmentedPostings pa = a.view().PostingSegments(0);
  const SegmentedPostings pb = b.view().PostingSegments(0);
  ASSERT_EQ(pa.count, 2u);
  ASSERT_EQ(pb.count, 2u);
  EXPECT_EQ(pa.seg[1].tids, pb.seg[1].tids);
}

TEST(StreamingFlatViewTest, MomentCachesConsistentAfterCompaction) {
  Rng rng(555);
  StreamBatchSpec spec;
  spec.num_items = 9;
  StreamingFlatView sv;
  sv.AssertSoleWriter();  // single-threaded test body: sole writer
  std::vector<Transaction> all;
  for (int round = 0; round < 5; ++round) {
    const std::vector<Transaction> batch = MakeStreamBatch(rng, spec, 6);
    all.insert(all.end(), batch.begin(), batch.end());
    sv.Append(FlatView(batch));

    // Capture the cached full-view moments, compact, and require the
    // exact same bits: compaction is a layout change only, and the
    // persistent Kahan accumulators must equal a from-scratch rebuild's.
    const FlatView before = sv.Snapshot().view();
    std::vector<double> esup(sv.num_items()), sq(sv.num_items());
    for (std::size_t i = 0; i < sv.num_items(); ++i) {
      esup[i] = before.ItemExpectedSupport(static_cast<ItemId>(i));
      sq[i] = before.ItemSquaredSum(static_cast<ItemId>(i));
    }
    sv.Compact();
    EXPECT_FALSE(sv.has_delta());
    const FlatView after = sv.Snapshot().view();
    const FlatView rebuilt(UncertainDatabase{std::vector<Transaction>(all)});
    for (std::size_t i = 0; i < sv.num_items(); ++i) {
      const ItemId item = static_cast<ItemId>(i);
      EXPECT_EQ(after.ItemExpectedSupport(item), esup[i]) << "item=" << i;
      EXPECT_EQ(after.ItemSquaredSum(item), sq[i]) << "item=" << i;
      EXPECT_EQ(after.ItemExpectedSupport(item),
                rebuilt.ItemExpectedSupport(item))
          << "item=" << i;
      EXPECT_EQ(after.ItemSquaredSum(item), rebuilt.ItemSquaredSum(item))
          << "item=" << i;
    }
  }
}

}  // namespace
}  // namespace ufim
