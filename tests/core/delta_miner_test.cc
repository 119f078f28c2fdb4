// DeltaMiner unit coverage: SON-over-batch-shards exactness against the
// plain miners, candidate-pool retention across batches (the property a
// results-only union would break), facade/registry plumbing, and the
// empty-batch / empty-stream degenerate calls. The randomized
// cross-layout schedules live in the streaming differential harness.
#include "core/delta_miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "core/mining_result.h"
#include "core/sharded_miner.h"
#include "testing/flaky_miner.h"
#include "testing/random_db.h"

namespace ufim {
namespace {

using testing_util::FlakyMiner;
using testing_util::MakeStreamBatch;
using testing_util::StreamBatchSpec;

Transaction Txn(std::vector<ProbItem> units) {
  return Transaction(std::move(units));
}

TEST(DeltaMinerTest, MatchesPlainMinerForEveryExpectedSupportAlgorithm) {
  ExpectedSupportParams params;
  params.min_esup = 0.22;
  Rng rng(42);
  StreamBatchSpec spec;
  spec.num_items = 9;
  std::vector<std::vector<Transaction>> batches;
  for (int b = 0; b < 4; ++b) batches.push_back(MakeStreamBatch(rng, spec, 7));

  for (const std::string& algorithm :
       MinerRegistry::Global().NamesOf(TaskFamily::kExpectedSupport)) {
    Result<std::unique_ptr<DeltaMiner>> delta =
        MakeDeltaMiner(algorithm, params);
    ASSERT_TRUE(delta.ok()) << algorithm;
    EXPECT_EQ(delta.value()->name(), "Delta(" + algorithm + ")");
    std::unique_ptr<Miner> plain = MinerRegistry::Global().Create(algorithm);
    ASSERT_NE(plain, nullptr) << algorithm;

    UncertainDatabase accumulated;
    for (const std::vector<Transaction>& batch : batches) {
      Result<MiningResult> incremental = delta.value()->MineNext(batch);
      ASSERT_TRUE(incremental.ok()) << algorithm;
      accumulated.Append(batch);
      Result<MiningResult> reference =
          plain->Mine(FlatView(accumulated), MiningTask(params));
      ASSERT_TRUE(reference.ok()) << algorithm;
      MiningResult expect = std::move(reference).value();
      expect.SortCanonical();
      ASSERT_EQ(incremental.value().size(), expect.size()) << algorithm;
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(incremental.value()[i].itemset, expect[i].itemset)
            << algorithm;
        EXPECT_NEAR(incremental.value()[i].expected_support,
                    expect[i].expected_support, 1e-9)
            << algorithm << " " << expect[i].itemset.ToString();
      }
    }
    EXPECT_EQ(delta.value()->shards_mined(), batches.size()) << algorithm;
  }
}

TEST(DeltaMinerTest, UAprioriMomentsBitIdenticalToPlain) {
  // UApriori counts with the same posting join as the DeltaMiner
  // recount, so once the stream holds more than 512 transactions the
  // incremental moments are the plain miner's bit for bit.
  ExpectedSupportParams params;
  params.min_esup = 0.02;
  Rng rng(44);
  StreamBatchSpec spec;
  spec.num_items = 12;
  spec.item_skew = 0.6;
  Result<std::unique_ptr<DeltaMiner>> delta = MakeDeltaMiner("UApriori", params);
  ASSERT_TRUE(delta.ok());
  std::unique_ptr<Miner> plain = MinerRegistry::Global().Create("UApriori");
  ASSERT_NE(plain, nullptr);

  UncertainDatabase accumulated;
  for (int b = 0; b < 3; ++b) {
    const std::vector<Transaction> batch = MakeStreamBatch(rng, spec, 400);
    Result<MiningResult> incremental = delta.value()->MineNext(batch);
    ASSERT_TRUE(incremental.ok());
    accumulated.Append(batch);
    Result<MiningResult> reference =
        plain->Mine(FlatView(accumulated), MiningTask(params));
    ASSERT_TRUE(reference.ok());
    MiningResult expect = std::move(reference).value();
    expect.SortCanonical();
    ASSERT_EQ(incremental.value().size(), expect.size()) << "batch " << b;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(incremental.value()[i].itemset, expect[i].itemset);
      EXPECT_EQ(incremental.value()[i].expected_support,
                expect[i].expected_support)
          << "batch " << b << " " << expect[i].itemset.ToString();
      EXPECT_EQ(incremental.value()[i].variance, expect[i].variance)
          << "batch " << b << " " << expect[i].itemset.ToString();
    }
  }
}

/// `count` transactions holding exactly `items`, each unit at a random
/// probability in [0.5, 1).
std::vector<Transaction> Block(Rng& rng, std::initializer_list<ItemId> items,
                               int count) {
  std::vector<Transaction> out;
  for (int i = 0; i < count; ++i) {
    std::vector<ProbItem> units;
    for (const ItemId item : items) {
      units.push_back({item, rng.Uniform(0.5, 1.0)});
    }
    out.push_back(Txn(std::move(units)));
  }
  return out;
}

TEST(DeltaMinerTest, CarriedMomentsMatchFullRecountWhenDriversMove) {
  // The recount carries each pool candidate's moments across batches
  // and joins only the appended suffix, driving from the full view's
  // JoinDriver. Batch 2 moves {0,1,2}'s shortest posting list from item
  // 0 to item 2, so its products change order and its moments must be
  // recounted from tid 0; it also swaps the pair {1,2}'s driver from
  // item 1 to item 2, which may keep its state. Batch 3 continues the
  // triple on driver 2 and batch 4 moves it back to item 0. The triple's
  // probabilities are picked so that each wrong product order shows in
  // the sum: (0.55 * 0.55) * 0.95 != (0.95 * 0.55) * 0.55, and likewise
  // for batch 3's (0.55, 0.6, 0.95). After every batch each reported
  // moment must carry the bits of a from-scratch recount over the whole
  // snapshot.
  ExpectedSupportParams params;
  params.min_esup = 0.03;
  Rng rng(2024);
  std::vector<std::vector<Transaction>> batches(4);
  // Posting counts of items 0/1/2 after each batch: 1/2/4, 5/6/4,
  // 6/7/5, 6/10/8.
  batches[0] = {Txn({{0, 0.55}, {1, 0.55}, {2, 0.95}})};
  for (Transaction& t : Block(rng, {1, 2}, 1)) batches[0].push_back(t);
  for (Transaction& t : Block(rng, {2}, 2)) batches[0].push_back(t);
  batches[1] = Block(rng, {0, 1}, 4);
  batches[2] = {Txn({{0, 0.55}, {1, 0.6}, {2, 0.95}})};
  batches[3] = Block(rng, {1, 2}, 3);
  const Itemset triple{0, 1, 2};
  const Itemset pair{1, 2};
  const std::size_t triple_driver[] = {0, 2, 2, 0};
  const std::size_t pair_driver[] = {0, 1, 1, 1};

  for (const std::size_t threads : {1u, 4u}) {
    MinerOptions options;
    options.num_threads = threads;
    Result<std::unique_ptr<DeltaMiner>> delta =
        MakeDeltaMiner("UApriori", params, options);
    ASSERT_TRUE(delta.ok());
    for (std::size_t b = 0; b < batches.size(); ++b) {
      const std::string at =
          "threads " + std::to_string(threads) + " batch " + std::to_string(b);
      Result<MiningResult> incremental = delta.value()->MineNext(batches[b]);
      ASSERT_TRUE(incremental.ok()) << at;
      const StreamingSnapshot snap = delta.value()->view().Snapshot();
      EXPECT_EQ(snap.view().JoinDriver(triple), triple_driver[b]) << at;
      EXPECT_EQ(snap.view().JoinDriver(pair), pair_driver[b]) << at;
      ASSERT_NE(incremental.value().Find(triple), nullptr) << at;
      ASSERT_NE(incremental.value().Find(pair), nullptr) << at;

      std::vector<Itemset> singles;
      std::vector<Itemset> larger;
      for (const FrequentItemset& fi : incremental.value().itemsets()) {
        (fi.itemset.size() == 1 ? singles : larger).push_back(fi.itemset);
      }
      std::sort(singles.begin(), singles.end());
      std::sort(larger.begin(), larger.end());
      MiningResult scratch;
      RecountExpectedCandidates(snap.view(), singles, larger, 0.0, threads,
                                scratch);
      ASSERT_EQ(scratch.size(), incremental.value().size()) << at;
      for (const FrequentItemset& fi : incremental.value().itemsets()) {
        const FrequentItemset* expect = scratch.Find(fi.itemset);
        ASSERT_NE(expect, nullptr) << at << " " << fi.itemset.ToString();
        EXPECT_EQ(fi.expected_support, expect->expected_support)
            << at << " " << fi.itemset.ToString();
        EXPECT_EQ(fi.variance, expect->variance)
            << at << " " << fi.itemset.ToString();
      }
    }
  }
}

TEST(DeltaMinerTest, PoolRetainsDilutedCandidatesAcrossBatches) {
  // {0,1} is frequent after batch 1, diluted below the global threshold
  // by batch 2's noise — it must leave the *results* but stay in the
  // candidate pool (the pool unions shard-local frequents and never
  // forgets; dropping to the result set instead would make the recount
  // scan mining history, not a superset) — and return after batch 3 with
  // an exact full-stream recount.
  ExpectedSupportParams params;
  params.min_esup = 0.5;

  const std::vector<Transaction> b1 = {Txn({{0, 0.9}, {1, 0.9}}),
                                       Txn({{0, 0.8}, {1, 0.8}})};
  // Noise: four transactions without {0,1}.
  const std::vector<Transaction> b2 = {Txn({{2, 0.9}}), Txn({{2, 0.8}}),
                                       Txn({{2, 0.7}}), Txn({{2, 0.9}})};
  // Recovery: enough {0,1} mass to clear the global threshold again.
  const std::vector<Transaction> b3 = {
      Txn({{0, 0.95}, {1, 0.95}}), Txn({{0, 0.95}, {1, 0.95}}),
      Txn({{0, 0.95}, {1, 0.95}}), Txn({{0, 0.95}, {1, 0.95}}),
      Txn({{0, 0.95}, {1, 0.95}})};

  Result<std::unique_ptr<DeltaMiner>> delta =
      MakeDeltaMiner("UApriori", params);
  ASSERT_TRUE(delta.ok());
  const Itemset pair{0, 1};

  Result<MiningResult> r1 = delta.value()->MineNext(b1);
  ASSERT_TRUE(r1.ok());
  EXPECT_NE(r1.value().Find(pair), nullptr) << "frequent in batch 1";
  const std::size_t pool_after_b1 = delta.value()->candidate_pool_size();

  Result<MiningResult> r2 = delta.value()->MineNext(b2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().Find(pair), nullptr) << "diluted below threshold";
  EXPECT_GE(delta.value()->candidate_pool_size(), pool_after_b1)
      << "the pool never forgets";

  Result<MiningResult> r3 = delta.value()->MineNext(b3);
  ASSERT_TRUE(r3.ok());
  const FrequentItemset* fi = r3.value().Find(pair);
  ASSERT_NE(fi, nullptr);
  // Exact recount over all eleven transactions.
  EXPECT_NEAR(fi->expected_support, 0.81 + 0.64 + 5 * (0.95 * 0.95), 1e-12);
}

TEST(DeltaMinerTest, EmptyBatchesAndEmptyStream) {
  ExpectedSupportParams params;
  params.min_esup = 0.3;
  Result<std::unique_ptr<DeltaMiner>> delta =
      MakeDeltaMiner("UApriori", params);
  ASSERT_TRUE(delta.ok());

  // Mining an empty stream is legal and empty.
  Result<MiningResult> r0 = delta.value()->MineNext({});
  ASSERT_TRUE(r0.ok());
  EXPECT_TRUE(r0.value().empty());
  EXPECT_EQ(delta.value()->shards_mined(), 0u);

  const std::vector<Transaction> batch = {Txn({{0, 0.9}}), Txn({{0, 0.8}})};
  Result<MiningResult> r1 = delta.value()->MineNext(batch);
  ASSERT_TRUE(r1.ok());
  ASSERT_EQ(r1.value().size(), 1u);

  // An empty batch re-mines the unchanged state: same answer, and no
  // new batch shard.
  Result<MiningResult> r2 = delta.value()->MineNext({});
  ASSERT_TRUE(r2.ok());
  ASSERT_EQ(r2.value().size(), 1u);
  EXPECT_EQ(r2.value()[0].expected_support, r1.value()[0].expected_support);
  EXPECT_EQ(delta.value()->shards_mined(), 1u);
}

TEST(DeltaMinerTest, EmptyBatchIsPureRecount) {
  // A recount-only call must not append, consult the compaction policy,
  // or drift the shard bookkeeping — pin every observable piece of that.
  // The never-compact policy keeps a live delta across the call, so an
  // accidental append-path compaction would show in
  // compactions()/has_delta().
  ExpectedSupportParams params;
  params.min_esup = 0.3;
  CompactionPolicy never;
  never.max_delta_ratio = 1e9;
  never.min_delta_units = ~std::size_t{0};
  Result<std::unique_ptr<DeltaMiner>> delta =
      MakeDeltaMiner("UApriori", params, {}, never);
  ASSERT_TRUE(delta.ok());

  const std::vector<Transaction> batch = {Txn({{0, 0.9}, {1, 0.6}}),
                                          Txn({{0, 0.8}})};
  Result<MiningResult> first = delta.value()->MineNext(batch);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(delta.value()->view().has_delta());

  const std::uint64_t generation = delta.value()->view().generation();
  const std::size_t compactions = delta.value()->view().compactions();
  const std::size_t transactions = delta.value()->view().num_transactions();
  const std::size_t shards = delta.value()->shards_mined();
  const std::size_t pool = delta.value()->candidate_pool_size();

  Result<MiningResult> recount = delta.value()->MineNext({});
  ASSERT_TRUE(recount.ok());
  EXPECT_EQ(recount.value().ToString(), first.value().ToString());

  // No mutation of any kind: the storage generation did not move (an
  // append would have bumped it), nothing compacted, and the shard/pool
  // bookkeeping is untouched.
  EXPECT_EQ(delta.value()->view().generation(), generation);
  EXPECT_EQ(delta.value()->view().compactions(), compactions);
  EXPECT_EQ(delta.value()->view().num_transactions(), transactions);
  EXPECT_TRUE(delta.value()->view().has_delta());
  EXPECT_EQ(delta.value()->shards_mined(), shards);
  EXPECT_EQ(delta.value()->candidate_pool_size(), pool);
}

TEST(DeltaMinerTest, RegistryPlumbingRejectsBadInners) {
  ExpectedSupportParams params;
  Result<std::unique_ptr<DeltaMiner>> unknown =
      MakeDeltaMiner("NoSuchMiner", params);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  Result<std::unique_ptr<DeltaMiner>> probabilistic =
      MakeDeltaMiner("DCB", params);
  ASSERT_FALSE(probabilistic.ok());
  EXPECT_EQ(probabilistic.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaMinerTest, TransientInnerFailureRollsBackAndRetrySucceeds) {
  // A failed shard mine returns before the batch is appended, so
  // retrying the same batch appends it exactly once and the stream
  // continues as if the failure never happened.
  ExpectedSupportParams params;
  params.min_esup = 0.3;
  DeltaMiner delta(std::make_unique<FlakyMiner>(1, 1), params);

  const std::vector<Transaction> b1 = {Txn({{0, 0.9}}), Txn({{0, 0.8}})};
  ASSERT_TRUE(delta.MineNext(b1).ok());
  const std::size_t txns_before = delta.view().num_transactions();

  // b2 introduces a previously-unseen item, which must not reach the
  // stream's item universe either.
  const std::vector<Transaction> b2 = {Txn({{0, 0.7}, {1, 0.9}})};
  Result<MiningResult> failed = delta.MineNext(b2);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(delta.view().num_transactions(), txns_before);
  EXPECT_EQ(delta.shards_mined(), 1u);

  // The retry succeeds and appends the batch exactly once.
  Result<MiningResult> retried = delta.MineNext(b2);
  ASSERT_TRUE(retried.ok());
  EXPECT_EQ(delta.view().num_transactions(), txns_before + 1);
  EXPECT_EQ(delta.shards_mined(), 2u);

  // ... and the result matches an identical stream that never failed.
  DeltaMiner clean(std::make_unique<FlakyMiner>(99, 0), params);
  ASSERT_TRUE(clean.MineNext(b1).ok());
  Result<MiningResult> reference = clean.MineNext(b2);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(retried.value().ToString(), reference.value().ToString());
}

TEST(DeltaMinerTest, FailedBatchLeavesTheStreamUntouched) {
  // The batch is appended only after its shard mine succeeds, so a
  // failed shard mine leaves no trace in the stream, not even a storage
  // generation bump, although the batch brings in an unseen item.
  ExpectedSupportParams params;
  params.min_esup = 0.3;
  DeltaMiner delta(std::make_unique<FlakyMiner>(1, 1), params);

  const std::vector<Transaction> b1 = {Txn({{0, 0.9}}), Txn({{0, 0.8}})};
  ASSERT_TRUE(delta.MineNext(b1).ok());
  const StreamingFlatView& view = delta.view();
  const std::uint64_t generation = view.generation();
  const std::size_t items = view.num_items();
  const std::size_t transactions = view.num_transactions();
  const std::size_t compactions = view.compactions();
  const bool has_delta = view.has_delta();
  const std::size_t pool = delta.candidate_pool_size();

  const std::vector<Transaction> b2 = {Txn({{0, 0.7}, {1, 0.9}})};
  Result<MiningResult> failed = delta.MineNext(b2);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(view.generation(), generation);
  EXPECT_EQ(view.num_items(), items);
  EXPECT_EQ(view.num_transactions(), transactions);
  EXPECT_EQ(view.compactions(), compactions);
  EXPECT_EQ(view.has_delta(), has_delta);
  EXPECT_EQ(delta.shards_mined(), 1u);
  EXPECT_EQ(delta.candidate_pool_size(), pool);
}

TEST(DeltaMinerTest, PollsTheTokenItsInnerMinerWasCreatedWith) {
  // The token is bound once, when the registry creates the inner miner;
  // the wrapper polls that one at batch entry, before anything appends.
  MinerOptions options;
  options.run_context.Cancel();
  ExpectedSupportParams params;
  params.min_esup = 0.3;
  const std::vector<Transaction> batch = {Txn({{0, 0.9}}), Txn({{0, 0.8}})};

  Result<std::unique_ptr<DeltaMiner>> delta =
      MakeDeltaMiner("UApriori", params, options);
  ASSERT_TRUE(delta.ok());
  Result<MiningResult> made = delta.value()->MineNext(batch);
  ASSERT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(delta.value()->view().num_transactions(), 0u);

  auto counting = std::make_unique<FlakyMiner>(99, 0, options);
  const FlakyMiner& inner = *counting;
  DeltaMiner wrapped(std::move(counting), params);
  Result<MiningResult> r = wrapped.MineNext(batch);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(wrapped.view().num_transactions(), 0u);
  EXPECT_EQ(inner.calls(), 0);
}

TEST(DeltaMinerTest, InvalidParamsSurfaceOnMineNext) {
  ExpectedSupportParams params;
  params.min_esup = -1.0;
  Result<std::unique_ptr<DeltaMiner>> delta =
      MakeDeltaMiner("UApriori", params);
  ASSERT_TRUE(delta.ok());
  Result<MiningResult> r = delta.value()->MineNext({});
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace ufim
