#include "core/sharded_miner.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/miner_registry.h"
#include "gen/benchmark_datasets.h"
#include "testing/flaky_miner.h"
#include "testing/random_db.h"

namespace ufim {
namespace {

using testing_util::FlakyMiner;
using testing_util::MakeRandomDatabase;

std::unique_ptr<Miner> MakeInner(const char* name, std::size_t threads = 1) {
  MinerOptions options;
  options.num_threads = threads;
  auto miner = MinerRegistry::Global().Create(name, options);
  EXPECT_NE(miner, nullptr) << name;
  return miner;
}

TEST(ShardedMinerTest, NameWrapsInner) {
  ShardedMiner sharded(MakeInner("UApriori"), 4);
  EXPECT_EQ(sharded.name(), "Sharded(UApriori)");
  EXPECT_EQ(sharded.num_shards(), 4u);
  EXPECT_TRUE(sharded.is_exact());
}

TEST(ShardedMinerTest, SupportsExpectedSupportTasksOnly) {
  ShardedMiner sharded(MakeInner("UApriori"), 4);
  EXPECT_TRUE(sharded.Supports(MiningTask(ExpectedSupportParams{})));
  EXPECT_FALSE(sharded.Supports(MiningTask(ProbabilisticParams{})));
  EXPECT_FALSE(sharded.Supports(MiningTask(TopKParams{})));

  FlatView view((MakePaperTable1()));
  auto rejected = sharded.Mine(view, MiningTask(ProbabilisticParams{}));
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedMinerTest, InvalidParamsPropagate) {
  ShardedMiner sharded(MakeInner("UApriori"), 3);
  FlatView view((MakePaperTable1()));
  ExpectedSupportParams params;
  params.min_esup = -1.0;
  auto result = sharded.Mine(view, MiningTask(params));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ShardedMinerTest, EmptyDatabaseYieldsEmptyResult) {
  ShardedMiner sharded(MakeInner("UApriori"), 4);
  FlatView view{UncertainDatabase()};
  ExpectedSupportParams params;
  params.min_esup = 0.5;
  auto result = sharded.Mine(view, MiningTask(params));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(ShardedMinerTest, PaperExampleAnyShardCount) {
  // Table 1 has 4 transactions; shard counts beyond the database size
  // must clamp and still produce the paper's Example 1 answer.
  FlatView view((MakePaperTable1()));
  ExpectedSupportParams params;
  params.min_esup = 0.5;
  for (std::size_t shards : {1u, 2u, 3u, 4u, 9u}) {
    ShardedMiner sharded(MakeInner("UApriori"), shards);
    auto result = sharded.Mine(view, MiningTask(params));
    ASSERT_TRUE(result.ok()) << shards << " shards";
    ASSERT_EQ(result->size(), 2u) << shards << " shards";
    EXPECT_EQ((*result)[0].itemset, Itemset{kItemA});
    EXPECT_EQ((*result)[1].itemset, Itemset{kItemC});
    EXPECT_NEAR((*result)[0].expected_support, 2.1, 1e-12);
  }
}

/// SON equivalence: sharded mining must reproduce the unsharded answer
/// exactly at the itemset level and to summation rounding in the
/// moments, for every expected-support miner and shard count.
TEST(ShardedMinerTest, MatchesUnshardedForEveryExpectedMiner) {
  UncertainDatabase db = MakeRandomDatabase(
      {.seed = 41, .num_transactions = 80, .num_items = 10});
  FlatView view(db);
  for (const std::string& name : MinerRegistry::Global().NamesOf(
           TaskFamily::kExpectedSupport, /*production_only=*/true)) {
    for (double min_esup : {0.05, 0.15, 0.4}) {
      ExpectedSupportParams params;
      params.min_esup = min_esup;
      auto plain =
          MakeInner(name.c_str())->Mine(view, MiningTask(params));
      ASSERT_TRUE(plain.ok()) << name;
      for (std::size_t shards : {2u, 5u, 13u}) {
        ShardedMiner sharded(MakeInner(name.c_str()), shards);
        auto merged = sharded.Mine(view, MiningTask(params));
        ASSERT_TRUE(merged.ok()) << name << " shards " << shards;
        ASSERT_EQ(merged->size(), plain->size())
            << name << " shards " << shards << " min_esup " << min_esup;
        for (std::size_t i = 0; i < plain->size(); ++i) {
          EXPECT_EQ((*merged)[i].itemset, (*plain)[i].itemset) << name;
          EXPECT_NEAR((*merged)[i].expected_support,
                      (*plain)[i].expected_support, 1e-9)
              << name << " " << (*plain)[i].itemset.ToString();
          EXPECT_NEAR((*merged)[i].variance, (*plain)[i].variance, 1e-9);
        }
      }
    }
  }
}

/// UApriori counts with the same posting join as the SON recount, so
/// on a view of more than 512 transactions the sharded moments are the
/// unsharded ones bit for bit (the tree miners above stay at 1e-9: they
/// accumulate in a different order).
TEST(ShardedMinerTest, UAprioriMomentsBitIdenticalToUnsharded) {
  UncertainDatabase db = MakeRandomDatabase(
      {.seed = 43, .num_transactions = 1500, .num_items = 10});
  FlatView view(db);
  ExpectedSupportParams params;
  params.min_esup = 0.05;
  auto plain = MakeInner("UApriori")->Mine(view, MiningTask(params));
  ASSERT_TRUE(plain.ok());
  ASSERT_GT(plain->size(), db.num_items());
  for (std::size_t shards : {2u, 5u}) {
    ShardedMiner sharded(MakeInner("UApriori"), shards);
    auto merged = sharded.Mine(view, MiningTask(params));
    ASSERT_TRUE(merged.ok()) << shards << " shards";
    ASSERT_EQ(merged->size(), plain->size()) << shards << " shards";
    for (std::size_t i = 0; i < plain->size(); ++i) {
      EXPECT_EQ((*merged)[i].itemset, (*plain)[i].itemset);
      EXPECT_EQ((*merged)[i].expected_support, (*plain)[i].expected_support)
          << shards << " shards " << (*plain)[i].itemset.ToString();
      EXPECT_EQ((*merged)[i].variance, (*plain)[i].variance)
          << shards << " shards " << (*plain)[i].itemset.ToString();
    }
  }
}

TEST(ShardedMinerTest, BitIdenticalAcrossThreadCounts) {
  UncertainDatabase db = MakeRandomDatabase(
      {.seed = 42, .num_transactions = 70, .num_items = 9});
  FlatView view(db);
  ExpectedSupportParams params;
  params.min_esup = 0.1;
  ShardedMiner baseline(MakeInner("UApriori", 1), 5);
  auto expect = baseline.Mine(view, MiningTask(params));
  ASSERT_TRUE(expect.ok());
  for (std::size_t threads : {2u, 8u}) {
    ShardedMiner sharded(MakeInner("UApriori", threads), 5);
    auto result = sharded.Mine(view, MiningTask(params));
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->size(), expect->size()) << threads << " threads";
    for (std::size_t i = 0; i < expect->size(); ++i) {
      EXPECT_EQ((*result)[i].itemset, (*expect)[i].itemset);
      // Exact: same shard decomposition, same merge order.
      EXPECT_EQ((*result)[i].expected_support, (*expect)[i].expected_support);
      EXPECT_EQ((*result)[i].variance, (*expect)[i].variance);
    }
  }
}

TEST(ShardedMinerTest, PollsTheTokenItsInnerMinerWasCreatedWith) {
  // The wrapper has no token of its own: it polls the one the registry
  // bound to its inner miner, at shard phase entry, before any shard is
  // handed to the inner miner.
  MinerOptions options;
  options.num_threads = 2;
  options.run_context.Cancel();
  auto counting = std::make_unique<FlakyMiner>(99, 0, options);
  const FlakyMiner& inner = *counting;
  ShardedMiner sharded(std::move(counting), 4);
  EXPECT_EQ(&sharded.options(), &inner.options());

  UncertainDatabase db = MakeRandomDatabase(
      {.seed = 43, .num_transactions = 40, .num_items = 6});
  FlatView view(db);
  ExpectedSupportParams params;
  params.min_esup = 0.1;
  Result<MiningResult> r = sharded.Mine(view, MiningTask(params));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(inner.calls(), 0);
}

}  // namespace
}  // namespace ufim
