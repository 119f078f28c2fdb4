// Randomized fault-injection sweep: every registered algorithm must
// survive cancellation at arbitrary checkpoints. For each miner and
// thread count the suite learns the run's exact checkpoint total
// (count-only arming — the totals are deterministic per (data, config)),
// then cancels the run at seeded positions across [1, total]. Each
// faulted run must return kCancelled as a clean Status — no crash, no
// leak, no torn state — and a Reset + re-run *on the same miner, view
// and pool objects* must be bit-identical to the never-cancelled
// baseline, results and work counters both. TSan runs this suite in CI,
// so the cancel/unwind paths are also raced at 2 and 8 threads.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/delta_miner.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "core/sharded_miner.h"
#include "testing/fault_injection.h"
#include "testing/random_db.h"

namespace ufim {
namespace {

using testing_util::CountCheckpoints;
using testing_util::FaultSchedule;
using testing_util::MakeRandomDatabase;
using testing_util::MakeStreamBatch;
using testing_util::ScheduleSeed;
using testing_util::StreamBatchSpec;

constexpr std::size_t kThreadCounts[] = {1, 2, 8};
constexpr std::size_t kFaultsPerCase = 8;

MiningTask TaskFor(TaskFamily family) {
  switch (family) {
    case TaskFamily::kExpectedSupport: {
      ExpectedSupportParams params;
      params.min_esup = 0.12;
      return params;
    }
    case TaskFamily::kProbabilistic: {
      ProbabilisticParams params;
      params.min_sup = 0.25;
      params.pft = 0.6;
      return params;
    }
    case TaskFamily::kTopK: {
      TopKParams params;
      params.k = 12;
      return params;
    }
  }
  return ExpectedSupportParams{};
}

void ExpectIdentical(const MiningResult& actual, const MiningResult& expect,
                     const std::string& label) {
  ASSERT_EQ(actual.size(), expect.size()) << label;
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(actual[i].itemset, expect[i].itemset) << label;
    EXPECT_EQ(actual[i].expected_support, expect[i].expected_support)
        << label << " " << expect[i].itemset.ToString();
    EXPECT_EQ(actual[i].variance, expect[i].variance)
        << label << " " << expect[i].itemset.ToString();
    ASSERT_EQ(actual[i].frequent_probability.has_value(),
              expect[i].frequent_probability.has_value())
        << label;
    if (expect[i].frequent_probability.has_value()) {
      EXPECT_EQ(*actual[i].frequent_probability,
                *expect[i].frequent_probability)
          << label << " " << expect[i].itemset.ToString();
    }
  }
}

/// One miner instance through the full count-then-arm protocol: learn
/// the checkpoint total, cancel at `kFaultsPerCase` seeded positions,
/// and after every abort prove the cleanup contract by re-mining the
/// same objects to the unfaulted baseline.
void CheckSurvivesCancellation(Miner& miner, const RunContext& ctx,
                               const FlatView& view, const MiningTask& task,
                               const std::string& label) {
  Result<MiningResult> baseline = miner.Mine(view, task);
  ASSERT_TRUE(baseline.ok()) << label << ": " << baseline.status().ToString();

  const std::uint64_t total = CountCheckpoints(ctx, [&] {
    Result<MiningResult> counted = miner.Mine(view, task);
    ASSERT_TRUE(counted.ok()) << label;
  });
  ASSERT_GE(total, 1u) << label << ": a miner that never polls its "
                       << "RunContext cannot be cancelled";

  for (const std::uint64_t nth :
       FaultSchedule(ScheduleSeed(label), total, kFaultsPerCase)) {
    const std::string at = label + " @checkpoint " + std::to_string(nth) +
                           "/" + std::to_string(total);
    ctx.AssertQuiescent();  // no mine in flight between the sequential runs
    ctx.Reset();
    ctx.ArmFaultAtCheckpoint(nth, StatusCode::kCancelled);
    Result<MiningResult> faulted = miner.Mine(view, task);
    ASSERT_FALSE(faulted.ok()) << at << ": armed fault did not surface";
    EXPECT_EQ(faulted.status().code(), StatusCode::kCancelled) << at;

    // Cleanup contract: same miner, same view, fresh token — the
    // aborted run may not have left anything behind.
    ctx.Reset();
    Result<MiningResult> rerun = miner.Mine(view, task);
    ASSERT_TRUE(rerun.ok()) << at << ": " << rerun.status().ToString();
    ExpectIdentical(rerun.value(), baseline.value(), at);
    EXPECT_EQ(rerun->counters().candidates_generated,
              baseline->counters().candidates_generated)
        << at;
    EXPECT_EQ(rerun->counters().exact_tail_evals,
              baseline->counters().exact_tail_evals)
        << at;
  }
}

TEST(FaultInjectionTest, EveryRegisteredMinerSurvivesCancellation) {
  const UncertainDatabase db = MakeRandomDatabase({.seed = 81,
                                                   .num_transactions = 60,
                                                   .num_items = 9,
                                                   .item_presence = 0.55});
  FlatView view(db);
  for (const std::string& name : MinerRegistry::Global().Names()) {
    const MinerEntry* entry = MinerRegistry::Global().Find(name);
    ASSERT_NE(entry, nullptr);
    const MiningTask task = TaskFor(entry->family);
    for (const std::size_t threads : kThreadCounts) {
      MinerOptions options;
      options.num_threads = threads;
      const RunContext ctx = options.run_context;  // shared-state handle
      std::unique_ptr<Miner> miner = MinerRegistry::Global().Create(name,
                                                                    options);
      ASSERT_NE(miner, nullptr) << name;
      CheckSurvivesCancellation(*miner, ctx, view, task,
                                name + "@" + std::to_string(threads));
    }
  }
}

// The pattern-growth miners only split dominant subtrees into nested
// loops on larger inputs; on this one both split under their fixed rule
// at 2 and 8 threads, so cancellation lands *inside* the nested
// ParallelFor calls, not just at top-level ranks. Each split polls the
// run context once more than the serial run does, which is how the case
// checks that the nested loops ran at all.
TEST(FaultInjectionTest, PatternGrowthSplitTasksSurviveCancellation) {
  const UncertainDatabase db = MakeRandomDatabase({.seed = 82,
                                                   .num_transactions = 180,
                                                   .num_items = 14,
                                                   .item_presence = 0.45,
                                                   .min_prob = 0.3});
  FlatView view(db);
  ExpectedSupportParams params;
  params.min_esup = 0.05;
  for (const char* name : {"UFP-growth", "UH-Mine"}) {
    std::uint64_t serial_polls = 0;
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      MinerOptions options;
      options.num_threads = threads;
      const RunContext ctx = options.run_context;
      std::unique_ptr<Miner> miner = MinerRegistry::Global().Create(name,
                                                                    options);
      ASSERT_NE(miner, nullptr) << name;
      const std::string label =
          std::string("split/") + name + "@" + std::to_string(threads);
      const std::uint64_t polls = CountCheckpoints(ctx, [&] {
        ASSERT_TRUE(miner->Mine(view, MiningTask(params)).ok()) << label;
      });
      if (threads == 1) {
        serial_polls = polls;
        continue;
      }
      EXPECT_GT(polls, serial_polls) << label << ": no subtree split";
      CheckSurvivesCancellation(*miner, ctx, view, MiningTask(params), label);
    }
  }
}

// ShardedMiner is not registry-listed (it wraps another miner), so the
// SON driver's phase boundaries get their own sweep: cancellation must
// land cleanly whether it strikes during the parallel per-shard mining
// or during the full-view recount.
TEST(FaultInjectionTest, ShardedMinerSurvivesCancellationAcrossPhases) {
  const UncertainDatabase db = MakeRandomDatabase({.seed = 83,
                                                   .num_transactions = 96,
                                                   .num_items = 10,
                                                   .item_presence = 0.5});
  FlatView view(db);
  ExpectedSupportParams params;
  params.min_esup = 0.12;
  for (const std::size_t threads : kThreadCounts) {
    MinerOptions options;
    options.num_threads = threads;
    const RunContext ctx = options.run_context;
    ShardedMiner miner(MinerRegistry::Global().Create("UApriori", options), 4);
    CheckSurvivesCancellation(miner, ctx, view, MiningTask(params),
                              "Sharded(UApriori)@" + std::to_string(threads));
  }
}

// DeltaMiner's cancellation contract is transactional, not just clean:
// a batch whose mine is cancelled pre-commit must roll back to the
// pre-append watermark, a post-commit (recount-phase) cancellation must
// leave the committed stream consistent, and in both cases the caller
// recovers with a Reset and one retry — resending the batch if it rolled
// back, an empty batch if it committed. The watermark tells the two
// apart, exactly as a resuming client would.
TEST(FaultInjectionTest, DeltaMinerRollsBackOrCommitsButAlwaysRecovers) {
  ExpectedSupportParams params;
  params.min_esup = 0.2;
  StreamBatchSpec spec;
  spec.num_items = 8;
  Rng rng(84);
  const std::vector<Transaction> b1 = MakeStreamBatch(rng, spec, 12);
  const std::vector<Transaction> b2 = MakeStreamBatch(rng, spec, 10);

  // Reference: the same stream, never cancelled.
  Result<std::unique_ptr<DeltaMiner>> clean = MakeDeltaMiner("UApriori",
                                                             params);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(clean.value()->MineNext(b1).ok());
  Result<MiningResult> reference = clean.value()->MineNext(b2);
  ASSERT_TRUE(reference.ok());

  // Learn the checkpoint total of MineNext(b2) on a twin stream (MineNext
  // mutates state, so the counting run needs its own instance).
  MinerOptions count_options;
  const RunContext count_ctx = count_options.run_context;
  Result<std::unique_ptr<DeltaMiner>> counting =
      MakeDeltaMiner("UApriori", params, count_options);
  ASSERT_TRUE(counting.ok());
  ASSERT_TRUE(counting.value()->MineNext(b1).ok());
  const std::uint64_t total = CountCheckpoints(count_ctx, [&] {
    ASSERT_TRUE(counting.value()->MineNext(b2).ok());
  });
  ASSERT_GE(total, 2u) << "expected checkpoints on both sides of the commit";

  for (const std::uint64_t nth :
       FaultSchedule(ScheduleSeed("delta-rollback"), total, kFaultsPerCase)) {
    const std::string at =
        "delta @checkpoint " + std::to_string(nth) + "/" + std::to_string(total);
    MinerOptions options;
    const RunContext ctx = options.run_context;
    Result<std::unique_ptr<DeltaMiner>> delta =
        MakeDeltaMiner("UApriori", params, options);
    ASSERT_TRUE(delta.ok());
    ASSERT_TRUE(delta.value()->MineNext(b1).ok()) << at;
    const std::size_t txns_before = delta.value()->view().num_transactions();

    ctx.AssertQuiescent();  // no mine in flight between the sequential runs
    ctx.ArmFaultAtCheckpoint(nth, StatusCode::kCancelled);
    Result<MiningResult> faulted = delta.value()->MineNext(b2);
    ASSERT_FALSE(faulted.ok()) << at;
    EXPECT_EQ(faulted.status().code(), StatusCode::kCancelled) << at;

    // Consistent either way: fully rolled back or fully committed,
    // never a torn batch.
    const std::size_t txns_now = delta.value()->view().num_transactions();
    const bool committed = txns_now == txns_before + b2.size();
    if (!committed) {
      EXPECT_EQ(txns_now, txns_before) << at;
    }

    ctx.Reset();
    Result<MiningResult> retried = committed ? delta.value()->MineNext({})
                                             : delta.value()->MineNext(b2);
    ASSERT_TRUE(retried.ok()) << at << ": " << retried.status().ToString();
    EXPECT_EQ(delta.value()->view().num_transactions(),
              txns_before + b2.size())
        << at;
    ExpectIdentical(retried.value(), reference.value(), at);
  }
}

// A recount that trips after CommitAppend must not leave half-updated
// carried moments behind: the miner keeps the per-candidate state of
// the last completed recount, so the empty-batch retry joins the
// cancelled batch's transactions again and must report exactly what an
// uninterrupted miner reports for the same empty batch — bits and
// counters. Two earlier batches give the cancelled recount carried
// state to continue from.
TEST(FaultInjectionTest, DeltaMinerRecountCancelKeepsCarriedMoments) {
  ExpectedSupportParams params;
  params.min_esup = 0.1;
  StreamBatchSpec spec;
  spec.num_items = 10;
  Rng rng(85);
  std::vector<std::vector<Transaction>> batches;
  for (int b = 0; b < 3; ++b) batches.push_back(MakeStreamBatch(rng, spec, 40));

  for (const std::size_t threads : {1u, 4u}) {
    const std::string label = "threads " + std::to_string(threads);
    MinerOptions clean_options;
    clean_options.num_threads = threads;
    Result<std::unique_ptr<DeltaMiner>> clean =
        MakeDeltaMiner("UApriori", params, clean_options);
    ASSERT_TRUE(clean.ok());
    for (const std::vector<Transaction>& batch : batches) {
      ASSERT_TRUE(clean.value()->MineNext(batch).ok()) << label;
    }
    Result<MiningResult> reference = clean.value()->MineNext({});
    ASSERT_TRUE(reference.ok()) << label;

    MinerOptions count_options;
    count_options.num_threads = threads;
    const RunContext count_ctx = count_options.run_context;
    Result<std::unique_ptr<DeltaMiner>> counting =
        MakeDeltaMiner("UApriori", params, count_options);
    ASSERT_TRUE(counting.ok());
    ASSERT_TRUE(counting.value()->MineNext(batches[0]).ok()) << label;
    ASSERT_TRUE(counting.value()->MineNext(batches[1]).ok()) << label;
    const std::uint64_t total = CountCheckpoints(count_ctx, [&] {
      ASSERT_TRUE(counting.value()->MineNext(batches[2]).ok());
    });

    std::size_t after_commit = 0;
    for (const std::uint64_t nth : FaultSchedule(
             ScheduleSeed("delta-recount", threads), total, 2 * kFaultsPerCase)) {
      const std::string at = label + " @checkpoint " + std::to_string(nth) +
                             "/" + std::to_string(total);
      MinerOptions options;
      options.num_threads = threads;
      const RunContext ctx = options.run_context;
      Result<std::unique_ptr<DeltaMiner>> delta =
          MakeDeltaMiner("UApriori", params, options);
      ASSERT_TRUE(delta.ok());
      ASSERT_TRUE(delta.value()->MineNext(batches[0]).ok()) << at;
      ASSERT_TRUE(delta.value()->MineNext(batches[1]).ok()) << at;
      const std::size_t txns_before = delta.value()->view().num_transactions();

      ctx.AssertQuiescent();  // no mine in flight between the sequential runs
      ctx.ArmFaultAtCheckpoint(nth, StatusCode::kCancelled);
      Result<MiningResult> faulted = delta.value()->MineNext(batches[2]);
      ASSERT_FALSE(faulted.ok()) << at;
      // Only faults past CommitAppend land in the recount.
      if (delta.value()->view().num_transactions() == txns_before) continue;
      ++after_commit;

      ctx.Reset();
      Result<MiningResult> retried = delta.value()->MineNext({});
      ASSERT_TRUE(retried.ok()) << at << ": " << retried.status().ToString();
      ExpectIdentical(retried.value(), reference.value(), at);
      const MiningCounters& got = retried->counters();
      const MiningCounters& want = reference->counters();
      EXPECT_EQ(got.candidates_generated, want.candidates_generated) << at;
      EXPECT_EQ(got.candidates_pruned_apriori, want.candidates_pruned_apriori)
          << at;
      EXPECT_EQ(got.candidates_rejected_bound, want.candidates_rejected_bound)
          << at;
      EXPECT_EQ(got.candidates_accepted_bound, want.candidates_accepted_bound)
          << at;
      EXPECT_EQ(got.exact_tail_evals, want.exact_tail_evals) << at;
      EXPECT_EQ(got.database_scans, want.database_scans) << at;
    }
    EXPECT_GE(after_commit, 2u) << label << ": too few faults hit the recount";
  }
}

}  // namespace
}  // namespace ufim
