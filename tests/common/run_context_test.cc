// RunContext unit coverage: the cancellation token, soft deadline and
// memory budget (this binary links the alloc hooks), the deterministic
// checkpoint-fault trigger, Reset-based retry, and the execution-layer
// contract (ParallelFor observes a tripped token and the pool stays
// reusable afterwards). The cross-miner cancellation sweeps live
// in tests/integration/fault_injection_test.cc.
#include "common/run_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "algo/apriori_framework.h"
#include "common/thread_pool.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "core/transaction.h"
#include "core/uncertain_database.h"
#include "eval/memory_tracker.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define UFIM_TEST_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define UFIM_TEST_SANITIZED 1
#endif

namespace ufim {
namespace {

constexpr std::uint64_t kCountOnly =
    std::numeric_limits<std::uint64_t>::max();

TEST(RunContextTest, DefaultIsLiveAndUnconstrained) {
  RunContext ctx;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ctx.CheckPoint().ok());
  EXPECT_FALSE(ctx.aborted());
  EXPECT_TRUE(ctx.status().ok());
}

TEST(RunContextTest, CancelTripsAndCopiesShareTheToken) {
  RunContext ctx;
  RunContext copy = ctx;
  copy.Cancel();
  EXPECT_TRUE(ctx.aborted());
  EXPECT_EQ(ctx.CheckPoint().code(), StatusCode::kCancelled);
  EXPECT_EQ(ctx.status().code(), StatusCode::kCancelled);
  // Idempotent, and the first trip wins over later causes.
  copy.Cancel();
  ctx.SetDeadlineAfter(std::chrono::nanoseconds(-1));
  EXPECT_EQ(ctx.CheckPoint().code(), StatusCode::kCancelled);
}

TEST(RunContextTest, DeadlineTripsWithinThePollWindow) {
  RunContext ctx;
  ctx.SetDeadlineAfterMillis(0);
  // The amortized fast path reads the clock only ~every 32nd poll per
  // thread, so the trip lands within one window of polls.
  Status s = Status::OK();
  for (int i = 0; i < 64 && s.ok(); ++i) s = ctx.CheckPoint();
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
}

TEST(RunContextTest, DeadlineCheckedEveryPollInCountingMode) {
  RunContext ctx;
  ctx.SetDeadlineAfter(std::chrono::nanoseconds(-1));
  ctx.AssertQuiescent();  // single-threaded test body: between runs
  ctx.ArmFaultAtCheckpoint(kCountOnly, StatusCode::kInternal);
  EXPECT_EQ(ctx.CheckPoint().code(), StatusCode::kDeadlineExceeded);
}

TEST(RunContextTest, MemoryBudgetTripsOnTrackedGrowth) {
  ASSERT_TRUE(memory_tracker::HooksInstalled())
      << "this test binary must link ufim_alloc_hooks";
  RunContext ctx;
  ctx.SetMemoryBudgetBytes(1024);
  // Allocate well past the budget and keep it live across the poll.
  auto ballast = std::make_unique<std::vector<char>>(std::size_t{1} << 20);
  ctx.AssertQuiescent();  // single-threaded test body: between runs
  ctx.ArmFaultAtCheckpoint(kCountOnly, StatusCode::kInternal);
  EXPECT_EQ(ctx.CheckPoint().code(), StatusCode::kResourceExhausted);
  ASSERT_FALSE(ballast->empty());
}

TEST(RunContextTest, MemoryBudgetIsRelativeToTheArmTimeBaseline) {
  ASSERT_TRUE(memory_tracker::HooksInstalled());
  // Pre-existing allocations do not count: the budget measures growth
  // from the moment it is armed.
  auto preexisting = std::make_unique<std::vector<char>>(std::size_t{1} << 20);
  RunContext ctx;
  ctx.SetMemoryBudgetBytes(std::size_t{8} << 20);
  ctx.AssertQuiescent();  // single-threaded test body: between runs
  ctx.ArmFaultAtCheckpoint(kCountOnly, StatusCode::kInternal);
  EXPECT_TRUE(ctx.CheckPoint().ok());
  ASSERT_FALSE(preexisting->empty());
}

TEST(RunContextTest, ArmedFaultFiresAtTheExactCheckpoint) {
  RunContext ctx;
  ctx.AssertQuiescent();  // single-threaded test body: between runs
  ctx.ArmFaultAtCheckpoint(3, StatusCode::kCancelled);
  EXPECT_TRUE(ctx.CheckPoint().ok());
  EXPECT_TRUE(ctx.CheckPoint().ok());
  EXPECT_EQ(ctx.CheckPoint().code(), StatusCode::kCancelled);
  EXPECT_EQ(ctx.checkpoints(), 3u);
  // Sticky once tripped.
  EXPECT_FALSE(ctx.CheckPoint().ok());
}

TEST(RunContextTest, CountOnlyArmingCountsWithoutFaulting) {
  RunContext ctx;
  ctx.AssertQuiescent();  // single-threaded test body: between runs
  ctx.ArmFaultAtCheckpoint(kCountOnly, StatusCode::kCancelled);
  for (int i = 0; i < 17; ++i) EXPECT_TRUE(ctx.CheckPoint().ok());
  EXPECT_EQ(ctx.checkpoints(), 17u);
}

TEST(RunContextTest, ResetRestoresAFreshContext) {
  RunContext ctx;
  ctx.AssertQuiescent();  // single-threaded test body: between runs
  ctx.ArmFaultAtCheckpoint(1, StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(ctx.CheckPoint().ok());
  ctx.Reset();
  EXPECT_FALSE(ctx.aborted());
  EXPECT_EQ(ctx.checkpoints(), 0u);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(ctx.CheckPoint().ok());
}

TEST(RunContextTest, PollOrThrowCarriesTheStatus) {
  RunContext ctx;
  ctx.Cancel();
  try {
    ctx.PollOrThrow();
    FAIL() << "expected RunAbortedError";
  } catch (const RunAbortedError& aborted) {
    EXPECT_EQ(aborted.status().code(), StatusCode::kCancelled);
  }
  PollRunContext(nullptr);  // nullptr form is a no-op, never throws
}

TEST(RunContextTest, ParallelForSkipsBodiesOnceTripped) {
  RunContext ctx;
  ctx.Cancel();
  std::atomic<int> ran{0};
  // Skipped work must not be mistaken for completed work: a loop whose
  // token tripped before it started runs no body and unwinds.
  EXPECT_THROW(ParallelFor(
                   8, 2, [&](std::size_t, std::size_t) { ran.fetch_add(1); },
                   &ctx),
               RunAbortedError);
  EXPECT_EQ(ran.load(), 0);
}

TEST(RunContextTest, ParallelForUnwindsAndThePoolStaysReusable) {
  RunContext ctx;
  ctx.Cancel();
  std::atomic<int> ran{0};
  auto body = [&](std::size_t, std::size_t) { ran.fetch_add(1); };
  EXPECT_THROW(ParallelFor(1000, 4, body, &ctx), RunAbortedError);
  EXPECT_EQ(ran.load(), 0);
  // Same objects, fresh token: the pool and the loop run normally — the
  // cancelled run left nothing behind.
  ctx.AssertQuiescent();  // single-threaded test body: between runs
  ctx.Reset();
  ParallelFor(1000, 4, body, &ctx);
  EXPECT_EQ(ran.load(), 1000);
}

/// Same itemsets, same moments bit for bit, same counters.
void ExpectBitIdentical(const MiningResult& got, const MiningResult& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].itemset, want[i].itemset);
    EXPECT_EQ(got[i].expected_support, want[i].expected_support);
    EXPECT_EQ(got[i].variance, want[i].variance);
  }
  const MiningCounters& a = got.counters();
  const MiningCounters& b = want.counters();
  EXPECT_EQ(a.candidates_generated, b.candidates_generated);
  EXPECT_EQ(a.candidates_pruned_apriori, b.candidates_pruned_apriori);
  EXPECT_EQ(a.candidates_rejected_bound, b.candidates_rejected_bound);
  EXPECT_EQ(a.candidates_accepted_bound, b.candidates_accepted_bound);
  EXPECT_EQ(a.exact_tail_evals, b.exact_tail_evals);
  EXPECT_EQ(a.database_scans, b.database_scans);
}

TEST(RunContextTest, UAprioriPairPassTripsMemoryBudget) {
  ASSERT_TRUE(memory_tracker::HooksInstalled());
  // QUEST T25I15 at a low threshold keeps F >= 900 items frequent, so
  // UApriori's level-2 triangle alone holds F(F-1)/2 × 16 B >= 6 MB — far
  // past a 1 MiB budget, which must surface as a clean Status, not a
  // crash or a partial result.
  auto det = MakeQuestT25I15(3000, 29);
  ASSERT_TRUE(det.ok()) << det.status().ToString();
  const FlatView view(AssignGaussianProbabilities(*det, 0.9, 0.1, 31));
  ExpectedSupportParams params;
  params.min_esup = 0.005;
  const double threshold =
      params.min_esup * static_cast<double>(view.num_transactions());
  std::size_t frequent_items = 0;
  for (const ItemStats& is : CollectItemStats(view)) {
    frequent_items += is.esup >= threshold;
  }
  ASSERT_GE(frequent_items, 900u);

  Result<MiningResult> unbudgeted =
      MinerRegistry::Global().Create("UApriori")->Mine(view, params);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().ToString();

  MinerOptions options;
  options.run_context.SetMemoryBudgetBytes(std::size_t{1} << 20);
  std::unique_ptr<Miner> miner =
      MinerRegistry::Global().Create("UApriori", options);
  Result<MiningResult> tripped = miner->Mine(view, params);
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);

  // Same miner, reset token: the aborted run left nothing behind.
  options.run_context.AssertQuiescent();  // single-threaded: between runs
  options.run_context.Reset();
  Result<MiningResult> rerun = miner->Mine(view, params);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  ExpectBitIdentical(*rerun, *unbudgeted);
}

TEST(RunContextTest, UFPGrowthTreeTripsMemoryBudget) {
  ASSERT_TRUE(memory_tracker::HooksInstalled());
  // QUEST T25I15 at a low threshold shares almost no UFP-tree node, so
  // the global tree alone holds ~25 nodes per transaction at 32 B each
  // plus its child index — far past a 1 MiB budget, which must surface
  // as a clean Status.
  auto det = MakeQuestT25I15(3000, 29);
  ASSERT_TRUE(det.ok()) << det.status().ToString();
  const FlatView view(AssignGaussianProbabilities(*det, 0.9, 0.1, 31));
  ExpectedSupportParams params;
  params.min_esup = 0.005;

  Result<MiningResult> unbudgeted =
      MinerRegistry::Global().Create("UFP-growth")->Mine(view, params);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().ToString();
  ASSERT_GT(unbudgeted->size(), 0u);

  MinerOptions options;
  options.run_context.SetMemoryBudgetBytes(std::size_t{1} << 20);
  std::unique_ptr<Miner> miner =
      MinerRegistry::Global().Create("UFP-growth", options);
  Result<MiningResult> tripped = miner->Mine(view, params);
  EXPECT_EQ(tripped.status().code(), StatusCode::kResourceExhausted);

  // Same miner, reset token: the aborted run left nothing behind.
  options.run_context.AssertQuiescent();  // single-threaded: between runs
  options.run_context.Reset();
  Result<MiningResult> rerun = miner->Mine(view, params);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  ExpectBitIdentical(*rerun, *unbudgeted);
}

TEST(RunContextTest, UFPGrowthSharedTreeStaysWithinMemoryBudget) {
  ASSERT_TRUE(memory_tracker::HooksInstalled());
  // Every transaction is a prefix of one item chain, and the chain's
  // probabilities repeat every 8 transactions, so ~42,000 projected
  // units share fewer than 200 UFP-tree nodes. A tree sized by its unit
  // count would reserve ~1.3 MB of nodes and a 512 KiB child index; one
  // sized by its nodes stays far below a 1 MiB budget (the projection
  // itself is ~0.7 MB).
  std::vector<Transaction> txns;
  for (std::size_t t = 0; t < 6000; ++t) {
    std::vector<ProbItem> units;
    for (std::size_t i = 0; i <= t % 24; ++i) {
      units.push_back(ProbItem{static_cast<ItemId>(i),
                               0.55 + 0.05 * static_cast<double>((t + 3 * i) % 8)});
    }
    txns.push_back(Transaction(std::move(units)));
  }
  const FlatView view(UncertainDatabase(std::move(txns)));
  ExpectedSupportParams params;
  params.min_esup = 0.5;

  Result<MiningResult> unbudgeted =
      MinerRegistry::Global().Create("UFP-growth")->Mine(view, params);
  ASSERT_TRUE(unbudgeted.ok()) << unbudgeted.status().ToString();
  ASSERT_GT(unbudgeted->size(), 0u);

  for (std::size_t threads : {1, 4}) {
    MinerOptions options;
    options.num_threads = threads;
    options.run_context.SetMemoryBudgetBytes(std::size_t{1} << 20);
    Result<MiningResult> budgeted =
        MinerRegistry::Global().Create("UFP-growth", options)->Mine(view, params);
    ASSERT_TRUE(budgeted.ok()) << "threads " << threads << ": "
                               << budgeted.status().ToString();
    ExpectBitIdentical(*budgeted, *unbudgeted);
  }
}

TEST(RunContextTest, CheckPointFastPathStaysCheap) {
  RunContext ctx;
  constexpr int kIters = 1 << 20;
  int ok = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) ok += ctx.CheckPoint().ok() ? 1 : 0;
  const double ns_per_call =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count()) /
      kIters;
  EXPECT_EQ(ok, kIters);
  // Loose absolute ceiling: the fast path is a relaxed load plus a
  // thread-local tick. If it regresses to locking or reading the clock
  // every call, this trips long before the <1% mining budget would.
#if defined(UFIM_TEST_SANITIZED)
  constexpr double kMaxNsPerCall = 4000.0;
#else
  constexpr double kMaxNsPerCall = 250.0;
#endif
  EXPECT_LT(ns_per_call, kMaxNsPerCall);
}

}  // namespace
}  // namespace ufim
