// TSan concurrent-reader matrix for snapshot handles: miners run over a
// StreamingSnapshot while a live writer thread appends and
// force-compacts the source view, at {1,2,8} miner threads under every
// intersection kernel. The snapshot mine must be bit-identical —
// results and MiningCounters — to mining the same handle quiesced
// (before the writer starts and after it joins). A second leg pins
// DeltaMiner::MineNext against explicit Compact() calls racing its
// recount phase. Run under ThreadSanitizer in CI (the copy-on-compact
// publication and the frozen-snapshot reads are exactly the shared
// state TSan needs to see).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/delta_miner.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "core/mining_result.h"
#include "core/simd_intersect.h"
#include "core/streaming_flat_view.h"
#include "testing/random_db.h"

namespace ufim {
namespace {

using testing_util::MakeStreamBatch;
using testing_util::StreamBatchSpec;

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// Forces a kernel for one scope and restores the heuristic on exit.
struct ScopedKernel {
  explicit ScopedKernel(IntersectKernel k) { SetIntersectKernel(k); }
  ~ScopedKernel() { SetIntersectKernel(IntersectKernel::kAuto); }
};

/// Bit-identical comparison: itemsets, moments and work counters.
void ExpectBitIdentical(const MiningResult& got, const MiningResult& want,
                        const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].itemset, want[i].itemset) << label;
    EXPECT_EQ(got[i].expected_support, want[i].expected_support)
        << label << " " << want[i].itemset.ToString();
    EXPECT_EQ(got[i].variance, want[i].variance)
        << label << " " << want[i].itemset.ToString();
  }
  const MiningCounters& cg = got.counters();
  const MiningCounters& cw = want.counters();
  EXPECT_EQ(cg.candidates_generated, cw.candidates_generated) << label;
  EXPECT_EQ(cg.candidates_pruned_apriori, cw.candidates_pruned_apriori)
      << label;
  EXPECT_EQ(cg.candidates_rejected_bound, cw.candidates_rejected_bound)
      << label;
  EXPECT_EQ(cg.exact_tail_evals, cw.exact_tail_evals) << label;
  EXPECT_EQ(cg.database_scans, cw.database_scans) << label;
}

class SnapshotConcurrencyTest
    : public ::testing::TestWithParam<IntersectKernel> {};

TEST_P(SnapshotConcurrencyTest, MineOverSnapshotWithLiveWriter) {
  ScopedKernel forced(GetParam());
  ExpectedSupportParams params;
  params.min_esup = 0.2;
  const MiningTask task(params);

  for (const std::size_t threads : kThreadCounts) {
    const std::string label =
        std::string("kernel=") + std::string(IntersectKernelName(GetParam())) +
        " threads=" + std::to_string(threads);
    Rng rng(4242 + threads);
    StreamBatchSpec spec;
    spec.num_items = 9;

    CompactionPolicy policy;
    policy.max_delta_ratio = 1.0;  // leave a real delta for the snapshot
    policy.min_delta_units = 8;
    StreamingFlatView sv{policy};
    sv.AssertSoleWriter();  // setup phase: this thread is the writer
    for (int round = 0; round < 3; ++round) {
      sv.Append(FlatView(MakeStreamBatch(rng, spec, 6)));
    }
    const StreamingSnapshot snap = sv.Snapshot();

    MinerOptions options;
    options.num_threads = threads;
    std::unique_ptr<Miner> miner =
        MinerRegistry::Global().Create("UApriori", options);
    ASSERT_NE(miner, nullptr);

    // Quiesced baseline over the frozen handle, before any writer runs.
    Result<MiningResult> baseline = miner->Mine(snap.view(), task);
    ASSERT_TRUE(baseline.ok()) << label << ": " << baseline.status().ToString();

    // Writer thread: appends and force-compacts the source while the
    // main thread mines the snapshot. Thread creation/join give the
    // happens-before edges the single-writer contract needs — inside
    // the thread body it is the sole writer.
    const std::vector<std::vector<Transaction>> writer_batches = [&] {
      std::vector<std::vector<Transaction>> batches;
      for (int round = 0; round < 6; ++round) {
        batches.push_back(MakeStreamBatch(rng, spec, 5));
      }
      return batches;
    }();
    std::thread writer([&sv, &writer_batches] {
      sv.AssertSoleWriter();
      for (std::size_t round = 0; round < writer_batches.size(); ++round) {
        sv.Append(FlatView(writer_batches[round]));
        if (round % 2 == 0) sv.Compact();
      }
    });

    // Concurrent mine over the frozen handle, racing the writer.
    Result<MiningResult> live = miner->Mine(snap.view(), task);
    writer.join();
    ASSERT_TRUE(live.ok()) << label << ": " << live.status().ToString();

    // Quiesced re-mine after the writer finished.
    Result<MiningResult> after = miner->Mine(snap.view(), task);
    ASSERT_TRUE(after.ok()) << label << ": " << after.status().ToString();

    ExpectBitIdentical(live.value(), baseline.value(), label + " live");
    ExpectBitIdentical(after.value(), baseline.value(), label + " after");
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_P(SnapshotConcurrencyTest, DeltaMinerRecountToleratesConcurrentCompact) {
  ScopedKernel forced(GetParam());
  ExpectedSupportParams params;
  params.min_esup = 0.25;

  for (const std::size_t threads : kThreadCounts) {
    const std::string label =
        std::string("kernel=") + std::string(IntersectKernelName(GetParam())) +
        " threads=" + std::to_string(threads);
    Rng rng(777 + threads);
    StreamBatchSpec spec;
    spec.num_items = 8;
    std::vector<std::vector<Transaction>> batches;
    for (int b = 0; b < 5; ++b) batches.push_back(MakeStreamBatch(rng, spec, 6));

    MinerOptions options;
    options.num_threads = threads;
    CompactionPolicy policy;
    policy.max_delta_ratio = 2.0;  // keep a delta for Compact() to fold
    policy.min_delta_units = 4;

    // Serial reference: same batches, no concurrent compactor.
    Result<std::unique_ptr<DeltaMiner>> reference =
        MakeDeltaMiner("UApriori", params, options, policy);
    ASSERT_TRUE(reference.ok()) << label;
    std::vector<MiningResult> want;
    for (const std::vector<Transaction>& batch : batches) {
      Result<MiningResult> r = reference.value()->MineNext(batch);
      ASSERT_TRUE(r.ok()) << label << ": " << r.status().ToString();
      want.push_back(std::move(r).value());
    }

    // Concurrent run: a second thread hammers explicit Compact() —
    // serialized with MineNext's mutation phase by the miner's write
    // mutex, free to overlap its snapshot-based recount phase — while
    // the main thread feeds the same batches.
    Result<std::unique_ptr<DeltaMiner>> concurrent =
        MakeDeltaMiner("UApriori", params, options, policy);
    ASSERT_TRUE(concurrent.ok()) << label;
    std::atomic<bool> stop{false};
    std::thread compactor([&concurrent, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        concurrent.value()->Compact();
        std::this_thread::yield();
      }
    });
    std::vector<MiningResult> got;
    for (const std::vector<Transaction>& batch : batches) {
      Result<MiningResult> r = concurrent.value()->MineNext(batch);
      if (!r.ok()) {
        stop.store(true, std::memory_order_relaxed);
        compactor.join();
        FAIL() << label << ": " << r.status().ToString();
      }
      got.push_back(std::move(r).value());
    }
    stop.store(true, std::memory_order_relaxed);
    compactor.join();

    // Compaction is a layout change only: every step's results and
    // counters match the compactor-free run bit for bit.
    for (std::size_t op = 0; op < want.size(); ++op) {
      ExpectBitIdentical(got[op], want[op],
                         label + " op=" + std::to_string(op));
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, SnapshotConcurrencyTest,
                         ::testing::Values(IntersectKernel::kScalar,
                                           IntersectKernel::kGallop,
                                           IntersectKernel::kSimd),
                         [](const auto& info) {
                           return std::string(
                               IntersectKernelName(info.param));
                         });

}  // namespace
}  // namespace ufim
