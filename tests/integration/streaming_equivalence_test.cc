// Streaming differential harness: randomized append/compact/mine
// schedules asserting that incremental mining over the streaming
// base+delta layout is bit-identical — results *and* work counters — to
// a full rebuild+mine at every step, under every intersection kernel at
// 1, 2 and 8 threads, and set-identical to the plain non-incremental
// miners. See tests/testing/stream_harness.h for exactly what one
// schedule checks.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/mining_result.h"
#include "core/simd_intersect.h"
#include "testing/stream_harness.h"

namespace ufim {
namespace {

using testing_util::RunStreamDifferential;
using testing_util::StreamScheduleSpec;

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

/// Forces a kernel for one scope and restores the heuristic on exit.
struct ScopedKernel {
  explicit ScopedKernel(IntersectKernel k) { SetIntersectKernel(k); }
  ~ScopedKernel() { SetIntersectKernel(IntersectKernel::kAuto); }
};

/// Schedule variety, derived from the seed alone: every third seed leans
/// on heavy item skew, every fourth raises the empty-transaction rate,
/// every fifth mines at a low threshold (deeper levels, more
/// candidates). Combined with the in-harness randomization (batch sizes,
/// forced compactions, compaction policy, universe growth) this spreads
/// the schedules across the regimes the delta path must survive.
StreamScheduleSpec SpecForSeed(std::uint64_t seed) {
  StreamScheduleSpec spec;
  spec.seed = seed;
  spec.batch.num_items = 8 + seed % 5;
  spec.batch.item_skew = (seed % 3 == 0) ? 2.0 : 0.9;
  spec.batch.empty_prob = (seed % 4 == 0) ? 0.3 : 0.05;
  spec.min_esup = (seed % 5 == 0) ? 0.1 : 0.25;
  return spec;
}

class StreamingEquivalenceTest
    : public ::testing::TestWithParam<IntersectKernel> {};

// 72 seeded schedules per kernel instance (216 across the suite), each
// run — and checked — at 1, 2 and 8 threads, with the final streaming
// results additionally pinned bit-identical across the thread counts.
TEST_P(StreamingEquivalenceTest, RandomSchedulesMatchRebuildBitForBit) {
  ScopedKernel forced(GetParam());
  constexpr std::uint64_t kSeedsPerKernel = 72;
  const std::uint64_t base =
      1000 * (static_cast<std::uint64_t>(GetParam()) + 1);
  for (std::uint64_t seed = base; seed < base + kSeedsPerKernel; ++seed) {
    const StreamScheduleSpec spec = SpecForSeed(seed);
    MiningResult per_thread[std::size(kThreadCounts)];
    for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
      RunStreamDifferential(spec, "UApriori", kThreadCounts[t],
                            &per_thread[t]);
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (std::size_t t = 1; t < std::size(kThreadCounts); ++t) {
      ASSERT_EQ(per_thread[t].size(), per_thread[0].size())
          << "seed=" << seed << " threads=" << kThreadCounts[t];
      for (std::size_t i = 0; i < per_thread[0].size(); ++i) {
        EXPECT_EQ(per_thread[t][i].itemset, per_thread[0][i].itemset)
            << "seed=" << seed;
        EXPECT_EQ(per_thread[t][i].expected_support,
                  per_thread[0][i].expected_support)
            << "seed=" << seed;
        EXPECT_EQ(per_thread[t][i].variance, per_thread[0][i].variance)
            << "seed=" << seed;
      }
    }
  }
}

// The pattern-growth shard miners run the same differential on a
// smaller seed set: their projection/tree paths consume the streaming
// view through a different accessor (the rank projection) than the
// apriori join path.
TEST_P(StreamingEquivalenceTest, PatternGrowthShardMiners) {
  ScopedKernel forced(GetParam());
  for (const char* algorithm : {"UFP-growth", "UH-Mine"}) {
    for (std::uint64_t seed = 7; seed < 19; ++seed) {
      for (const std::size_t threads : kThreadCounts) {
        RunStreamDifferential(SpecForSeed(seed), algorithm, threads);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, StreamingEquivalenceTest,
                         ::testing::Values(IntersectKernel::kScalar,
                                           IntersectKernel::kGallop,
                                           IntersectKernel::kSimd),
                         [](const auto& info) {
                           return std::string(
                               IntersectKernelName(info.param));
                         });

}  // namespace
}  // namespace ufim
