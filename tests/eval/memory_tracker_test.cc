// Linked against ufim_alloc_hooks, so the counters are live here.
#include "eval/memory_tracker.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

namespace ufim {
namespace {

TEST(MemoryTrackerTest, HooksAreInstalledInThisBinary) {
  EXPECT_TRUE(memory_tracker::HooksInstalled());
}

TEST(MemoryTrackerTest, AllocationMovesCurrentAndPeak) {
  memory_tracker::ResetPeak();
  const std::size_t before = memory_tracker::CurrentBytes();
  {
    auto block = std::make_unique<std::vector<char>>(1 << 20);
    EXPECT_GE(memory_tracker::CurrentBytes(), before + (1 << 20));
    EXPECT_GE(memory_tracker::PeakBytes(), before + (1 << 20));
  }
  // Freed: current returns near the baseline, peak stays high.
  EXPECT_LT(memory_tracker::CurrentBytes(), before + (1 << 16));
  EXPECT_GE(memory_tracker::PeakBytes(), before + (1 << 20));
}

TEST(MemoryTrackerTest, ResetPeakDropsToCurrent) {
  {
    std::vector<char> big(1 << 20);
    (void)big;
  }
  memory_tracker::ResetPeak();
  EXPECT_EQ(memory_tracker::PeakBytes(), memory_tracker::CurrentBytes());
}

TEST(ScopedPeakMemoryTest, ReportsDeltaAboveBaseline) {
  ScopedPeakMemory scope;
  EXPECT_EQ(scope.PeakDeltaBytes(), 0u);
  {
    std::vector<char> big(512 * 1024);
    (void)big;
  }
  EXPECT_GE(scope.PeakDeltaBytes(), 512u * 1024u);
  EXPECT_LT(scope.PeakDeltaBytes(), 8u * 1024u * 1024u);
}

TEST(ScopedPeakMemoryTest, NestedScopesSeeOwnDeltas) {
  ScopedPeakMemory outer;
  {
    std::vector<char> a(256 * 1024);
    (void)a;
  }
  ScopedPeakMemory inner;  // resets the peak
  EXPECT_EQ(inner.PeakDeltaBytes(), 0u);
  {
    std::vector<char> b(64 * 1024);
    (void)b;
  }
  EXPECT_GE(inner.PeakDeltaBytes(), 64u * 1024u);
  EXPECT_LT(inner.PeakDeltaBytes(), 256u * 1024u);
}

TEST(MemoryTrackerTest, AlignedAllocationsTracked) {
  memory_tracker::ResetPeak();
  const std::size_t before = memory_tracker::CurrentBytes();
  struct alignas(64) Wide {
    char data[256];
  };
  auto w = std::make_unique<Wide>();
  EXPECT_GE(memory_tracker::CurrentBytes(), before + sizeof(Wide));
}

}  // namespace
}  // namespace ufim
