#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/run_context.h"

namespace ufim {
namespace {

TEST(HardwareThreadsTest, AtLeastOne) { EXPECT_GE(HardwareThreads(), 1u); }

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 5u, 16u}) {
    constexpr std::size_t kN = 997;  // prime, larger than any worker count
    std::vector<std::atomic<int>> hits(kN);
    ParallelFor(kN, threads, [&hits](std::size_t i, std::size_t) { ++hits[i]; });
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelForTest, HandlesEdgeSizes) {
  int runs = 0;
  ParallelFor(0, 4, [&runs](std::size_t, std::size_t) { ++runs; });
  EXPECT_EQ(runs, 0);
  ParallelFor(1, 4, [&runs](std::size_t, std::size_t) { ++runs; });
  EXPECT_EQ(runs, 1);
  // num_threads = 0 means hardware concurrency.
  std::atomic<int> par_runs{0};
  ParallelFor(10, 0, [&par_runs](std::size_t, std::size_t) { ++par_runs; });
  EXPECT_EQ(par_runs.load(), 10);
}

TEST(ParallelForTest, ReusableAcrossManyRounds) {
  // Exercises pool reuse: repeated fork-joins over the shared global
  // pool must neither leak tasks nor lose indices.
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    ParallelFor(100, 4, [&sum](std::size_t i, std::size_t) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u) << "round " << round;
  }
}

TEST(ParallelForTest, SkewedWorkloadsStillCoverEverything) {
  // One index is ~100x heavier than the rest — the shape dynamic claims
  // exist for. All indices must still run exactly once.
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<int>> hits(kN);
  std::atomic<std::size_t> heavy_work{0};
  ParallelFor(kN, 4, [&](std::size_t i, std::size_t) {
    ++hits[i];
    const std::size_t spins = i == 0 ? 100000 : 1000;
    std::size_t acc = 0;
    for (std::size_t s = 0; s < spins; ++s) acc += s;
    heavy_work += acc > 0 ? 1 : 0;
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, ExceptionPropagatesAfterAllChunksFinish) {
  // A throwing body does not stop the loop: every index is attempted at
  // every thread count (the caller blocks until all claimed indices
  // finished, so no worker can touch the shared state after the
  // rethrow), and the exception surfaces in the caller.
  for (std::size_t threads : {1u, 4u}) {
    std::vector<std::atomic<int>> ran(100);
    auto run = [&ran, threads] {
      ParallelFor(100, threads, [&ran](std::size_t i, std::size_t) {
        ++ran[i];
        if (i == 37) throw std::invalid_argument("bad index");
      });
    };
    EXPECT_THROW(run(), std::invalid_argument) << "threads " << threads;
    for (std::size_t i = 0; i < 100; ++i) {
      EXPECT_EQ(ran[i].load(), 1) << i << " threads " << threads;
    }
  }
  // The global pool survives for later calls.
  std::atomic<int> after{0};
  ParallelFor(10, 4, [&after](std::size_t, std::size_t) { ++after; });
  EXPECT_EQ(after.load(), 10);
}

TEST(ParallelForTest, NestedParallelForRunsParallelAndCompletes) {
  // A body that itself calls ParallelFor: the inner call recruits its
  // own helpers and its caller drains it too (nothing in the pool sleeps
  // waiting on another loop) instead of deadlocking on a saturated pool
  // or degrading to serial.
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(8, 4, [&hits](std::size_t outer, std::size_t) {
    ParallelFor(8, 4, [&hits, outer](std::size_t inner, std::size_t) {
      ++hits[outer * 8 + inner];
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

// The ParallelForDynamicTest suite pins what the one-at-a-time claim
// scheme promises beyond coverage: worker ids and which error wins.

TEST(ParallelForDynamicTest, CoversEveryIndexExactlyOnceWithValidWorkerIds) {
  for (std::size_t threads : {0u, 1u, 2u, 4u, 8u}) {
    constexpr std::size_t kN = 509;  // prime, larger than any worker count
    const std::size_t workers = ParallelWorkerCount(kN, threads);
    EXPECT_EQ(workers, threads == 0 ? HardwareThreads() : threads);
    std::vector<std::atomic<int>> hits(kN);
    std::vector<std::atomic<int>> by_worker(workers);
    ParallelFor(kN, threads, [&](std::size_t i, std::size_t worker) {
      ASSERT_LT(worker, workers);
      ++hits[i];
      ++by_worker[worker];
    });
    int total = 0;
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
    for (std::size_t w = 0; w < workers; ++w) total += by_worker[w].load();
    EXPECT_EQ(total, static_cast<int>(kN));
  }
}

TEST(ParallelForDynamicTest, HandlesEdgeSizes) {
  EXPECT_EQ(ParallelWorkerCount(0, 4), 0u);
  EXPECT_EQ(ParallelWorkerCount(3, 8), 3u);
  int runs = 0;
  ParallelFor(1, 4, [&runs](std::size_t, std::size_t worker) {
    EXPECT_EQ(worker, 0u);  // one index: the caller runs it
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(ParallelForDynamicTest, LowestFailingIndexExceptionWinsAndAllRun) {
  // Two indices throw different exceptions; whichever fails first, the
  // exception of the lowest failing index is the one rethrown.
  for (std::size_t threads : {1u, 4u, 16u}) {
    std::vector<std::atomic<int>> ran(100);
    auto run = [&ran, threads] {
      ParallelFor(100, threads, [&ran](std::size_t i, std::size_t) {
        ++ran[i];
        if (i == 37) throw std::invalid_argument("37 failed");
        if (i == 73) throw std::out_of_range("73 failed");
      });
    };
    EXPECT_THROW(run(), std::invalid_argument) << "threads " << threads;
    for (std::size_t i = 0; i < 100; ++i) {
      EXPECT_EQ(ran[i].load(), 1) << i << " threads " << threads;
    }
  }
}

TEST(ParallelForDynamicTest, NestedCallRunsParallelAndCompletes) {
  // Each nested call recruits its own helpers with a private worker-id
  // space: ids stay below the nested call's ParallelWorkerCount
  // regardless of which pool threads end up helping.
  const std::size_t nested_workers = ParallelWorkerCount(8, 4);
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(8, 4, [&](std::size_t outer, std::size_t) {
    ParallelFor(8, 4, [&hits, nested_workers, outer](std::size_t inner,
                                                     std::size_t worker) {
      EXPECT_LT(worker, nested_workers);
      ++hits[outer * 8 + inner];
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelForTest, StressNestedLoopsWithLateHelpTokens) {
  // Run under TSan and ASan in CI. Loops much shorter than the help
  // tokens they post: most tokens are popped after their loop closed and
  // its caller's frame (body, slots) is gone, so a late token that read
  // either would surface as a race or a use after return. Each round
  // also nests loops two deep from inside pool threads.
  for (int round = 0; round < 200; ++round) {
    std::vector<std::size_t> outer_sums(4, 0);
    ParallelFor(4, 8, [&outer_sums](std::size_t outer, std::size_t) {
      std::vector<std::size_t> inner(3, 0);
      ParallelFor(3, 8, [&inner, outer](std::size_t i, std::size_t) {
        inner[i] = outer * 10 + i;
      });
      outer_sums[outer] = inner[0] + inner[1] + inner[2];
    });
    for (std::size_t outer = 0; outer < 4; ++outer) {
      EXPECT_EQ(outer_sums[outer], outer * 30 + 3) << "round " << round;
    }
  }
}

TEST(ParallelForTest, ContextTrippedMidLoopUnwindsWithRunAbortedError) {
  // A body trips the token part way through: workers stop claiming, the
  // in-flight bodies drain, and the call unwinds instead of returning
  // as if the loop had completed.
  for (std::size_t threads : {1u, 4u}) {
    RunContext ctx;
    std::atomic<int> ran{0};
    EXPECT_THROW(ParallelFor(
                     1000, threads,
                     [&](std::size_t i, std::size_t) {
                       ran.fetch_add(1);
                       if (i == 10) ctx.Cancel();
                     },
                     &ctx),
                 RunAbortedError)
        << "threads " << threads;
    EXPECT_LT(ran.load(), 1000) << "threads " << threads;
  }
}

}  // namespace
}  // namespace ufim
