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
  // A body that itself calls ParallelFor: the inner call forks a real
  // nested task group (work-stealing scheduler; nothing in the pool
  // sleeps waiting on another task) instead of deadlocking on a
  // saturated pool or degrading to serial.
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
  // Each nested call forks its own group with a private worker-id space:
  // ids stay below the nested call's ParallelWorkerCount regardless of
  // which pool threads end up helping.
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

TEST(TaskGroupTest, SpawnedTasksAllRunAndStealsCoverEveryIndex) {
  // Many more tasks than participants: whatever mix of local pops and
  // steals the scheduler picks, every task must run exactly once.
  constexpr std::size_t kTasks = 512;
  std::vector<std::atomic<int>> hits(kTasks);
  TaskGroup group(8);
  for (std::size_t i = 0; i < kTasks; ++i) {
    const std::size_t index = group.Spawn([&hits, i] { ++hits[i]; });
    EXPECT_EQ(index, i);  // spawn indices are sequential
  }
  group.Wait();
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(TaskGroupTest, TasksSpawnIntoTheirOwnGroup) {
  // Tasks fan out by spawning more tasks into the same group; Wait must
  // cover work spawned after it started draining.
  std::atomic<int> runs{0};
  TaskGroup group(4);
  for (int i = 0; i < 4; ++i) {
    group.Spawn([&group, &runs] {
      ++runs;
      for (int j = 0; j < 8; ++j) {
        group.Spawn([&runs] { ++runs; });
      }
    });
  }
  group.Wait();
  EXPECT_EQ(runs.load(), 4 + 4 * 8);
}

namespace {

// Recursive fork-join over nested groups: sums [lo, hi) by splitting in
// half until small. Exercises nested TaskGroup spawn from inside a
// running task — the shape the miners' recursive splitting uses.
std::size_t NestedTreeSum(std::size_t lo, std::size_t hi) {
  if (hi - lo <= 4) {
    std::size_t acc = 0;
    for (std::size_t i = lo; i < hi; ++i) acc += i;
    return acc;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  std::size_t left = 0, right = 0;
  TaskGroup group(4);
  group.Spawn([&left, lo, mid] { left = NestedTreeSum(lo, mid); });
  group.Spawn([&right, mid, hi] { right = NestedTreeSum(mid, hi); });
  group.Wait();
  return left + right;
}

}  // namespace

TEST(TaskGroupTest, NestedGroupsComputeDeterministicValue) {
  constexpr std::size_t kN = 1000;
  EXPECT_EQ(NestedTreeSum(0, kN), kN * (kN - 1) / 2);
}

TEST(TaskGroupTest, LowestSpawnIndexExceptionWinsAndAllTasksRun) {
  std::vector<std::atomic<int>> ran(10);
  TaskGroup group(4);
  for (std::size_t i = 0; i < 10; ++i) {
    group.Spawn([&ran, i] {
      ++ran[i];
      if (i == 3) throw std::out_of_range("index 3");
      if (i == 7) throw std::runtime_error("index 7");
    });
  }
  // A throwing task never cancels the others; the exception of the
  // lowest spawn index is the one rethrown, regardless of which task
  // happened to fail first in real time.
  EXPECT_THROW(group.Wait(), std::out_of_range);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << i;
  }
}

TEST(TaskGroupTest, ReusableAcrossSpawnWaitPhases) {
  std::atomic<int> runs{0};
  TaskGroup group(4);
  for (int phase = 0; phase < 5; ++phase) {
    for (int i = 0; i < 16; ++i) {
      group.Spawn([&runs] { ++runs; });
    }
    group.Wait();
    EXPECT_EQ(runs.load(), (phase + 1) * 16);
  }
}

TEST(TaskGroupTest, DestructorWaitsWithoutRethrow) {
  std::atomic<int> runs{0};
  {
    TaskGroup group(4);
    group.Spawn([&runs] { ++runs; });
    group.Spawn([] { throw std::runtime_error("never observed"); });
    group.Spawn([&runs] { ++runs; });
    // No Wait: the destructor must run every task to completion and
    // swallow the stored exception.
  }
  EXPECT_EQ(runs.load(), 2);
}

TEST(TaskGroupTest, StressNestedSpawnAndSteal) {
  // TSan-exercised stress loop: repeated fork-joins with same-group
  // fan-out and nested child groups, racing local pops against steals.
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    TaskGroup group(8);
    for (std::size_t i = 0; i < 32; ++i) {
      group.Spawn([&group, &sum, i] {
        sum += i;
        if (i % 4 == 0) {
          TaskGroup child(2);
          for (std::size_t j = 0; j < 4; ++j) {
            child.Spawn([&sum] { sum += 1; });
          }
          child.Wait();
        } else {
          group.Spawn([&sum] { sum += 1000; });
        }
      });
    }
    group.Wait();
    // 32 tasks summing 0..31, 8 of them spawn 4 nested (+1 each), the
    // other 24 spawn one same-group task (+1000 each).
    EXPECT_EQ(sum.load(), 496u + 8 * 4 + 24 * 1000) << "round " << round;
  }
}

}  // namespace
}  // namespace ufim
