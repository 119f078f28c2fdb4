// Parallel pattern growth: UFP-growth, UH-Mine and NDUH-Mine across
// worker-thread counts over prebuilt FlatViews.
//
// The miners run the top-level header ranks of their global structure
// (UFP-tree / UH-Struct) as one dynamically-claimed ParallelFor, and
// with more than one thread a dominant conditional subtree splits into a
// nested ParallelFor under one fixed size rule (see UFPGrowth and
// UHStructEngine). Outputs merge in fixed rank order, so every thread
// count returns bit-identical results (enforced by
// integration_parallel_equivalence_test; this bench only times it).
//
// The benchmark arg is {threads}. Each row records the thread count,
// the host's hardware_concurrency and the active intersection kernel, so
// a record is self-describing: rows with more threads than
// hardware_concurrency oversubscribe the host (see
// BENCH_pattern_growth.json for the 4-CPU record).
//
// Measured on Kosarak-like sparse data (UH-Mine's favorable regime,
// where pattern growth is competitive with the apriori family), on the
// Quest T25I15 family, and on a skewed one-dominant-rank chain dataset
// where a single top-level rank owns nearly all the work — the
// straggler shape the split exists to decompose.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>

#include "bench_datasets.h"
#include "common/run_context.h"
#include "core/flat_view.h"
#include "core/miner.h"
#include "core/miner_registry.h"
#include "core/simd_intersect.h"

namespace ufim::bench {
namespace {

void RunMiner(benchmark::State& state, const char* algorithm,
              const FlatView& view, const MiningTask& task) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  MinerOptions options;
  options.num_threads = threads;
  const RunContext ctx = options.run_context;  // shared-state handle
  std::unique_ptr<Miner> miner =
      MinerRegistry::Global().Create(algorithm, options);
  std::size_t found = 0;
  for (auto _ : state) {
    auto result = miner->Mine(view, task);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    found = result->size();
    benchmark::DoNotOptimize(result);
  }
  // Checkpoint density, measured by one count-only run outside the timed
  // loop (counting mode pays for an extra atomic increment per poll, so
  // it never runs while the clock does). checkpoints * the fast-path
  // cost ceiling pinned by common_run_context_test bounds the
  // cancellation overhead of a row well under the 1% budget.
  ctx.AssertQuiescent();  // timed loop finished; no mine in flight
  ctx.ArmFaultAtCheckpoint(std::numeric_limits<std::uint64_t>::max(),
                           StatusCode::kCancelled);
  // A failure here is a broken configuration, not a missing counter —
  // surface it instead of silently omitting "checkpoints" (the old
  // `if (....ok())` swallowed the error; PR-9 ignored-Status audit).
  if (Result<MiningResult> counted = miner->Mine(view, task); counted.ok()) {
    state.counters["checkpoints"] = static_cast<double>(ctx.checkpoints());
  } else {
    state.SkipWithError(counted.status().ToString().c_str());
  }
  ctx.Reset();
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["hardware_concurrency"] =
      static_cast<double>(std::thread::hardware_concurrency());
  state.counters["itemsets"] = static_cast<double>(found);
  state.SetLabel(IntersectKernelName(ForcedIntersectKernel()));
}

// {threads} sweep: the serial baseline, then 2, 4 and 8 workers.
void ThreadSweep(benchmark::internal::Benchmark* b) {
  b->Unit(benchmark::kMillisecond);
  for (long threads : {1L, 2L, 4L, 8L}) b->Args({threads});
}

const FlatView& KosarakView() {
  static const FlatView* view = new FlatView(KosarakDb());
  return *view;
}

const FlatView& QuestView() {
  static const FlatView* view = new FlatView(QuestDb(4000));
  return *view;
}

const FlatView& DominantChainView() {
  static const FlatView* view = new FlatView(DominantChainDb());
  return *view;
}

MiningTask EsupTask(double min_esup) {
  ExpectedSupportParams params;
  params.min_esup = min_esup;
  return params;
}

MiningTask ProbTask(double min_sup, double pft) {
  ProbabilisticParams params;
  params.min_sup = min_sup;
  params.pft = pft;
  return params;
}

void BM_UFPGrowthKosarak(benchmark::State& state) {
  RunMiner(state, "UFP-growth", KosarakView(), EsupTask(0.0025));
}
BENCHMARK(BM_UFPGrowthKosarak)->Apply(ThreadSweep);

void BM_UHMineKosarak(benchmark::State& state) {
  RunMiner(state, "UH-Mine", KosarakView(), EsupTask(0.0025));
}
BENCHMARK(BM_UHMineKosarak)->Apply(ThreadSweep);

void BM_NDUHMineKosarak(benchmark::State& state) {
  RunMiner(state, "NDUH-Mine", KosarakView(), ProbTask(0.005, 0.5));
}
BENCHMARK(BM_NDUHMineKosarak)->Apply(ThreadSweep);

void BM_UFPGrowthQuest(benchmark::State& state) {
  RunMiner(state, "UFP-growth", QuestView(), EsupTask(0.01));
}
BENCHMARK(BM_UFPGrowthQuest)->Apply(ThreadSweep);

void BM_UHMineQuest(benchmark::State& state) {
  RunMiner(state, "UH-Mine", QuestView(), EsupTask(0.01));
}
BENCHMARK(BM_UHMineQuest)->Apply(ThreadSweep);

void BM_UFPGrowthDominantChain(benchmark::State& state) {
  RunMiner(state, "UFP-growth", DominantChainView(), EsupTask(0.05));
}
BENCHMARK(BM_UFPGrowthDominantChain)->Apply(ThreadSweep);

void BM_UHMineDominantChain(benchmark::State& state) {
  RunMiner(state, "UH-Mine", DominantChainView(), EsupTask(0.05));
}
BENCHMARK(BM_UHMineDominantChain)->Apply(ThreadSweep);

void BM_NDUHMineDominantChain(benchmark::State& state) {
  RunMiner(state, "NDUH-Mine", DominantChainView(), ProbTask(0.08, 0.5));
}
BENCHMARK(BM_NDUHMineDominantChain)->Apply(ThreadSweep);

}  // namespace
}  // namespace ufim::bench

BENCHMARK_MAIN();
