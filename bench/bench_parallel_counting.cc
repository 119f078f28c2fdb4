// Parallel execution layer on the QUEST scalability family: sequential
// vs 2/4/8-thread candidate counting, and sharded vs monolithic mining.
//
// Measured:
//   * EvaluateCandidates (one posting join per candidate) over all pairs
//     of frequent items at 1/2/4/8 threads — the join that levels k >= 3
//     and the SON recounts run (UApriori itself counts pairs in one
//     triangular pass, timed whole by BM_UAprioriThreads),
//   * a full UApriori run at 1/2/4/8 threads, and
//   * a full UApriori run through ShardedMiner at 1/2/4/8 shards with
//     matching thread counts, against the unsharded single-thread run.
//
// Results are recorded in BENCH_parallel.json. Speedups require real
// cores: the recorded environment block states how many the run had,
// and thread counts above it only time-slice.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "algo/apriori_framework.h"
#include "bench_datasets.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "core/sharded_miner.h"

namespace ufim::bench {
namespace {

constexpr double kMinEsupRatio = 0.005;

/// All pairs of frequent items: the pair candidates `GenerateCandidates`
/// emits for level 2, joined here one by one (UApriori's own level 2
/// counts them in one triangular pass instead).
std::vector<Itemset> Level2Candidates(const FlatView& view) {
  const double threshold =
      kMinEsupRatio * static_cast<double>(view.num_transactions());
  std::vector<ItemStats> stats = CollectItemStats(view);
  std::vector<Itemset> frequent;
  for (const ItemStats& is : stats) {
    if (is.esup >= threshold) frequent.push_back(Itemset{is.item});
  }
  return GenerateCandidates(frequent, nullptr);
}

void BM_EvaluateCandidatesThreads(benchmark::State& state) {
  const UncertainDatabase db = QuestDb(static_cast<std::size_t>(state.range(0)));
  const FlatView view(db);
  const std::vector<Itemset> candidates = Level2Candidates(view);
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    auto stats = EvaluateCandidates(view, candidates, /*collect_probs=*/false,
                                    /*decremental_threshold=*/-1.0, threads);
    benchmark::DoNotOptimize(stats);
  }
  state.counters["candidates"] = static_cast<double>(candidates.size());
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_EvaluateCandidatesThreads)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{5000, 10000}, {1, 2, 4, 8}});

void BM_UAprioriThreads(benchmark::State& state) {
  const UncertainDatabase db = QuestDb(static_cast<std::size_t>(state.range(0)));
  const FlatView view(db);
  const std::size_t threads = static_cast<std::size_t>(state.range(1));
  MinerOptions options;
  options.num_threads = threads;
  ExpectedSupportParams params;
  params.min_esup = kMinEsupRatio;
  auto miner = MinerRegistry::Global().Create("UApriori", options);
  for (auto _ : state) {
    auto result = miner->Mine(view, MiningTask(params));
    benchmark::DoNotOptimize(result);
  }
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_UAprioriThreads)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{10000}, {1, 2, 4, 8}});

void BM_ShardedUApriori(benchmark::State& state) {
  const UncertainDatabase db = QuestDb(static_cast<std::size_t>(state.range(0)));
  const FlatView view(db);
  const std::size_t shards = static_cast<std::size_t>(state.range(1));
  const std::size_t threads = shards;  // one worker per shard
  MinerOptions options;
  options.num_threads = threads;
  ExpectedSupportParams params;
  params.min_esup = kMinEsupRatio;
  for (auto _ : state) {
    if (shards <= 1) {
      auto miner = MinerRegistry::Global().Create("UApriori");
      auto result = miner->Mine(view, MiningTask(params));
      benchmark::DoNotOptimize(result);
    } else {
      ShardedMiner miner(MinerRegistry::Global().Create("UApriori", options),
                         shards);
      auto result = miner.Mine(view, MiningTask(params));
      benchmark::DoNotOptimize(result);
    }
  }
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ShardedUApriori)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{10000}, {1, 2, 4, 8}});

}  // namespace
}  // namespace ufim::bench

BENCHMARK_MAIN();
