// Streaming ingestion vs full rebuild: the cost of absorbing a batch of
// appended transactions and re-answering the mining question.
//
// Two layers are measured over the same Kosarak-like stream (2000-txn
// base + 1024 appended transactions, long-tail item skew):
//
//  * storage only — StreamingFlatView::Append (the batch built as its
//    own FlatView and merged with the old delta into a fresh one, plus
//    whatever compactions the policy triggers) against building a fresh
//    FlatView over the accumulated database per batch. This isolates the
//    O(delta + batch units) vs O(total units) claim.
//  * append + mine — DeltaMiner::MineNext (batch-shard mine + exact
//    pool recount over the streaming layout) against the rebuild
//    pipeline every batch: FlatView(db) from scratch + a full UApriori
//    run. This is the end-to-end amortized cost per appended
//    transaction that a serving system pays.
//
// A final sweep prices StreamingFlatView::Snapshot() — the read handle
// concurrent miners hold — at growing delta sizes: published storage is
// immutable and shared by pointer, so taking one is O(1) at any delta
// size.
//
// Batch sizes sweep 1x/8x/64x (16, 128, 1024 transactions — i.e. 64,
// 8, 1 MineNext calls for the same 1024-txn stream), and a separate
// sweep varies the compaction ratio at a fixed batch size. min_esup is
// chosen so min_esup * batch stays above one expected occurrence even
// for the smallest batch (see the DeltaMiner batch-sizing note).
// Results are recorded in BENCH_streaming.json; on a 1-CPU container
// the comparison is still meaningful (both sides are single-threaded
// CPU work), unlike the thread-scaling benches.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "bench_datasets.h"
#include "core/delta_miner.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "core/streaming_flat_view.h"
#include "testing/random_db.h"

namespace ufim::bench {
namespace {

constexpr std::size_t kBaseTxns = 2000;
constexpr std::size_t kStreamTxns = 1024;
constexpr double kMinEsup = 0.1;

/// The shared stream: base database + appended tail, drawn once from
/// the same long-tail generator the differential harness uses.
struct StreamData {
  UncertainDatabase base;
  std::vector<Transaction> tail;
};

const StreamData& Stream() {
  static const StreamData* data = [] {
    auto* d = new StreamData();
    Rng rng(20260729);
    testing_util::StreamBatchSpec spec;
    spec.num_items = 64;
    spec.item_skew = 1.2;
    spec.avg_length = 6.0;
    d->base = UncertainDatabase(
        testing_util::MakeStreamBatch(rng, spec, kBaseTxns));
    d->tail = testing_util::MakeStreamBatch(rng, spec, kStreamTxns);
    return d;
  }();
  return *data;
}

std::span<const Transaction> Batch(std::size_t lo, std::size_t batch) {
  const std::vector<Transaction>& tail = Stream().tail;
  const std::size_t hi = std::min(lo + batch, tail.size());
  return {tail.data() + lo, hi - lo};
}

/// Storage only: absorb the stream through StreamingFlatView::Append, one
/// batch view at a time (the path DeltaMiner::MineNext takes).
void BM_AppendStorage(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    StreamingFlatView sv(Stream().base);
    sv.AssertSoleWriter();  // single-threaded bench: sole writer by construction
    for (std::size_t lo = 0; lo < kStreamTxns; lo += batch) {
      sv.Append(FlatView(Batch(lo, batch)));
    }
    benchmark::DoNotOptimize(sv.num_units());
    state.counters["compactions"] = static_cast<double>(sv.compactions());
  }
  state.counters["batch"] = static_cast<double>(batch);
  state.counters["us_per_txn"] = benchmark::Counter(
      static_cast<double>(kStreamTxns) * 1e-6, benchmark::Counter::kIsIterationInvariantRate |
                                                   benchmark::Counter::kInvert);
}

/// Storage only, rebuild baseline: a fresh FlatView per batch.
void BM_RebuildStorage(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    UncertainDatabase db = Stream().base;
    std::size_t units = 0;
    for (std::size_t lo = 0; lo < kStreamTxns; lo += batch) {
      db.Append(Batch(lo, batch));
      const FlatView view(db);
      units = view.num_units();
      benchmark::DoNotOptimize(units);
    }
  }
  state.counters["batch"] = static_cast<double>(batch);
  state.counters["us_per_txn"] = benchmark::Counter(
      static_cast<double>(kStreamTxns) * 1e-6, benchmark::Counter::kIsIterationInvariantRate |
                                                   benchmark::Counter::kInvert);
}

/// End to end: DeltaMiner::MineNext per batch over the streaming layout.
/// `state.range(1)` selects the compaction ratio in percent (so the
/// policy sweep reuses this body); negative means "never compact".
void BM_StreamingMineNext(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  const double ratio = state.range(1) < 0
                           ? 1e18
                           : static_cast<double>(state.range(1)) / 100.0;
  ExpectedSupportParams params;
  params.min_esup = kMinEsup;
  CompactionPolicy policy;
  policy.max_delta_ratio = ratio;
  std::size_t frequent = 0;
  for (auto _ : state) {
    auto miner = MakeDeltaMiner("UApriori", params, MinerOptions{}, policy);
    if (!miner.ok()) {
      state.SkipWithError(miner.status().ToString().c_str());
      break;
    }
    auto seeded = miner.value()->MineNext(Stream().base.transactions());
    if (!seeded.ok()) {
      state.SkipWithError(seeded.status().ToString().c_str());
      break;
    }
    for (std::size_t lo = 0; lo < kStreamTxns; lo += batch) {
      auto result = miner.value()->MineNext(Batch(lo, batch));
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      frequent = result.value().size();
    }
    state.counters["compactions"] =
        static_cast<double>(miner.value()->view().compactions());
    state.counters["pool"] =
        static_cast<double>(miner.value()->candidate_pool_size());
  }
  state.counters["batch"] = static_cast<double>(batch);
  state.counters["itemsets"] = static_cast<double>(frequent);
}

/// Snapshot cost: take a handle (StreamingFlatView::Snapshot — a
/// pointer copy of the published storage) at a controlled delta size.
/// `state.range(0)` is the number of appended transactions left
/// unfolded in the delta; the never-compact policy pins the delta at
/// exactly that size so the O(1) claim is visible across the sweep.
void BM_Snapshot(benchmark::State& state) {
  const std::size_t delta_txns = static_cast<std::size_t>(state.range(0));
  CompactionPolicy never;
  never.max_delta_ratio = 1e18;
  StreamingFlatView sv(Stream().base, never);
  sv.AssertSoleWriter();  // single-threaded bench: sole writer by construction
  sv.Append(FlatView(Batch(0, delta_txns)));
  std::size_t delta_units = sv.num_units();
  for (auto _ : state) {
    const StreamingSnapshot snap = sv.Snapshot();
    benchmark::DoNotOptimize(snap.view().num_units());
    delta_units = snap.view().num_units();
  }
  state.counters["delta_txns"] = static_cast<double>(delta_txns);
  benchmark::DoNotOptimize(delta_units);
}

/// End to end, rebuild baseline: accumulate, rebuild the columnar view,
/// full mine — once per batch.
void BM_RebuildMine(benchmark::State& state) {
  const std::size_t batch = static_cast<std::size_t>(state.range(0));
  ExpectedSupportParams params;
  params.min_esup = kMinEsup;
  std::unique_ptr<Miner> miner = MinerRegistry::Global().Create("UApriori");
  std::size_t frequent = 0;
  for (auto _ : state) {
    UncertainDatabase db = Stream().base;
    for (std::size_t lo = 0; lo < kStreamTxns; lo += batch) {
      db.Append(Batch(lo, batch));
      auto result = miner->Mine(FlatView(db), MiningTask(params));
      if (!result.ok()) {
        state.SkipWithError(result.status().ToString().c_str());
        return;
      }
      frequent = result.value().size();
    }
  }
  state.counters["batch"] = static_cast<double>(batch);
  state.counters["itemsets"] = static_cast<double>(frequent);
}

// Batch-size sweep: 1x / 8x / 64x at the default compaction ratio.
BENCHMARK(BM_AppendStorage)->Arg(16)->Arg(128)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RebuildStorage)->Arg(16)->Arg(128)->Arg(1024)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StreamingMineNext)
    ->Args({16, 25})->Args({128, 25})->Args({1024, 25})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RebuildMine)->Arg(16)->Arg(128)->Arg(1024)
    ->Unit(benchmark::kMillisecond);

// Compaction-policy sweep at a fixed 128-txn batch: always (0), the
// default (25%), lazy (100%), never (<0 sentinel).
BENCHMARK(BM_StreamingMineNext)
    ->Args({128, 0})->Args({128, 100})->Args({128, -1})
    ->Unit(benchmark::kMillisecond);

// Snapshot-handle cost at growing delta sizes (storage is shared by
// pointer, so this stays flat as the unfolded delta grows).
BENCHMARK(BM_Snapshot)->Arg(0)->Arg(16)->Arg(128)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace ufim::bench

BENCHMARK_MAIN();
