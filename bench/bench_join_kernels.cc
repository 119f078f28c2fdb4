// Posting-intersection kernel sweep: scalar vs galloping vs SIMD on
// synthetic sorted tid lists across length skew and match density, plus
// the end-to-end batch join (EvaluateCandidates posting path) on QUEST
// under each forced kernel.
//
//   BM_Intersect/<skew>/<density%>/<kernel> — intersect a 4096-element
//     list against one skew× longer; density% of the short list matches.
//   BM_JoinCandidatesKernel/<n>/<kernel> — level-2 candidate counting.
//
// Results are recorded in BENCH_simd.json together with the host CPU
// features (the dispatcher's auto pick depends on them).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "algo/apriori_framework.h"
#include "bench_datasets.h"
#include "core/flat_view.h"
#include "core/simd_intersect.h"

namespace ufim::bench {
namespace {

constexpr IntersectKernel kKernelOf[] = {
    IntersectKernel::kScalar, IntersectKernel::kGallop, IntersectKernel::kSimd};

/// Strictly ascending lists: `b` has skew × kShortLen elements; a
/// `density`-fraction of `a`'s elements are drawn from `b`, the rest
/// fall in the gaps. Deterministic per (skew, density).
constexpr std::size_t kShortLen = 4096;

struct IntersectInput {
  std::vector<std::uint32_t> a;
  std::vector<std::uint32_t> b;
};

IntersectInput MakeInput(std::size_t skew, unsigned density_pct) {
  IntersectInput in;
  const std::size_t nb = kShortLen * skew;
  std::mt19937 rng(977u * static_cast<unsigned>(skew) + density_pct);
  in.b.reserve(nb);
  // b = even values with random stride, so odd values are guaranteed
  // non-members for the miss part of a.
  std::uint32_t cur = 2;
  for (std::size_t i = 0; i < nb; ++i) {
    in.b.push_back(cur);
    cur += 2 + 2 * (rng() % 4);
  }
  in.a.reserve(kShortLen);
  const std::size_t stride = nb / kShortLen;
  for (std::size_t i = 0; i < kShortLen; ++i) {
    const std::uint32_t member = in.b[i * stride + rng() % stride];
    if (rng() % 100 < density_pct) {
      in.a.push_back(member);
    } else {
      in.a.push_back(member + 1);  // odd → never in b
    }
  }
  std::sort(in.a.begin(), in.a.end());
  in.a.erase(std::unique(in.a.begin(), in.a.end()), in.a.end());
  return in;
}

void BM_Intersect(benchmark::State& state) {
  const std::size_t skew = static_cast<std::size_t>(state.range(0));
  const unsigned density = static_cast<unsigned>(state.range(1));
  const IntersectKernel kernel = kKernelOf[state.range(2)];
  const IntersectInput in = MakeInput(skew, density);
  std::vector<std::uint32_t> out_a(in.a.size());
  std::vector<std::uint32_t> out_b(in.a.size());

  SetIntersectKernel(kernel);
  std::size_t matches = 0;
  for (auto _ : state) {
    matches = IntersectIndices(in.a.data(), in.a.size(), in.b.data(),
                               in.b.size(), out_a.data(), out_b.data());
    benchmark::DoNotOptimize(out_a.data());
    benchmark::DoNotOptimize(out_b.data());
  }
  SetIntersectKernel(IntersectKernel::kAuto);
  state.counters["short_len"] = static_cast<double>(in.a.size());
  state.counters["long_len"] = static_cast<double>(in.b.size());
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel(IntersectKernelName(kernel));
}
BENCHMARK(BM_Intersect)
    ->ArgsProduct({{1, 16, 256, 2048}, {10, 90}, {0, 1, 2}});

/// End-to-end: the batch posting-join path of EvaluateCandidates on the
/// QUEST level-2 candidates, forced onto each kernel (single thread, so
/// the delta is pure kernel).
void RunJoinCandidates(benchmark::State& state, const UncertainDatabase& db,
                       double min_esup_ratio, IntersectKernel kernel) {
  const FlatView view(db);
  const double threshold =
      min_esup_ratio * static_cast<double>(view.num_transactions());
  std::vector<ItemStats> stats = CollectItemStats(view);
  std::vector<Itemset> frequent;
  for (const ItemStats& is : stats) {
    if (is.esup >= threshold) frequent.push_back(Itemset{is.item});
  }
  std::vector<Itemset> candidates = GenerateCandidates(frequent, nullptr);
  // Cap the candidate set so one iteration stays short; the per-candidate
  // join cost, not the candidate count, is what the kernels change.
  if (candidates.size() > 2000) candidates.resize(2000);

  SetIntersectKernel(kernel);
  for (auto _ : state) {
    auto out = EvaluateCandidates(view, candidates, /*collect_probs=*/false,
                                  /*decremental_threshold=*/-1.0,
                                  /*num_threads=*/1);
    benchmark::DoNotOptimize(out);
  }
  SetIntersectKernel(IntersectKernel::kAuto);
  state.counters["candidates"] = static_cast<double>(candidates.size());
  state.SetLabel(IntersectKernelName(kernel));
}

/// Sparse workload: QUEST pair candidates — short, similar-length
/// postings, so the join is gather-bound and kernels should tie.
void BM_JoinCandidatesKernel(benchmark::State& state) {
  RunJoinCandidates(state, QuestDb(static_cast<std::size_t>(state.range(0))),
                    0.005, kKernelOf[state.range(1)]);
}
BENCHMARK(BM_JoinCandidatesKernel)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{5000}, {0, 1, 2}});

/// Dense workload: Connect-like pair candidates — long posting lists,
/// where the intersection kernel is the bottleneck.
void BM_JoinCandidatesDense(benchmark::State& state) {
  RunJoinCandidates(state, ConnectDb(static_cast<std::size_t>(state.range(0))),
                    0.25, kKernelOf[state.range(1)]);
}
BENCHMARK(BM_JoinCandidatesDense)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{2000}, {0, 1, 2}});

/// Skewed workload: Kosarak-like pair candidates — power-law item
/// popularity makes the driver/member length ratio the adversarial case
/// the galloping + blocked kernels exist for.
void BM_JoinCandidatesSkewed(benchmark::State& state) {
  RunJoinCandidates(state, KosarakDb(static_cast<std::size_t>(state.range(0))),
                    0.002, kKernelOf[state.range(1)]);
}
BENCHMARK(BM_JoinCandidatesSkewed)
    ->Unit(benchmark::kMillisecond)
    ->ArgsProduct({{10000}, {0, 1, 2}});

}  // namespace
}  // namespace ufim::bench

BENCHMARK_MAIN();
