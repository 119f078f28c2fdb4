// Table 4 ablation: per-itemset cost of determining the frequent
// probability — DP O(N·msc) in the paper, O(N·min(msc, N−msc+1)) on the
// live band; DC O(N log N); Chernoff O(1) given the mean (O(N) with the
// scan). Also micro-benchmarks the FFT-vs-naive conquer crossover that
// justifies ExactDC's fft_threshold default.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "prob/chernoff.h"
#include "prob/convolution.h"
#include "prob/fft.h"
#include "prob/normal.h"
#include "prob/poisson.h"
#include "prob/poisson_binomial.h"

namespace ufim {
namespace {

std::vector<double> RandomProbs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> probs(n);
  for (double& p : probs) p = rng.Uniform01();
  return probs;
}

void BM_TailDP(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t msc = n / 2;
  const auto probs = RandomProbs(n, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(PoissonBinomialTailDP(probs, msc));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TailDP)->RangeMultiplier(4)->Range(64, 16384)->Complexity();

// The tail DP the miners run: scratch overload, live band only. Arg 2 is
// the early-reject threshold in thousandths, -1 for none; at 900 the
// candidates whose tail is far below 0.9 stop early.
void BM_TailDPBand(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = static_cast<std::size_t>(state.range(1));
  const double threshold =
      state.range(2) < 0 ? -1.0 : static_cast<double>(state.range(2)) / 1000.0;
  const auto probs = RandomProbs(n, 42);
  DpScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PoissonBinomialTailDP(probs, k, threshold, scratch));
  }
}
BENCHMARK(BM_TailDPBand)
    ->ArgNames({"n", "k", "pft_permille"})
    ->ArgsProduct({{900, 1500, 3000}, {600, 750, 900}, {-1, 900}});

// The DC tail the miners run: scratch overload, one scratch per thread.
void BM_TailDC(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t msc = n / 2;
  const auto probs = RandomProbs(n, 42);
  DcScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PoissonBinomialTailDC(probs, msc, /*fft_threshold=*/64, scratch));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TailDC)->RangeMultiplier(4)->Range(64, 16384)->Complexity();
// The miners evaluate DC tails on every worker at once, so these rows
// time one tail per thread with 1 and 4 threads running.
BENCHMARK(BM_TailDC)->Arg(1024)->Arg(4096)->Threads(1)->Threads(4);

void BM_TailDCNoFft(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t msc = n / 2;
  const auto probs = RandomProbs(n, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        PoissonBinomialTailDC(probs, msc, /*fft_threshold=*/1u << 30));
  }
}
BENCHMARK(BM_TailDCNoFft)->RangeMultiplier(4)->Range(64, 4096);

void BM_ChernoffTest(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto probs = RandomProbs(n, 42);
  for (auto _ : state) {
    // O(N) scan for the mean + O(1) bound, the Table 4 cost model.
    SupportMoments m = ComputeSupportMoments(probs);
    benchmark::DoNotOptimize(ChernoffCertifiesInfrequent(m.mean, n / 2, 0.9));
  }
}
BENCHMARK(BM_ChernoffTest)->RangeMultiplier(4)->Range(64, 16384);

void BM_NormalApprox(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto probs = RandomProbs(n, 42);
  for (auto _ : state) {
    SupportMoments m = ComputeSupportMoments(probs);
    benchmark::DoNotOptimize(
        NormalApproxFrequentProbability(m.mean, m.variance, n / 2));
  }
}
BENCHMARK(BM_NormalApprox)->RangeMultiplier(4)->Range(64, 16384);

void BM_PoissonApprox(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto probs = RandomProbs(n, 42);
  for (auto _ : state) {
    SupportMoments m = ComputeSupportMoments(probs);
    benchmark::DoNotOptimize(PoissonTail(n / 2, m.mean));
  }
}
BENCHMARK(BM_PoissonApprox)->RangeMultiplier(4)->Range(64, 16384);

void BM_FftConvolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomProbs(n, 1);
  const auto b = RandomProbs(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FftConvolve(a, b));
  }
}
BENCHMARK(BM_FftConvolve)->RangeMultiplier(4)->Range(16, 4096);

void BM_NaiveConvolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto a = RandomProbs(n, 1);
  const auto b = RandomProbs(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveConvolve(a, b));
  }
}
BENCHMARK(BM_NaiveConvolve)->RangeMultiplier(4)->Range(16, 4096);

}  // namespace
}  // namespace ufim

BENCHMARK_MAIN();
