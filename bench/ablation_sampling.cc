// Ablation: the sampling-based approximation (paper reference [11])
// against the moment-based ones — time vs accuracy as the per-candidate
// sample budget grows. Shows why the paper's study focuses on the
// moment methods: sampling needs thousands of worlds per candidate to
// match the accuracy the closed-form approximations get for one scan.
#include <benchmark/benchmark.h>

#include "bench_datasets.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "eval/experiment.h"
#include "eval/metrics.h"

namespace ufim::bench {
namespace {

constexpr double kMinSup = 0.2;
constexpr double kPft = 0.9;

const FlatView& View() {
  static const FlatView& view = *new FlatView(AccidentDb(2000));
  return view;
}

void SamplingCase(benchmark::State& state, std::size_t samples) {
  ProbabilisticParams params;
  params.min_sup = kMinSup;
  params.pft = kPft;
  // Exact reference for the accuracy counters (computed outside timing).
  static const MiningResult& exact = [] {
    ProbabilisticParams p;
    p.min_sup = kMinSup;
    p.pft = kPft;
    auto r = MinerRegistry::Global().Create("DCB")->Mine(View(), p);
    return *new MiningResult(std::move(r).value());
  }();

  MinerOptions options;
  options.mc_samples = samples;
  for (auto _ : state) {
    auto m = RunRegisteredExperiment("MCSampling", View(), params, options);
    if (!m.ok()) {
      state.SkipWithError(m.status().ToString().c_str());
      return;
    }
    PrecisionRecall pr = ComputePrecisionRecall(m->result, exact);
    state.counters["precision"] = pr.precision;
    state.counters["recall"] = pr.recall;
    state.counters["frequent"] = static_cast<double>(m->num_frequent);
  }
}

void MomentBaselineCase(benchmark::State& state, const char* algo) {
  ProbabilisticParams params;
  params.min_sup = kMinSup;
  params.pft = kPft;
  for (auto _ : state) {
    auto m = RunRegisteredExperiment(algo, View(), params);
    if (!m.ok()) {
      state.SkipWithError(m.status().ToString().c_str());
      return;
    }
    state.counters["frequent"] = static_cast<double>(m->num_frequent);
  }
}

void RegisterAll() {
  for (std::size_t samples : {64u, 256u, 1024u, 4096u, 16384u}) {
    std::string name =
        "ablation_sampling/MCSampling/samples=" + std::to_string(samples);
    benchmark::RegisterBenchmark(name.c_str(),
                                 [samples](benchmark::State& state) {
                                   SamplingCase(state, samples);
                                 })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
  for (const char* algo : {"NDUApriori", "PDUApriori"}) {
    std::string name = std::string("ablation_sampling/baseline/") + algo;
    benchmark::RegisterBenchmark(name.c_str(),
                                 [algo](benchmark::State& state) {
                                   MomentBaselineCase(state, algo);
                                 })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }
}

}  // namespace
}  // namespace ufim::bench

int main(int argc, char** argv) {
  ufim::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
