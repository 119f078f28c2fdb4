// Ablation: the pruning techniques the paper's implementations use, run
// through the modern FlatView + MinerRegistry harness (the same
// RunRegisteredExperiment path the CLI takes, so every knob here is a
// production configuration):
//  (1) UApriori's decremental pruning [17, 18] on/off across densities
//      (it acts on the candidate joins of levels k >= 3; level 2 is one
//      triangular pass that counts every pair whole either way);
//  (2) DC's FFT threshold — where does switching the conquer step from
//      schoolbook to FFT convolution pay off at mining granularity?
//  (3) the bound-cascade prefilter (--prefilter off/bounds) across
//      pft/minsup for the exact DP/DC miners and MCSampling — this sweep
//      is what BENCH_prefilter.json records (exact-tail-evals avoided
//      plus end-to-end speedup; results are identical by contract).
// DESIGN.md lists (1) and (2) as explicit design choices.
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_datasets.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "eval/experiment.h"

namespace ufim::bench {
namespace {

const FlatView& AccidentView() {
  static const FlatView view(AccidentDb(3000));
  return view;
}

void RegisteredCase(benchmark::State& state, const FlatView& view,
                    const std::string& algorithm, const MiningTask& task,
                    const MinerOptions& options) {
  for (auto _ : state) {
    auto m = RunRegisteredExperiment(algorithm, view, task, options);
    if (!m.ok()) {
      state.SkipWithError(m.status().ToString().c_str());
      return;
    }
    state.counters["frequent"] = static_cast<double>(m->num_frequent);
    state.counters["rejected_bound"] =
        static_cast<double>(m->counters.candidates_rejected_bound);
    state.counters["accepted_bound"] =
        static_cast<double>(m->counters.candidates_accepted_bound);
    state.counters["exact_tail_evals"] =
        static_cast<double>(m->counters.exact_tail_evals);
  }
}

void RegisterAll() {
  struct DecrementalSweep {
    const char* dataset;
    const UncertainDatabase& (*db)(std::size_t);
    std::size_t n;
    double min_esup;
  };
  static const DecrementalSweep kDecremental[] = {
      {"Connect", &ConnectDb, 2000, 0.5},
      {"Accident", &AccidentDb, 3000, 0.2},
      {"Kosarak", &KosarakDb, 10000, 0.0025},
  };
  for (const DecrementalSweep& sweep : kDecremental) {
    // Build each view once, outside the timed region (the harness's
    // standing rule: sweeps share one view per dataset).
    static std::vector<std::unique_ptr<FlatView>> views;
    views.push_back(std::make_unique<FlatView>(sweep.db(sweep.n)));
    const FlatView* view = views.back().get();
    for (bool on : {false, true}) {
      std::string name = std::string("ablation_decremental/") + sweep.dataset +
                         (on ? "/on" : "/off");
      ExpectedSupportParams params;
      params.min_esup = sweep.min_esup;
      MinerOptions options;
      options.decremental_pruning = on;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [view, params, options](benchmark::State& state) {
            RegisteredCase(state, *view, "UApriori", params, options);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }

  for (std::size_t threshold : {16u, 64u, 256u, 1024u, 1u << 30}) {
    std::string name = "ablation_fft_threshold/Accident/threshold=" +
                       (threshold == (1u << 30) ? std::string("never")
                                                : std::to_string(threshold));
    ProbabilisticParams params;
    params.min_sup = 0.25;
    params.pft = 0.9;
    MinerOptions options;
    options.dc_fft_threshold = threshold;
    benchmark::RegisterBenchmark(
        name.c_str(),
        [params, options](benchmark::State& state) {
          RegisteredCase(state, AccidentView(), "DCNB", params, options);
        })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(1);
  }

  // The prefilter sweep: each (algorithm, min_sup, pft) cell runs with
  // the cascade off and on; the off/on pair shares every other knob, so
  // the wall-time ratio is the end-to-end speedup and the
  // exact_tail_evals ratio the work eliminated.
  static const char* kPrefilterAlgos[] = {"DPNB", "DCNB", "MCSampling"};
  for (const char* algo : kPrefilterAlgos) {
    for (double min_sup : {0.2, 0.3}) {
      for (double pft : {0.5, 0.9}) {
        for (PrefilterMode mode :
             {PrefilterMode::kOff, PrefilterMode::kBounds}) {
          std::string name = std::string("ablation_prefilter/Accident/") +
                             algo + "/min_sup=" + std::to_string(min_sup) +
                             "/pft=" + std::to_string(pft) + "/" +
                             std::string(PrefilterModeName(mode));
          ProbabilisticParams params;
          params.min_sup = min_sup;
          params.pft = pft;
          MinerOptions options;
          options.prefilter = mode;
          benchmark::RegisterBenchmark(
              name.c_str(),
              [algo, params, options](benchmark::State& state) {
                RegisteredCase(state, AccidentView(), algo, params, options);
              })
              ->Unit(benchmark::kMillisecond)
              ->Iterations(1);
        }
      }
    }
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
