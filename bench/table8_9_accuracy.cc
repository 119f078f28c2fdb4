// Tables 8 and 9: precision and recall of the approximate probabilistic
// miners (PDUApriori, NDUApriori, NDUH-Mine) against the exact result
// (DCB), sweeping min_sup on Accident-like (Table 8) and Kosarak-like
// (Table 9) at pft = 0.9. Expected shape: precision and recall ~1
// throughout, with a few false positives at the lowest thresholds and
// the Normal-based miners at least as accurate as the Poisson-based one.
//
// Each benchmark row reports precision/recall as counters and, after all
// rows ran, main() prints the two tables in the paper's layout.
#include <cstdio>
#include <iterator>
#include <map>

#include <benchmark/benchmark.h>

#include "bench_datasets.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "eval/metrics.h"

namespace ufim::bench {
namespace {

constexpr double kPft = 0.9;

struct Row {
  double precision[3];
  double recall[3];
};
// (dataset, min_sup) -> accuracy of the three approximate miners.
std::map<std::pair<std::string, double>, Row>& Results() {
  static auto* r = new std::map<std::pair<std::string, double>, Row>();
  return *r;
}

constexpr const char* kApproximate[] = {"PDUApriori", "NDUApriori",
                                        "NDUH-Mine"};

void AccuracyCase(benchmark::State& state, const FlatView& view,
                  const char* dataset, double min_sup) {
  ProbabilisticParams params;
  params.min_sup = min_sup;
  params.pft = kPft;
  const MinerRegistry& registry = MinerRegistry::Global();
  for (auto _ : state) {
    auto exact = registry.Create("DCB")->Mine(view, params);
    if (!exact.ok()) {
      state.SkipWithError(exact.status().ToString().c_str());
      return;
    }
    Row row{};
    for (std::size_t i = 0; i < std::size(kApproximate); ++i) {
      auto approx = registry.Create(kApproximate[i])->Mine(view, params);
      if (!approx.ok()) {
        state.SkipWithError(approx.status().ToString().c_str());
        return;
      }
      PrecisionRecall pr = ComputePrecisionRecall(*approx, *exact);
      row.precision[i] = pr.precision;
      row.recall[i] = pr.recall;
      state.counters[std::string(kApproximate[i]) + "_P"] = pr.precision;
      state.counters[std::string(kApproximate[i]) + "_R"] = pr.recall;
    }
    state.counters["exact_frequent"] = static_cast<double>(exact->size());
    Results()[{dataset, min_sup}] = row;
  }
}

void RegisterAll() {
  struct Sweep {
    const char* dataset;
    const UncertainDatabase& (*db)(std::size_t);
    std::size_t n;
    std::vector<double> thresholds;
  };
  static const Sweep kSweeps[] = {
      {"Accident", &AccidentDb, 1500, {0.2, 0.3, 0.4, 0.5, 0.6}},
      {"Kosarak", &KosarakDb, 5000, {0.0025, 0.005, 0.01, 0.05, 0.1}},
  };
  for (const Sweep& sweep : kSweeps) {
    const FlatView* view = new FlatView(sweep.db(sweep.n));
    for (double min_sup : sweep.thresholds) {
      std::string name = std::string("table8_9/") + sweep.dataset +
                         "/min_sup=" + std::to_string(min_sup);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [view, dataset = sweep.dataset, min_sup](benchmark::State& state) {
            AccuracyCase(state, *view, dataset, min_sup);
          })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

void PrintTables() {
  for (const char* dataset : {"Accident", "Kosarak"}) {
    std::printf("\n%s (Table %s layout): min_sup | PDUApriori P R | "
                "NDUApriori P R | NDUH-Mine P R\n",
                dataset, std::string(dataset) == "Accident" ? "8" : "9");
    for (const auto& [key, row] : Results()) {
      if (key.first != dataset) continue;
      std::printf("  %-8.4g |", key.second);
      for (int i = 0; i < 3; ++i) {
        std::printf("  %.2f %.2f |", row.precision[i], row.recall[i]);
      }
      std::printf("\n");
    }
  }
}

}  // namespace
}  // namespace ufim::bench

int main(int argc, char** argv) {
  ufim::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ufim::bench::PrintTables();
  benchmark::Shutdown();
  return 0;
}
