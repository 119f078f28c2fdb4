// Table 10: the winner-summary matrix. Runs every algorithm of each
// group on a representative dense configuration (Accident-like,
// min_sup/min_esup high) and a representative sparse configuration
// (Kosarak-like, low threshold), then prints which algorithm won on time
// and memory per (group, dataset) cell — the reproduction of the paper's
// check-mark table.
#include <cstdio>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_datasets.h"
#include "core/flat_view.h"
#include "eval/experiment.h"

namespace ufim::bench {
namespace {

struct Outcome {
  std::string algorithm;
  double millis = 0.0;
  double peak_mb = 0.0;
};

struct Cell {
  std::string group;
  std::string dataset;
  std::vector<Outcome> outcomes;
};

std::vector<Cell>& Cells() {
  static auto* cells = new std::vector<Cell>();
  return *cells;
}

const std::vector<const char*> kExpected = {"UApriori", "UFP-growth",
                                           "UH-Mine"};
const std::vector<const char*> kExact = {"DPNB", "DPB", "DCNB", "DCB"};
const std::vector<const char*> kApproximate = {"PDUApriori", "NDUApriori",
                                              "NDUH-Mine"};

void RunGroup(const char* group, const char* dataset, const FlatView& view,
              const std::vector<const char*>& algos, const MiningTask& task) {
  Cell cell{group, dataset, {}};
  for (const char* algo : algos) {
    auto m = RunRegisteredExperiment(algo, view, task);
    if (m.ok()) {
      cell.outcomes.push_back(Outcome{std::string(m->algorithm), m->millis,
                                      static_cast<double>(m->peak_bytes) / 1e6});
    }
  }
  Cells().push_back(std::move(cell));
}

void Table10(benchmark::State& state) {
  for (auto _ : state) {
    Cells().clear();
    // Dense cells use Connect-like (density 0.33, mean prob 0.95) with a
    // high threshold; sparse cells use Kosarak-like with a low one — the
    // two regimes Table 10 contrasts. The exact group keeps Accident-like
    // for its dense cell (exact mining on Connect-like at high density
    // explodes combinatorially, as the paper's 1-hour timeouts show).
    const FlatView dense(ConnectDb(2000));
    const FlatView dense_exact(AccidentDb(1500));
    const FlatView sparse(KosarakDb(10000));
    RunGroup("expected-support", "dense", dense, kExpected,
             ExpectedSupportParams{0.5});
    RunGroup("expected-support", "sparse", sparse, kExpected,
             ExpectedSupportParams{0.0005});
    RunGroup("exact-probabilistic", "dense", dense_exact, kExact,
             ProbabilisticParams{0.3, 0.9});
    RunGroup("exact-probabilistic", "sparse", sparse, kExact,
             ProbabilisticParams{0.05, 0.9});
    RunGroup("approx-probabilistic", "dense", dense, kApproximate,
             ProbabilisticParams{0.45, 0.9});
    RunGroup("approx-probabilistic", "sparse", sparse, kApproximate,
             ProbabilisticParams{0.0005, 0.9});
  }
}

void PrintSummary() {
  std::printf("\nTable 10 reproduction — winners per (group, dataset):\n");
  std::printf("%-22s %-8s %-14s %-14s\n", "group", "dataset", "time winner",
              "memory winner");
  for (const Cell& cell : Cells()) {
    if (cell.outcomes.empty()) continue;
    const Outcome* best_time = &cell.outcomes[0];
    const Outcome* best_mem = &cell.outcomes[0];
    for (const Outcome& o : cell.outcomes) {
      if (o.millis < best_time->millis) best_time = &o;
      if (o.peak_mb < best_mem->peak_mb) best_mem = &o;
    }
    std::printf("%-22s %-8s %-14s %-14s\n", cell.group.c_str(),
                cell.dataset.c_str(), best_time->algorithm.c_str(),
                best_mem->algorithm.c_str());
    for (const Outcome& o : cell.outcomes) {
      std::printf("    %-14s %10.1f ms %10.2f MB\n", o.algorithm.c_str(),
                  o.millis, o.peak_mb);
    }
  }
}

}  // namespace
}  // namespace ufim::bench

BENCHMARK(ufim::bench::Table10)->Unit(benchmark::kMillisecond)->Iterations(1);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  ufim::bench::PrintSummary();
  benchmark::Shutdown();
  return 0;
}
