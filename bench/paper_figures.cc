// Figures 4-6 of the paper: running time and memory of every algorithm
// family against each swept parameter. One table row per figure sweep;
// each registered benchmark is one point of the paper's curves. Time is
// the bench metric, peak_MB the memory series, and the deterministic
// counters (frequent, candidates, rejected_bound, accepted_bound,
// exact_tail_evals) pin what each point computed.
//
// Every dataset's FlatView is built once, before the first timed point
// that uses it, so time and peak_MB cover mining only, as in the paper.
//
// Run a subset with --benchmark_filter, e.g. `paper_figures
// --benchmark_filter=^fig5/` or `--benchmark_filter=_zipf/`.
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_datasets.h"
#include "core/flat_view.h"
#include "core/miner_registry.h"
#include "eval/experiment.h"

namespace ufim::bench {
namespace {

/// The swept parameter of one figure.
enum class Axis { kMinEsup, kMinSup, kPft, kSize, kSkew };

std::string_view AxisName(Axis axis) {
  switch (axis) {
    case Axis::kMinEsup:
      return "min_esup";
    case Axis::kMinSup:
      return "min_sup";
    case Axis::kPft:
      return "pft";
    case Axis::kSize:
      return "n";
    case Axis::kSkew:
      return "skew";
  }
  return "?";
}

/// One figure sweep: algorithms x values over one dataset family.
struct Sweep {
  const char* prefix;   ///< benchmark-name prefix
  const char* dataset;  ///< Connect, Accident, Kosarak, Gazelle, Quest, Zipf
  std::size_t n;        ///< transactions (the swept value on Axis::kSize)
  Axis axis;
  std::vector<double> values;
  double min_support;  ///< min_esup or min_sup where the axis is not it
  double pft;          ///< probabilistic algorithms, where the axis is not it
  std::vector<const char*> algorithms;
};

const std::vector<const char*> kExpected = {"UApriori", "UFP-growth",
                                           "UH-Mine"};
const std::vector<const char*> kExact = {"DPNB", "DPB", "DCNB", "DCB"};
const std::vector<const char*> kApproximate = {"PDUApriori", "NDUApriori",
                                              "NDUH-Mine"};
const std::vector<const char*> kApproximateAndDCB = {
    "DCB", "PDUApriori", "NDUApriori", "NDUH-Mine"};

// Expected shapes (paper §4.2-4.4):
// - fig4: the paper has UApriori fastest on dense data at high
//   min_esup, UH-Mine on sparse data and low thresholds, and UFP-growth
//   slowest and hungriest. Here UFP-growth is the hungriest on every
//   row that finds an itemset but the two lowest Gazelle thresholds
//   (UApriori there). With its flat node store it is the slowest only
//   on the Quest scalability rows from n=8000 up and, level with
//   UH-Mine, on dense Connect below min_esup 0.8. On Accident,
//   Kosarak, Gazelle and Zipf UH-Mine is slower, and UApriori at the
//   lowest Kosarak and Gazelle thresholds.
// - fig5: DCB fastest, DPNB slowest, Chernoff-pruned variants beat their
//   twins, DP uses less memory than DC; pft barely matters. Thresholds
//   sit below the top items' expected supports, where exact tails
//   dominate.
// - fig6: the apriori-based approximations win on dense data, NDUH-Mine
//   on sparse data, DCB is slowest and hungriest; pft barely matters.
// - scalability: linear in n (Quest T25I15, the paper's 20k-320k cut
//   tenfold). Zipf: time and memory fall as the skew rises.
const Sweep kSweeps[] = {
    {"fig4/Connect", "Connect", 2000, Axis::kMinEsup,
     {0.9, 0.8, 0.7, 0.6, 0.5, 0.4}, 0, 0, kExpected},
    {"fig4/Accident", "Accident", 3000, Axis::kMinEsup,
     {0.5, 0.4, 0.3, 0.2, 0.1}, 0, 0, kExpected},
    {"fig4/Kosarak", "Kosarak", 10000, Axis::kMinEsup,
     {0.1, 0.05, 0.01, 0.005, 0.0025, 0.001}, 0, 0, kExpected},
    {"fig4/Gazelle", "Gazelle", 5000, Axis::kMinEsup,
     {0.1, 0.01, 0.001, 0.0005}, 0, 0, kExpected},
    {"fig4_scalability", "Quest", 0, Axis::kSize,
     {2000, 4000, 8000, 16000, 32000}, 0.02, 0, kExpected},
    {"fig4_zipf", "Zipf", 1500, Axis::kSkew, {0.8, 1.2, 1.6, 2.0}, 0.1, 0,
     kExpected},

    {"fig5/Accident", "Accident", 4000, Axis::kMinSup,
     {0.4, 0.35, 0.3, 0.25, 0.2, 0.15}, 0, 0.9, kExact},
    {"fig5/Kosarak", "Kosarak", 6000, Axis::kMinSup,
     {0.25, 0.2, 0.15, 0.1, 0.05, 0.02}, 0, 0.9, kExact},
    {"fig5_pft/Accident", "Accident", 4000, Axis::kPft,
     {0.1, 0.3, 0.5, 0.7, 0.9}, 0.25, 0, kExact},
    {"fig5_pft/Kosarak", "Kosarak", 6000, Axis::kPft,
     {0.1, 0.3, 0.5, 0.7, 0.9}, 0.1, 0, kExact},
    {"fig5_scalability", "Quest", 0, Axis::kSize, {500, 1000, 2000, 4000},
     0.02, 0.9, kExact},
    {"fig5_zipf", "Zipf", 800, Axis::kSkew, {0.8, 1.2, 1.6, 2.0}, 0.1, 0.9,
     kExact},

    {"fig6/Accident", "Accident", 1500, Axis::kMinSup,
     {0.5, 0.4, 0.3, 0.2, 0.1, 0.05}, 0, 0.9, kApproximateAndDCB},
    {"fig6/Kosarak", "Kosarak", 5000, Axis::kMinSup,
     {0.1, 0.05, 0.01, 0.005, 0.0025, 0.001}, 0, 0.9, kApproximateAndDCB},
    {"fig6_pft/Accident", "Accident", 1500, Axis::kPft,
     {0.1, 0.3, 0.5, 0.7, 0.9}, 0.2, 0, kApproximateAndDCB},
    {"fig6_pft/Kosarak", "Kosarak", 5000, Axis::kPft,
     {0.1, 0.3, 0.5, 0.7, 0.9}, 0.01, 0, kApproximateAndDCB},
    {"fig6_scalability", "Quest", 0, Axis::kSize,
     {2000, 4000, 8000, 16000, 32000}, 0.02, 0.9, kApproximate},
    {"fig6_zipf", "Zipf", 1500, Axis::kSkew, {0.8, 1.2, 1.6, 2.0}, 0.1, 0.9,
     kApproximate},
};

std::unique_ptr<FlatView> MakeView(std::string_view dataset, std::size_t n,
                                   double skew) {
  if (dataset == "Connect") return std::make_unique<FlatView>(ConnectDb(n));
  if (dataset == "Accident") return std::make_unique<FlatView>(AccidentDb(n));
  if (dataset == "Kosarak") return std::make_unique<FlatView>(KosarakDb(n));
  if (dataset == "Gazelle") return std::make_unique<FlatView>(GazelleDb(n));
  if (dataset == "Quest") return std::make_unique<FlatView>(QuestDb(n));
  return std::make_unique<FlatView>(ZipfDenseDb(skew, n));
}

/// The view of one dataset instance, built on first use and shared by
/// every point (across figures) that mines it.
const FlatView& CachedView(std::string_view dataset, std::size_t n,
                           double skew) {
  using Key = std::tuple<std::string, std::size_t, double>;
  static auto* cache = new std::map<Key, std::unique_ptr<FlatView>>();
  std::unique_ptr<FlatView>& view = (*cache)[{std::string(dataset), n, skew}];
  if (view == nullptr) view = MakeView(dataset, n, skew);
  return *view;
}

void RunPoint(benchmark::State& state, const Sweep& sweep,
              const char* algorithm, double value) {
  std::unique_ptr<Miner> miner = MinerRegistry::Global().Create(algorithm);
  if (miner == nullptr) {
    state.SkipWithError("algorithm is not registered");
    return;
  }
  const bool expected = miner->Supports(MiningTask(ExpectedSupportParams{}));
  const bool on_threshold =
      sweep.axis == Axis::kMinEsup || sweep.axis == Axis::kMinSup;
  const double min_support = on_threshold ? value : sweep.min_support;
  const double pft = sweep.axis == Axis::kPft ? value : sweep.pft;
  const MiningTask task =
      expected ? MiningTask(ExpectedSupportParams{min_support})
               : MiningTask(ProbabilisticParams{min_support, pft});
  const FlatView& view = CachedView(
      sweep.dataset,
      sweep.axis == Axis::kSize ? static_cast<std::size_t>(value) : sweep.n,
      sweep.axis == Axis::kSkew ? value : 0.0);

  for (auto _ : state) {
    auto m = RunExperiment(*miner, view, task);
    if (!m.ok()) {
      state.SkipWithError(m.status().ToString().c_str());
      return;
    }
    const MiningCounters& c = m->counters;
    state.counters["frequent"] = static_cast<double>(m->num_frequent);
    state.counters["peak_MB"] = static_cast<double>(m->peak_bytes) / 1e6;
    if (expected) {
      state.counters["candidates"] =
          static_cast<double>(c.candidates_generated);
    } else {
      state.counters["rejected_bound"] =
          static_cast<double>(c.candidates_rejected_bound);
      state.counters["accepted_bound"] =
          static_cast<double>(c.candidates_accepted_bound);
      state.counters["exact_tail_evals"] =
          static_cast<double>(c.exact_tail_evals);
    }
  }
}

void RegisterAll() {
  for (const Sweep& sweep : kSweeps) {
    for (const char* algorithm : sweep.algorithms) {
      for (double value : sweep.values) {
        const std::string label =
            sweep.axis == Axis::kSize
                ? std::to_string(static_cast<std::size_t>(value))
                : std::to_string(value);
        const std::string name = std::string(sweep.prefix) + "/" + algorithm +
                                 "/" + std::string(AxisName(sweep.axis)) +
                                 "=" + label;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [&sweep, algorithm, value](benchmark::State& state) {
              RunPoint(state, sweep, algorithm, value);
            })
            ->Unit(benchmark::kMillisecond)
            ->Iterations(1);
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
