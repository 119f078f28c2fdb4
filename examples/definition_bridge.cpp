// The paper's central insight, demonstrated end to end: the two
// definitions of "frequent itemset" over uncertain data are bridged by
// the first two moments of the support distribution. We mine a large
// database three ways —
//   1. exact probabilistic (DCB),
//   2. Normal approximation (NDUH-Mine),
//   3. expected-support mining + a post-hoc Normal filter (the "reuse
//      existing solutions" recipe of §1),
// and show that all three agree while costing very different amounts.
//
//   $ ./definition_bridge
#include <cstdio>

#include "core/flat_view.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "gen/benchmark_datasets.h"
#include "gen/probability.h"
#include "prob/normal.h"

int main() {
  using namespace ufim;

  UncertainDatabase db = AssignGaussianProbabilities(
      MakeKosarakLike(20000, 11), 0.5, 0.5, 12);
  std::printf("Sparse uncertain database: %zu transactions\n", db.size());

  ProbabilisticParams pparams;
  pparams.min_sup = 0.01;
  pparams.pft = 0.9;
  const std::size_t msc = pparams.MinSupportCount(db.size());

  const FlatView view(db);

  // 1. Exact.
  auto exact = RunRegisteredExperiment("DCB", view, pparams);
  if (!exact.ok()) return 1;
  std::printf("\n1. exact DCB:            %8.1f ms, %4zu itemsets\n",
              exact->millis, exact->num_frequent);

  // 2. Normal approximation inside the miner.
  auto approx = RunRegisteredExperiment("NDUH-Mine", view, pparams);
  if (!approx.ok()) return 1;
  std::printf("2. NDUH-Mine:            %8.1f ms, %4zu itemsets\n",
              approx->millis, approx->num_frequent);

  // 3. The bridge recipe: any expected-support miner + variance + Φ.
  ExpectedSupportParams eparams;
  eparams.min_esup = 0.5 * static_cast<double>(msc) / db.size();
  auto es = RunRegisteredExperiment("UH-Mine", view, eparams);
  if (!es.ok()) return 1;
  MiningResult bridged;
  for (const FrequentItemset& fi : es->result.itemsets()) {
    const double p =
        NormalApproxFrequentProbability(fi.expected_support, fi.variance, msc);
    if (p > pparams.pft) {
      FrequentItemset out = fi;
      out.frequent_probability = p;
      bridged.Add(std::move(out));
    }
  }
  std::printf("3. UH-Mine + Φ filter:   %8.1f ms, %4zu itemsets\n", es->millis,
              bridged.size());

  PrecisionRecall pr2 = ComputePrecisionRecall(approx->result, exact->result);
  PrecisionRecall pr3 = ComputePrecisionRecall(bridged, exact->result);
  std::printf("\nagreement with exact:  NDUH-Mine P=%.3f R=%.3f |"
              "  bridge P=%.3f R=%.3f\n",
              pr2.precision, pr2.recall, pr3.precision, pr3.recall);
  std::printf("\nTakeaway (paper §1/§4.5): with N = %zu the cheap moment-based"
              "\nmethods replicate the exact probabilistic result at a fraction"
              "\nof the cost — the two definitions can be unified.\n",
              db.size());
  return 0;
}
