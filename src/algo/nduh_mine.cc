// NDUH-Mine — the algorithm proposed by the paper itself (§3.3.3):
// UH-Mine's depth-first framework with the Normal-distribution
// approximation of the frequent probability. The UH-Struct already
// yields Σp per prefix; accumulating Σp² alongside is free, and the two
// moments feed the continuity-corrected Φ test. Designed to win on
// large sparse uncertain databases, where the Apriori-framework
// approximations (PDUApriori/NDUApriori) degrade.

#include "algo/uh_struct.h"
#include "core/miner_registry.h"
#include "prob/normal.h"

namespace ufim {

namespace {

Result<MiningResult> MineNDUHMine(const FlatView& view,
                                  const ProbabilisticParams& params,
                                  const MinerOptions& options) {
  const std::size_t msc = params.MinSupportCount(view.num_transactions());
  const double pft = params.pft;
  UHStructEngine::Hooks hooks;
  hooks.is_frequent = [msc, pft](double esup, double sq_sum) {
    return NormalApproxFrequentProbability(esup, esup - sq_sum, msc) > pft;
  };
  hooks.frequent_probability = [msc](double esup,
                                     double sq_sum) -> std::optional<double> {
    return NormalApproxFrequentProbability(esup, esup - sq_sum, msc);
  };
  UHStructEngine engine(view, std::move(hooks));
  MiningResult result;
  std::vector<FrequentItemset> found = engine.Mine(
      &result.counters(), options.num_threads, &options.run_context);
  for (FrequentItemset& fi : found) result.Add(std::move(fi));
  result.SortCanonical();
  return result;
}

}  // namespace

UFIM_REGISTER_MINER("NDUH-Mine", /*exact=*/false, /*production=*/true,
                    MineNDUHMine)

}  // namespace ufim
