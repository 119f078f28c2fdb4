// NDUApriori (Calders, Garboni & Goethals, ICDM'10; paper §3.3.2):
// Normal-approximate probabilistic frequent itemset mining.
//
// By the Lyapunov CLT the Poisson-binomial support converges to
// Normal(esup, var); the frequent probability is evaluated with the
// continuity-corrected Φ formula at O(N) per itemset (one scan yields
// both moments). Unlike PDUApriori it reports the (approximate)
// frequent probability of every result.

#include "algo/apriori_framework.h"
#include "core/miner_registry.h"
#include "prob/normal.h"

namespace ufim {

namespace {

Result<MiningResult> MineNDUApriori(const FlatView& view,
                                    const ProbabilisticParams& params,
                                    const MinerOptions& options) {
  const std::size_t msc = params.MinSupportCount(view.num_transactions());
  const double pft = params.pft;

  MiningResult result;
  AprioriCallbacks callbacks;
  callbacks.is_frequent = [msc, pft](double esup, double sq_sum) {
    return NormalApproxFrequentProbability(esup, esup - sq_sum, msc) > pft;
  };
  callbacks.frequent_probability = [msc](double esup,
                                         double sq_sum) -> std::optional<double> {
    return NormalApproxFrequentProbability(esup, esup - sq_sum, msc);
  };
  std::vector<FrequentItemset> found = MineAprioriGeneric(
      view, callbacks, /*decremental_threshold=*/-1.0, &result.counters(),
      options.num_threads, &options.run_context);
  for (FrequentItemset& fi : found) result.Add(std::move(fi));
  result.SortCanonical();
  return result;
}

}  // namespace

UFIM_REGISTER_MINER("NDUApriori", /*exact=*/false, /*production=*/true,
                    MineNDUApriori)

}  // namespace ufim
