// PDUApriori (Wang et al., CIKM'10; paper §3.3.1): Poisson-approximate
// probabilistic frequent itemset mining.
//
// The support of an itemset is Poisson-binomial; Le Cam's theorem lets
// it be approximated by Poisson(λ = esup). Because the Poisson tail
// Pr(X >= msc) is strictly increasing in λ, the probabilistic test
// "tail > pft" is equivalent to "esup >= λ*" for a fixed λ* — so the
// whole algorithm is UApriori run at the translated expected-support
// threshold λ*, always with decremental pruning at λ*. Faithful to the
// paper, results carry no frequent probability values ("it cannot return
// the frequent probability").

#include "algo/apriori_framework.h"
#include "core/miner_registry.h"
#include "prob/poisson.h"

namespace ufim {

namespace {

Result<MiningResult> MinePDUApriori(const FlatView& view,
                                    const ProbabilisticParams& params,
                                    const MinerOptions& options) {
  const std::size_t msc = params.MinSupportCount(view.num_transactions());
  const double lambda_star = PoissonLambdaForTail(msc, params.pft);

  MiningResult result;
  AprioriCallbacks callbacks;
  callbacks.is_frequent = [lambda_star](double esup, double) {
    return esup >= lambda_star;
  };
  std::vector<FrequentItemset> found = MineAprioriGeneric(
      view, callbacks, /*decremental_threshold=*/lambda_star,
      &result.counters(), options.num_threads, &options.run_context);
  for (FrequentItemset& fi : found) result.Add(std::move(fi));
  result.SortCanonical();
  return result;
}

}  // namespace

UFIM_REGISTER_MINER("PDUApriori", /*exact=*/false, /*production=*/true,
                    MinePDUApriori)

}  // namespace ufim
