// UApriori (Chui, Kao & Hung, PAKDD'07/'08; paper §3.1.1): the uncertain
// extension of Apriori. Breadth-first generate-and-test with downward-
// closure pruning; optionally the decremental pruning of [17, 18]
// (mid-scan deactivation of candidates whose optimistic expected-support
// bound falls below the threshold) on levels k >= 3. Level 2 counts
// every pair of frequent items whole in one triangular pass.
//
// The paper's finding: despite Apriori being outclassed in deterministic
// mining, UApriori is usually the fastest expected-support miner on
// dense data with high min_esup.

#include "algo/apriori_framework.h"
#include "core/miner_registry.h"

namespace ufim {

namespace {

Result<MiningResult> MineUApriori(const FlatView& view,
                                  const ExpectedSupportParams& params,
                                  const MinerOptions& options) {
  const double threshold =
      params.min_esup * static_cast<double>(view.num_transactions());
  MiningResult result;
  AprioriCallbacks callbacks;
  callbacks.is_frequent = [threshold](double esup, double) {
    return esup >= threshold;
  };
  std::vector<FrequentItemset> found = MineAprioriGeneric(
      view, callbacks, options.decremental_pruning ? threshold : -1.0,
      &result.counters(), options.num_threads, &options.run_context);
  for (FrequentItemset& fi : found) result.Add(std::move(fi));
  result.SortCanonical();
  return result;
}

}  // namespace

UFIM_REGISTER_MINER("UApriori", /*exact=*/true, /*production=*/true,
                    MineUApriori)

}  // namespace ufim
