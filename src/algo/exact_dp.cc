// DP — dynamic-programming exact probabilistic miner (Bernecker et al.,
// KDD'09; paper §3.2.1). Apriori framework; per candidate the exact
// frequent probability Pr(sup >= msc) is computed by the O(N * msc)
// support-probability dynamic program. DPB adds the Chernoff-bound
// filter of Lemma 1; DPNB runs without it.
//
// Both candidate counting and the per-candidate DP tails (the dominant
// cost) run in parallel; results are bit-identical at every thread
// count. With the bounds prefilter, the framework's bound cascade screens
// candidates and each DP may stop early once it certifiably cannot reach
// pft; results are identical to prefilter off.

#include "algo/apriori_framework.h"
#include "core/miner_registry.h"
#include "prob/poisson_binomial.h"

namespace ufim {

namespace {

template <bool kUseChernoff>
Result<MiningResult> MineDP(const FlatView& view,
                            const ProbabilisticParams& params,
                            const MinerOptions& options) {
  const std::size_t msc = params.MinSupportCount(view.num_transactions());
  MiningResult result;
  // With the prefilter on, candidates the DP cannot lift above pft are
  // abandoned mid-evaluation (certified: the early exit only fires when
  // the completed DP would also land <= pft). The scratch row lives per
  // worker thread, so the O(msc) pmf allocation is paid once per worker
  // for the whole run instead of once per tail evaluation.
  const double reject_threshold =
      options.prefilter == PrefilterMode::kBounds ? params.pft : -1.0;
  ProbabilisticLoopOptions loop;
  loop.use_chernoff = kUseChernoff;
  loop.prefilter = options.prefilter;
  loop.num_threads = options.num_threads;
  loop.context = &options.run_context;
  std::vector<FrequentItemset> found = MineProbabilisticApriori(
      view, msc, params.pft,
      [reject_threshold](const std::vector<double>& probs, std::size_t k,
                         std::size_t /*ordinal*/) {
        thread_local DpScratch scratch;
        return PoissonBinomialTailDP(probs, k, reject_threshold, scratch);
      },
      loop, &result.counters());
  for (FrequentItemset& fi : found) result.Add(std::move(fi));
  result.SortCanonical();
  return result;
}

}  // namespace

UFIM_REGISTER_MINER("DPNB", /*exact=*/true, /*production=*/true,
                    MineDP</*kUseChernoff=*/false>)

UFIM_REGISTER_MINER("DPB", /*exact=*/true, /*production=*/true,
                    MineDP</*kUseChernoff=*/true>)

}  // namespace ufim
