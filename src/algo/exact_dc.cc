// DC — divide-and-conquer exact probabilistic miner (Sun et al.,
// KDD'10; paper §3.2.2). Apriori framework; per candidate the exact
// support pmf is assembled by recursively splitting the containment-
// probability vector and convolving the halves (FFT above
// `MinerOptions::dc_fft_threshold` coefficients), for O(N log N) per
// itemset against the DP algorithm's O(N * msc). DCB adds the
// Chernoff-bound filter of Lemma 1; DCNB runs without it.
//
// Both candidate counting and the per-candidate DC tails (the dominant
// cost) run in parallel; results are bit-identical at every thread
// count. The bounds prefilter screens candidates with the certified
// bound cascade before the DC evaluation; results are identical to
// prefilter off.

#include "algo/apriori_framework.h"
#include "core/miner_registry.h"
#include "prob/poisson_binomial.h"

namespace ufim {

namespace {

template <bool kUseChernoff>
Result<MiningResult> MineDC(const FlatView& view,
                            const ProbabilisticParams& params,
                            const MinerOptions& options) {
  const std::size_t msc = params.MinSupportCount(view.num_transactions());
  const std::size_t fft_threshold = options.dc_fft_threshold;
  MiningResult result;
  ProbabilisticLoopOptions loop;
  loop.use_chernoff = kUseChernoff;
  loop.prefilter = options.prefilter;
  loop.num_threads = options.num_threads;
  loop.context = &options.run_context;
  // The recursion's pmf buffers and FFT buffers live per worker thread,
  // so a tail allocates only when it outgrows every earlier one on that
  // worker, not once per tree node.
  std::vector<FrequentItemset> found = MineProbabilisticApriori(
      view, msc, params.pft,
      [fft_threshold](const std::vector<double>& probs, std::size_t k,
                      std::size_t /*ordinal*/) {
        thread_local DcScratch scratch;
        return PoissonBinomialTailDC(probs, k, fft_threshold, scratch);
      },
      loop, &result.counters());
  for (FrequentItemset& fi : found) result.Add(std::move(fi));
  result.SortCanonical();
  return result;
}

}  // namespace

UFIM_REGISTER_MINER("DCNB", /*exact=*/true, /*production=*/true,
                    MineDC</*kUseChernoff=*/false>)

UFIM_REGISTER_MINER("DCB", /*exact=*/true, /*production=*/true,
                    MineDC</*kUseChernoff=*/true>)

}  // namespace ufim
