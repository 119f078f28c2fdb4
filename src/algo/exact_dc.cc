#include "algo/exact_dc.h"

#include <memory>

#include "algo/apriori_framework.h"
#include "core/miner_registry.h"
#include "prob/poisson_binomial.h"

namespace ufim {

Result<MiningResult> ExactDC::MineProbabilistic(
    const FlatView& view, const ProbabilisticParams& params) const {
  UFIM_RETURN_IF_ERROR(params.Validate());
  const std::size_t msc = params.MinSupportCount(view.num_transactions());
  const std::size_t fft_threshold = fft_threshold_;
  MiningResult result;
  ProbabilisticLoopOptions loop;
  loop.use_chernoff = use_chernoff_;
  loop.prefilter = prefilter_;
  loop.num_threads = num_threads_;
  loop.parallel_tails = true;
  loop.context = &run_context();
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

UFIM_REGISTER_MINER("DCNB", TaskFamily::kProbabilistic,
                    /*production=*/true,
                    [](const MinerOptions& options) {
                      return std::make_unique<ExactDC>(
                          /*use_chernoff_pruning=*/false,
                          options.dc_fft_threshold, options.num_threads,
                          options.prefilter);
                    })

UFIM_REGISTER_MINER("DCB", TaskFamily::kProbabilistic,
                    /*production=*/true,
                    [](const MinerOptions& options) {
                      return std::make_unique<ExactDC>(
                          /*use_chernoff_pruning=*/true,
                          options.dc_fft_threshold, options.num_threads,
                          options.prefilter);
                    })

}  // namespace ufim
