#include "algo/nduh_mine.h"

#include <memory>

#include "algo/uh_struct.h"
#include "core/miner_registry.h"
#include "prob/normal.h"

namespace ufim {

Result<MiningResult> NDUHMine::MineProbabilistic(
    const FlatView& view, const ProbabilisticParams& params) const {
  UFIM_RETURN_IF_ERROR(params.Validate());
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
  std::vector<FrequentItemset> found =
      engine.Mine(&result.counters(), num_threads_, &run_context());
  for (FrequentItemset& fi : found) result.Add(std::move(fi));
  result.SortCanonical();
  return result;
}

UFIM_REGISTER_MINER("NDUH-Mine", TaskFamily::kProbabilistic,
                    /*production=*/true,
                    [](const MinerOptions& options) {
                      return std::make_unique<NDUHMine>(options.num_threads);
                    })

}  // namespace ufim
