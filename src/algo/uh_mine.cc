#include "algo/uh_mine.h"

#include <memory>

#include "algo/uh_struct.h"
#include "core/miner_registry.h"

namespace ufim {

Result<MiningResult> UHMine::MineExpected(
    const FlatView& view, const ExpectedSupportParams& params) const {
  UFIM_RETURN_IF_ERROR(params.Validate());
  const double threshold =
      params.min_esup * static_cast<double>(view.num_transactions());
  UHStructEngine::Hooks hooks;
  hooks.is_frequent = [threshold](double esup, double) {
    return esup >= threshold;
  };
  UHStructEngine engine(view, std::move(hooks));
  MiningResult result;
  std::vector<FrequentItemset> found =
      engine.Mine(&result.counters(), num_threads_, &run_context());
  for (FrequentItemset& fi : found) result.Add(std::move(fi));
  result.SortCanonical();
  return result;
}

UFIM_REGISTER_MINER("UH-Mine", TaskFamily::kExpectedSupport,
                    /*production=*/true,
                    [](const MinerOptions& options) {
                      return std::make_unique<UHMine>(options.num_threads);
                    })

}  // namespace ufim
