// UH-Mine (Aggarwal et al., KDD'09; paper §3.1.3): depth-first prefix
// growth over the UH-Struct with recursively built head tables. The
// paper's finding: the best expected-support miner on sparse data or at
// low min_esup, with smoothly growing memory. Top-level prefix subtrees
// mine in parallel through the shared UHStructEngine, and a dominant
// subtree splits its sibling extensions through a nested ParallelFor
// (see UHStructEngine); results are bit-identical at every thread
// count.

#include "algo/uh_struct.h"
#include "core/miner_registry.h"

namespace ufim {

namespace {

Result<MiningResult> MineUHMine(const FlatView& view,
                                const ExpectedSupportParams& params,
                                const MinerOptions& options) {
  const double threshold =
      params.min_esup * static_cast<double>(view.num_transactions());
  UHStructEngine::Hooks hooks;
  hooks.is_frequent = [threshold](double esup, double) {
    return esup >= threshold;
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

UFIM_REGISTER_MINER("UH-Mine", /*exact=*/true, /*production=*/true,
                    MineUHMine)

}  // namespace ufim
