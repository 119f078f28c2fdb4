#ifndef UFIM_ALGO_UH_MINE_H_
#define UFIM_ALGO_UH_MINE_H_

#include "core/miner.h"

namespace ufim {

/// UH-Mine (Aggarwal et al., KDD'09; paper §3.1.3): depth-first prefix
/// growth over the UH-Struct with recursively built head tables. The
/// paper's finding: the best expected-support miner on sparse data or at
/// low min_esup, with smoothly growing memory. Top-level prefix subtrees
/// mine in parallel through the shared UHStructEngine, with dominant
/// subtrees recursively split under the split-budget heuristic; results
/// are bit-identical at every thread count and budget.
class UHMine final : public ExpectedSupportMiner {
 public:
  /// `num_threads`: workers for the per-rank mining tasks; 1 (default)
  /// is the sequential baseline, 0 means all hardware threads.
  /// `split_budget`: recursive-splitting budget forwarded to
  /// UHStructEngine::Mine (0 = auto, 1 = off).
  explicit UHMine(std::size_t num_threads = 1, std::size_t split_budget = 0)
      : num_threads_(num_threads), split_budget_(split_budget) {}

  std::string_view name() const override { return "UH-Mine"; }

 protected:
  Result<MiningResult> MineExpected(
      const FlatView& view,
      const ExpectedSupportParams& params) const override;

 private:
  std::size_t num_threads_;
  std::size_t split_budget_;
};

}  // namespace ufim

#endif  // UFIM_ALGO_UH_MINE_H_
