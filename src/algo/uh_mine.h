#ifndef UFIM_ALGO_UH_MINE_H_
#define UFIM_ALGO_UH_MINE_H_

#include "core/miner.h"

namespace ufim {

/// UH-Mine (Aggarwal et al., KDD'09; paper §3.1.3): depth-first prefix
/// growth over the UH-Struct with recursively built head tables. The
/// paper's finding: the best expected-support miner on sparse data or at
/// low min_esup, with smoothly growing memory. Top-level prefix subtrees
/// mine in parallel through the shared UHStructEngine, and a dominant
/// subtree splits its sibling extensions through a nested ParallelFor
/// (see UHStructEngine); results are bit-identical at every thread
/// count.
class UHMine final : public ExpectedSupportMiner {
 public:
  /// `num_threads`: workers for the per-rank mining tasks; 1 (default)
  /// is the sequential baseline, 0 means all hardware threads.
  explicit UHMine(std::size_t num_threads = 1) : num_threads_(num_threads) {}

  std::string_view name() const override { return "UH-Mine"; }

 protected:
  Result<MiningResult> MineExpected(
      const FlatView& view,
      const ExpectedSupportParams& params) const override;

 private:
  std::size_t num_threads_;
};

}  // namespace ufim

#endif  // UFIM_ALGO_UH_MINE_H_
