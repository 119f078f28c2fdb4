#ifndef UFIM_ALGO_NDUH_MINE_H_
#define UFIM_ALGO_NDUH_MINE_H_

#include "core/miner.h"

namespace ufim {

/// NDUH-Mine — the algorithm proposed by the paper itself (§3.3.3):
/// UH-Mine's depth-first framework with the Normal-distribution
/// approximation of the frequent probability. The UH-Struct already
/// yields Σp per prefix; accumulating Σp² alongside is free, and the two
/// moments feed the continuity-corrected Φ test. Designed to win on
/// large sparse uncertain databases, where the Apriori-framework
/// approximations (PDUApriori/NDUApriori) degrade.
class NDUHMine final : public ProbabilisticMiner {
 public:
  /// `num_threads`: workers for the per-rank mining tasks of the shared
  /// UHStructEngine; 1 (default) is the sequential baseline, 0 means all
  /// hardware threads. Dominant prefix subtrees split under the
  /// engine's fixed rule; results are bit-identical at every setting.
  explicit NDUHMine(std::size_t num_threads = 1) : num_threads_(num_threads) {}

  std::string_view name() const override { return "NDUH-Mine"; }
  bool is_exact() const override { return false; }

 protected:
  Result<MiningResult> MineProbabilistic(
      const FlatView& view,
      const ProbabilisticParams& params) const override;

 private:
  std::size_t num_threads_;
};

}  // namespace ufim

#endif  // UFIM_ALGO_NDUH_MINE_H_
