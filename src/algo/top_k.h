#ifndef UFIM_ALGO_TOP_K_H_
#define UFIM_ALGO_TOP_K_H_

#include <cstddef>

#include "core/flat_view.h"
#include "core/miner.h"

namespace ufim {

/// Threshold-free mining: the k itemsets with the highest expected
/// support. Practitioners rarely know a good min_esup up front (the
/// paper's sweeps exist precisely because results are threshold-
/// sensitive); top-k inverts the contract.
///
/// Depth-first search with a dynamic bound: the k-th best expected
/// support seen so far prunes subtrees, which is exact because expected
/// support is anti-monotone. Items are explored in descending expected-
/// support order so the bound tightens early. An extension's expected
/// support never exceeds its item's, so each extension loop stops, before
/// joining, at the first item whose own expected support cannot beat the
/// bound: no later item can either. Serial: on the CLI dataset families
/// the whole search takes well under a millisecond at k = 10.
///
/// Returns fewer than k itemsets only when fewer exist. Results carry
/// (esup, variance) like every other miner and are sorted by descending
/// expected support. `counters().candidates_generated` counts the seed
/// items plus the extensions actually joined; those cut off by the early
/// stop are not counted. `context` (optional) is polled once per searched
/// starting item and once per joined extension; a tripped token unwinds
/// with RunAbortedError (callers going through `TopKMiner` get it
/// converted to a Status).
Result<MiningResult> MineTopKExpected(const FlatView& view, std::size_t k,
                                      const RunContext* context = nullptr);

/// The `Miner` facade over MineTopKExpected: answers `TopKParams` tasks,
/// registered as "TopK" so the CLI, experiment runner and benches reach
/// threshold-free mining through the same registry path as every other
/// algorithm.
class TopKMiner final : public Miner {
 public:
  TopKMiner() = default;

  std::string_view name() const override { return "TopK"; }
  bool Supports(const MiningTask& task) const override {
    return std::holds_alternative<TopKParams>(task);
  }
  /// Exact: the dynamic bound prunes only subtrees that provably cannot
  /// enter the top k.
  bool is_exact() const override { return true; }

  Result<MiningResult> Mine(const FlatView& view,
                            const MiningTask& task) const override;
};

}  // namespace ufim

#endif  // UFIM_ALGO_TOP_K_H_
