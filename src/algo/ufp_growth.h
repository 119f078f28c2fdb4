#ifndef UFIM_ALGO_UFP_GROWTH_H_
#define UFIM_ALGO_UFP_GROWTH_H_

#include "core/miner.h"

namespace ufim {

/// UFP-growth (Leung, Mateo & Brajczuk, PAKDD'08; paper §3.1.2):
/// FP-growth extended to uncertain data. Builds the UFP-tree, then
/// recursively projects conditional subtrees per extension item.
///
/// Because nodes are shared only on (item, probability) equality, the
/// compression of the FP-tree largely evaporates under uncertainty: on
/// Gaussian-probability data the global tree has one node per projected
/// unit. The paper measures UFP-growth as the slowest and most
/// memory-hungry of the three expected-support miners. This
/// implementation keeps that sharing rule and node count exactly (exact
/// mining over the weighted tree, no candidate-verification rescan), but
/// stores each tree in two flat arrays — 32 B per node plus 8–16 B of
/// child index — with no heap allocation per node (see `UFPTree`). The
/// arrays are sized from the node count to expect: the global tree from
/// the node/unit ratio of its first eighth, each conditional tree from
/// its base's locally frequent units. Neither is sized from the raw
/// unit count, which overshoots a shared tree many times.
///
/// Mining is a ParallelFor over the top-level header ranks of the
/// global tree (each rank's conditional projection chain is an
/// independent subproblem). When more than one thread runs, a
/// conditional tree of at least max(128, global_nodes / 32) nodes is
/// mined by a nested ParallelFor over its own ranks. Outputs and
/// counters are merged in fixed rank order at every level, so results
/// are bit-identical at every `num_threads`.
class UFPGrowth final : public ExpectedSupportMiner {
 public:
  /// `num_threads`: workers for the per-rank mining tasks; 1 (default)
  /// is the sequential baseline, 0 means all hardware threads.
  explicit UFPGrowth(std::size_t num_threads = 1)
      : num_threads_(num_threads) {}

  std::string_view name() const override { return "UFP-growth"; }

 protected:
  Result<MiningResult> MineExpected(
      const FlatView& view,
      const ExpectedSupportParams& params) const override;

 private:
  std::size_t num_threads_;
};

}  // namespace ufim

#endif  // UFIM_ALGO_UFP_GROWTH_H_
