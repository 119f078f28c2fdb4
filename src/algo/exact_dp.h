#ifndef UFIM_ALGO_EXACT_DP_H_
#define UFIM_ALGO_EXACT_DP_H_

#include "core/miner.h"

namespace ufim {

/// DP — dynamic-programming exact probabilistic miner (Bernecker et al.,
/// KDD'09; paper §3.2.1). Apriori framework; per candidate the exact
/// frequent probability Pr(sup >= msc) is computed by the O(N * msc)
/// support-probability dynamic program.
///
/// `use_chernoff_pruning` selects between the paper's DPB (with the
/// Chernoff-bound filter of Lemma 1) and DPNB (without).
class ExactDP final : public ProbabilisticMiner {
 public:
  /// `num_threads` parallelizes both candidate counting and the
  /// per-candidate DP tail evaluations (the dominant cost); results are
  /// bit-identical (see MinerOptions::num_threads).
  ///
  /// `prefilter` == kBounds enables the bound cascade
  /// (ProbabilisticLoopOptions::prefilter) plus a certified mid-DP early
  /// reject inside each tail evaluation; reported results are identical
  /// to kOff. Independent of the knob, the DP row is kept in per-worker
  /// scratch reused across every candidate of every level.
  explicit ExactDP(bool use_chernoff_pruning, std::size_t num_threads = 1,
                   PrefilterMode prefilter = PrefilterMode::kOff)
      : use_chernoff_(use_chernoff_pruning),
        num_threads_(num_threads),
        prefilter_(prefilter) {}

  std::string_view name() const override { return use_chernoff_ ? "DPB" : "DPNB"; }
  bool is_exact() const override { return true; }

 protected:
  Result<MiningResult> MineProbabilistic(
      const FlatView& view,
      const ProbabilisticParams& params) const override;

 private:
  bool use_chernoff_;
  std::size_t num_threads_;
  PrefilterMode prefilter_;
};

}  // namespace ufim

#endif  // UFIM_ALGO_EXACT_DP_H_
