#ifndef UFIM_ALGO_UAPRIORI_H_
#define UFIM_ALGO_UAPRIORI_H_

#include "core/miner.h"

namespace ufim {

/// UApriori (Chui, Kao & Hung, PAKDD'07/'08; paper §3.1.1): the uncertain
/// extension of Apriori. Breadth-first generate-and-test with downward-
/// closure pruning; optionally the decremental pruning of [17, 18]
/// (mid-scan deactivation of candidates whose optimistic expected-support
/// bound falls below the threshold) on levels k >= 3. Level 2 counts
/// every pair of frequent items whole in one triangular pass.
///
/// The paper's finding: despite Apriori being outclassed in deterministic
/// mining, UApriori is usually the fastest expected-support miner on
/// dense data with high min_esup.
class UApriori final : public ExpectedSupportMiner {
 public:
  /// `decremental_pruning` mirrors the optimized implementation used in
  /// the paper's study (it acts on levels k >= 3); disable it for
  /// ablation. `num_threads`
  /// parallelizes candidate counting (see MinerOptions::num_threads);
  /// results are bit-identical at every setting.
  explicit UApriori(bool decremental_pruning = true,
                    std::size_t num_threads = 1)
      : decremental_pruning_(decremental_pruning),
        num_threads_(num_threads) {}

  std::string_view name() const override { return "UApriori"; }

 protected:
  Result<MiningResult> MineExpected(
      const FlatView& view,
      const ExpectedSupportParams& params) const override;

 private:
  bool decremental_pruning_;
  std::size_t num_threads_;
};

}  // namespace ufim

#endif  // UFIM_ALGO_UAPRIORI_H_
