#ifndef UFIM_ALGO_NDU_APRIORI_H_
#define UFIM_ALGO_NDU_APRIORI_H_

#include "core/miner.h"

namespace ufim {

/// NDUApriori (Calders, Garboni & Goethals, ICDM'10; paper §3.3.2):
/// Normal-approximate probabilistic frequent itemset mining.
///
/// By the Lyapunov CLT the Poisson-binomial support converges to
/// Normal(esup, var); the frequent probability is evaluated with the
/// continuity-corrected Φ formula at O(N) per itemset (one scan yields
/// both moments). Unlike PDUApriori it reports the (approximate)
/// frequent probability of every result.
class NDUApriori final : public ProbabilisticMiner {
 public:
  /// `num_threads` parallelizes candidate counting (see
  /// MinerOptions::num_threads); results are bit-identical.
  explicit NDUApriori(std::size_t num_threads = 1)
      : num_threads_(num_threads) {}

  std::string_view name() const override { return "NDUApriori"; }
  bool is_exact() const override { return false; }

 protected:
  Result<MiningResult> MineProbabilistic(
      const FlatView& view,
      const ProbabilisticParams& params) const override;

 private:
  std::size_t num_threads_;
};

}  // namespace ufim

#endif  // UFIM_ALGO_NDU_APRIORI_H_
