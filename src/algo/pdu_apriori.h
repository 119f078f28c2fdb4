#ifndef UFIM_ALGO_PDU_APRIORI_H_
#define UFIM_ALGO_PDU_APRIORI_H_

#include "core/miner.h"

namespace ufim {

/// PDUApriori (Wang et al., CIKM'10; paper §3.3.1): Poisson-approximate
/// probabilistic frequent itemset mining.
///
/// The support of an itemset is Poisson-binomial; Le Cam's theorem lets
/// it be approximated by Poisson(λ = esup). Because the Poisson tail
/// Pr(X >= msc) is strictly increasing in λ, the probabilistic test
/// "tail > pft" is equivalent to "esup >= λ*" for a fixed λ* — so the
/// whole algorithm is UApriori run at the translated expected-support
/// threshold λ*. Faithful to the paper, results carry no frequent
/// probability values ("it cannot return the frequent probability").
class PDUApriori final : public ProbabilisticMiner {
 public:
  /// `num_threads` parallelizes candidate counting (see
  /// MinerOptions::num_threads); results are bit-identical.
  explicit PDUApriori(std::size_t num_threads = 1)
      : num_threads_(num_threads) {}

  std::string_view name() const override { return "PDUApriori"; }
  bool is_exact() const override { return false; }

 protected:
  Result<MiningResult> MineProbabilistic(
      const FlatView& view,
      const ProbabilisticParams& params) const override;

 private:
  std::size_t num_threads_;
};

}  // namespace ufim

#endif  // UFIM_ALGO_PDU_APRIORI_H_
