#ifndef UFIM_ALGO_BRUTE_FORCE_H_
#define UFIM_ALGO_BRUTE_FORCE_H_

#include "core/miner.h"

namespace ufim {

/// Depth-first exhaustive reference miners used as ground truth by the
/// test suite. They share no code with the production algorithms beyond
/// the data model, making cross-checks meaningful:
/// support probabilities come from Transaction::ItemsetProbability and
/// tails from the naive O(n²) convolution path rather than the DP/DC/FFT
/// machinery.

/// Exhaustive expected-support miner. The DFS prunes on the (exact)
/// anti-monotonicity of expected support, so it is complete.
class BruteForceExpected final : public ExpectedSupportMiner {
 public:
  BruteForceExpected() = default;

  std::string_view name() const override { return "BruteForceExpected"; }

 protected:
  Result<MiningResult> MineExpected(
      const FlatView& view,
      const ExpectedSupportParams& params) const override;
};

/// Exhaustive exact probabilistic miner. Per itemset, the support pmf is
/// built by incrementally convolving Bernoulli factors (naive path);
/// pruning uses the anti-monotonicity of the frequent probability.
class BruteForceProbabilistic final : public ProbabilisticMiner {
 public:
  BruteForceProbabilistic() = default;

  std::string_view name() const override { return "BruteForceProbabilistic"; }
  bool is_exact() const override { return true; }

 protected:
  Result<MiningResult> MineProbabilistic(
      const FlatView& view,
      const ProbabilisticParams& params) const override;
};

}  // namespace ufim

#endif  // UFIM_ALGO_BRUTE_FORCE_H_
