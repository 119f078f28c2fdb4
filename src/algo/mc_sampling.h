#ifndef UFIM_ALGO_MC_SAMPLING_H_
#define UFIM_ALGO_MC_SAMPLING_H_

#include <cstdint>

#include "core/miner.h"

namespace ufim {

/// Monte-Carlo sampling miner (Calders, Garboni & Goethals, PAKDD'10 —
/// the paper's reference [11]): estimates the frequent probability of
/// each candidate by sampling possible worlds of its containment-
/// probability vector. An unbiased estimator with standard error
/// <= 1/(2*sqrt(num_samples)); with the default 1024 samples the
/// estimate is within ~±0.03 at 95% confidence.
///
/// Included as the fourth approximate method the paper's taxonomy
/// mentions but does not benchmark; `bench/ablation_sampling`
/// contrasts it with the moment-based approximations.
class MCSampling final : public ProbabilisticMiner {
 public:
  /// `num_threads` parallelizes candidate counting *and* the tail
  /// sampling itself: each candidate draws from a private RNG stream
  /// derived from (seed, stable candidate ordinal) — see
  /// DeriveStreamSeed — so concurrent evaluation consumes no shared
  /// state and results are bit-identical at every thread count.
  /// `prefilter` == kBounds: because the tail is an *estimate*, analytic
  /// bounds on the true tail may not overrule it (they could disagree
  /// with the estimator and change the result set), so the framework
  /// cascade stays off. Instead the sampler stops early once the
  /// remaining samples can no longer lift the estimate above pft — a
  /// decision-identical shortcut, so results still match kOff exactly.
  explicit MCSampling(std::size_t num_samples = 1024,
                      std::uint64_t seed = 0xC0FFEE,
                      std::size_t num_threads = 1,
                      PrefilterMode prefilter = PrefilterMode::kOff)
      : num_samples_(num_samples),
        seed_(seed),
        num_threads_(num_threads),
        prefilter_(prefilter) {}

  std::string_view name() const override { return "MCSampling"; }
  bool is_exact() const override { return false; }

 protected:
  Result<MiningResult> MineProbabilistic(
      const FlatView& view,
      const ProbabilisticParams& params) const override;

 private:
  std::size_t num_samples_;
  std::uint64_t seed_;
  std::size_t num_threads_;
  PrefilterMode prefilter_;
};

}  // namespace ufim

#endif  // UFIM_ALGO_MC_SAMPLING_H_
