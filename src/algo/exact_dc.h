#ifndef UFIM_ALGO_EXACT_DC_H_
#define UFIM_ALGO_EXACT_DC_H_

#include <cstddef>

#include "core/miner.h"

namespace ufim {

/// DC — divide-and-conquer exact probabilistic miner (Sun et al.,
/// KDD'10; paper §3.2.2). Apriori framework; per candidate the exact
/// support pmf is assembled by recursively splitting the containment-
/// probability vector and convolving the halves (FFT above
/// `fft_threshold` coefficients), for O(N log N) per itemset against the
/// DP algorithm's O(N * msc).
///
/// `use_chernoff_pruning` selects between DCB and DCNB.
class ExactDC final : public ProbabilisticMiner {
 public:
  /// `num_threads` parallelizes both candidate counting and the
  /// per-candidate DC tail evaluations (the dominant cost); results are
  /// bit-identical (see MinerOptions::num_threads).
  /// `prefilter` == kBounds screens candidates with the certified bound
  /// cascade before the DC evaluation; results are identical to kOff.
  explicit ExactDC(bool use_chernoff_pruning, std::size_t fft_threshold = 64,
                   std::size_t num_threads = 1,
                   PrefilterMode prefilter = PrefilterMode::kOff)
      : use_chernoff_(use_chernoff_pruning),
        fft_threshold_(fft_threshold),
        num_threads_(num_threads),
        prefilter_(prefilter) {}

  std::string_view name() const override { return use_chernoff_ ? "DCB" : "DCNB"; }
  bool is_exact() const override { return true; }

 protected:
  Result<MiningResult> MineProbabilistic(
      const FlatView& view,
      const ProbabilisticParams& params) const override;

 private:
  bool use_chernoff_;
  std::size_t fft_threshold_;
  std::size_t num_threads_;
  PrefilterMode prefilter_;
};

}  // namespace ufim

#endif  // UFIM_ALGO_EXACT_DC_H_
