#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `samples` (need not be sorted): the value
/// at sorted index ceil(p/100 * n) - 1, clamped to [0, n-1]. `p` in
/// (0, 100]. Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Median of `samples` (average of the two middle values for even n);
/// 0 for an empty sample.
double Median(std::vector<double> samples);

/// Number of samples ranked strictly above the nearest-rank `p`-th
/// percentile of `n` samples: n - ceil(p/100 * n).
std::size_t SamplesBeyond(std::size_t n, double p);

/// The tail percentile reported as `job_ms.tail`.
struct TailPick {
  double percentile = 0.0;   ///< chosen percentile, e.g. 95
  double value = 0.0;        ///< the sample at that percentile
  std::size_t beyond = 0;    ///< samples ranked above it (>= 10)
  std::size_t samples = 0;   ///< sample count
};

/// Percentiles `PickTail` chooses from, highest first. The ladder is
/// coarse on purpose: the pick only changes when the sample count moves
/// by a large factor, so runs of similar length report the same one.
inline constexpr double kTailLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};

/// The highest ladder percentile with at least `min_beyond` samples
/// ranked above it; nullopt when even the median has fewer (n < 20 for
/// the default of ten).
std::optional<TailPick> PickTail(const std::vector<double>& samples,
                                 std::size_t min_beyond = 10);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
